// Package detail implements Pia's dynamic detail levels (runlevels):
// the switchpoint condition language, the engine that evaluates
// switchpoints at safe points in the execution, and the detail-level
// slider.
//
// A switchpoint is an expression that tells the simulator when and
// how to change runlevels, e.g.
//
//	when I2CComponent >= 67: I2CComponent->hardwareLevel, VidCamComponent->byteLevel
//
// which reads: as soon as I2CComponent shows a local time of 67 or
// later, change I2CComponent's runlevel to hardwareLevel and
// VidCamComponent's to byteLevel. Conditions may combine conjuncts
// (&) and disjuncts (|) of comparisons across multiple components.
// Switchpoints come from three places, all supported here: the
// detail-level slider (Engine.Slider), the simulation run control
// file (parseScript), and imperative switch statements in component
// source (core.Proc.SetRunlevel).
package detail

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/vtime"
)

// timeSource reports a component's local virtual time. ok=false means
// the component is unknown, which makes any comparison on it false.
type timeSource func(component string) (vtime.Time, bool)

// Expr is a switchpoint condition.
type Expr interface {
	Eval(ts timeSource) bool
	String() string
}

// cmpOp is a comparison operator.
type cmpOp int

const (
	opGE cmpOp = iota
	opGT
	opLE
	opLT
	opEQ
)

func (o cmpOp) String() string {
	switch o {
	case opGE:
		return ">="
	case opGT:
		return ">"
	case opLE:
		return "<="
	case opLT:
		return "<"
	default:
		return "=="
	}
}

// cmpExpr compares a component's local time against a constant.
type cmpExpr struct {
	comp string
	op   cmpOp
	t    vtime.Time
}

func (c *cmpExpr) Eval(ts timeSource) bool {
	lt, ok := ts(c.comp)
	if !ok {
		return false
	}
	switch c.op {
	case opGE:
		return lt >= c.t
	case opGT:
		return lt > c.t
	case opLE:
		return lt <= c.t
	case opLT:
		return lt < c.t
	default:
		return lt == c.t
	}
}

func (c *cmpExpr) String() string {
	return fmt.Sprintf("%s %s %d", c.comp, c.op, int64(c.t))
}

// binExpr is a conjunction or disjunction.
type binExpr struct {
	and  bool
	l, r Expr
}

func (b *binExpr) Eval(ts timeSource) bool {
	if b.and {
		return b.l.Eval(ts) && b.r.Eval(ts)
	}
	return b.l.Eval(ts) || b.r.Eval(ts)
}

func (b *binExpr) String() string {
	op := "|"
	if b.and {
		op = "&"
	}
	return fmt.Sprintf("(%s %s %s)", b.l, op, b.r)
}

// --- lexer ---

type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber
	tokOp     // >= > <= < ==
	tokAnd    // &
	tokOr     // |
	tokLParen // (
	tokRParen // )
	tokArrow  // ->
	tokComma  // ,
	tokColon  // :
)

type token struct {
	kind tokKind
	text string
	pos  int
}

type lexer struct {
	src  string
	pos  int
	toks []token
}

func lex(src string) ([]token, error) {
	l := &lexer{src: src}
	for l.pos < len(l.src) {
		ch := l.src[l.pos]
		switch {
		case ch == ' ' || ch == '\t':
			l.pos++
		case ch == '(':
			l.emit(tokLParen, "(")
		case ch == ')':
			l.emit(tokRParen, ")")
		case ch == ',':
			l.emit(tokComma, ",")
		case ch == ':':
			l.emit(tokColon, ":")
		case ch == '&':
			if l.peek(1) == '&' {
				l.pos++
			}
			l.emit(tokAnd, "&")
		case ch == '|':
			if l.peek(1) == '|' {
				l.pos++
			}
			l.emit(tokOr, "|")
		case ch == '>' || ch == '<' || ch == '=':
			op := string(ch)
			if l.peek(1) == '=' {
				op += "="
				l.pos++
			}
			if op == "=" {
				return nil, fmt.Errorf("detail: position %d: use == for equality", l.pos)
			}
			l.emit(tokOp, op)
		case ch == '-':
			if l.peek(1) != '>' {
				return nil, fmt.Errorf("detail: position %d: unexpected '-'", l.pos)
			}
			l.pos++
			l.emit(tokArrow, "->")
		case ch >= '0' && ch <= '9':
			start := l.pos
			for l.pos < len(l.src) && isNumChar(l.src[l.pos]) {
				l.pos++
			}
			l.toks = append(l.toks, token{tokNumber, l.src[start:l.pos], start})
		case isIdentChar(ch):
			start := l.pos
			for l.pos < len(l.src) && isIdentChar(l.src[l.pos]) {
				l.pos++
			}
			l.toks = append(l.toks, token{tokIdent, l.src[start:l.pos], start})
		default:
			return nil, fmt.Errorf("detail: position %d: unexpected character %q", l.pos, ch)
		}
	}
	l.toks = append(l.toks, token{tokEOF, "", l.pos})
	return l.toks, nil
}

func (l *lexer) emit(k tokKind, s string) {
	l.toks = append(l.toks, token{k, s, l.pos})
	l.pos++
}

func (l *lexer) peek(n int) byte {
	if l.pos+n < len(l.src) {
		return l.src[l.pos+n]
	}
	return 0
}

func isIdentChar(c byte) bool {
	return c == '_' || c == '.' ||
		(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
}

func isNumChar(c byte) bool {
	return (c >= '0' && c <= '9') || c == '_'
}

// --- parser ---

type parser struct {
	toks []token
	i    int
}

func (p *parser) cur() token  { return p.toks[p.i] }
func (p *parser) next() token { t := p.toks[p.i]; p.i++; return t }

func (p *parser) expect(k tokKind, what string) (token, error) {
	if p.cur().kind != k {
		return token{}, fmt.Errorf("detail: position %d: expected %s, found %q", p.cur().pos, what, p.cur().text)
	}
	return p.next(), nil
}

// parseExpr parses disjunctions (lowest precedence).
func (p *parser) parseExpr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.cur().kind == tokOr {
		p.next()
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &binExpr{and: false, l: l, r: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseAtom()
	if err != nil {
		return nil, err
	}
	for p.cur().kind == tokAnd {
		p.next()
		r, err := p.parseAtom()
		if err != nil {
			return nil, err
		}
		l = &binExpr{and: true, l: l, r: r}
	}
	return l, nil
}

func (p *parser) parseAtom() (Expr, error) {
	if p.cur().kind == tokLParen {
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen, ")"); err != nil {
			return nil, err
		}
		return e, nil
	}
	id, err := p.expect(tokIdent, "component name")
	if err != nil {
		return nil, err
	}
	op, err := p.expect(tokOp, "comparison operator")
	if err != nil {
		return nil, err
	}
	num, err := p.expect(tokNumber, "time constant")
	if err != nil {
		return nil, err
	}
	n, err := strconv.ParseInt(strings.ReplaceAll(num.text, "_", ""), 10, 64)
	if err != nil {
		return nil, fmt.Errorf("detail: bad number %q: %v", num.text, err)
	}
	var o cmpOp
	switch op.text {
	case ">=":
		o = opGE
	case ">":
		o = opGT
	case "<=":
		o = opLE
	case "<":
		o = opLT
	case "==":
		o = opEQ
	default:
		return nil, fmt.Errorf("detail: unsupported operator %q", op.text)
	}
	return &cmpExpr{comp: id.text, op: o, t: vtime.Time(n)}, nil
}

// ParseExpr parses a standalone condition expression.
func ParseExpr(src string) (Expr, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.cur().kind != tokEOF {
		return nil, fmt.Errorf("detail: position %d: trailing input %q", p.cur().pos, p.cur().text)
	}
	return e, nil
}
