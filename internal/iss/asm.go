package iss

import (
	"fmt"
	"strconv"
	"strings"
)

// Assemble turns assembly text into program words. One instruction
// per line; labels end with ':'; ';' and '#' start comments; branch
// and jump targets are labels (encoded as absolute instruction
// indices in the immediate field).
//
//	        li   r1, 0        ; sum
//	        li   r2, 1        ; i
//	        li   r3, 11       ; limit
//	loop:   add  r1, r1, r2
//	        addi r2, r2, 1
//	        blt  r2, r3, loop
//	        out  r1
//	        halt
func Assemble(src string) ([]uint32, error) {
	type pending struct {
		line  int
		instr instruction
		label string // branch target to resolve, "" if none
	}
	labels := make(map[string]int)
	var prog []pending

	for lineNo, raw := range strings.Split(src, "\n") {
		line := raw
		if i := strings.IndexAny(line, ";#"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		// Leading labels (several allowed).
		for {
			i := strings.Index(line, ":")
			if i < 0 {
				break
			}
			label := strings.TrimSpace(line[:i])
			if !validLabel(label) {
				return nil, fmt.Errorf("iss: line %d: bad label %q", lineNo+1, label)
			}
			if _, dup := labels[label]; dup {
				return nil, fmt.Errorf("iss: line %d: duplicate label %q", lineNo+1, label)
			}
			labels[label] = len(prog)
			line = strings.TrimSpace(line[i+1:])
		}
		if line == "" {
			continue
		}
		instr, target, err := parseInstr(line)
		if err != nil {
			return nil, fmt.Errorf("iss: line %d: %w", lineNo+1, err)
		}
		prog = append(prog, pending{line: lineNo + 1, instr: instr, label: target})
	}

	words := make([]uint32, len(prog))
	for idx, p := range prog {
		if p.label != "" {
			t, ok := labels[p.label]
			if !ok {
				return nil, fmt.Errorf("iss: line %d: undefined label %q", p.line, p.label)
			}
			p.instr.Imm = int32(t)
		}
		w, err := p.instr.Encode()
		if err != nil {
			return nil, fmt.Errorf("iss: line %d: %w", p.line, err)
		}
		words[idx] = w
	}
	return words, nil
}

func validLabel(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || (i > 0 && c >= '0' && c <= '9')) {
			return false
		}
	}
	return true
}

// parseInstr parses one instruction; target is a label to resolve
// later (branches/jumps), "" otherwise.
func parseInstr(line string) (instruction, string, error) {
	fields := strings.Fields(line)
	mnemonic := strings.ToLower(fields[0])
	rest := strings.Join(fields[1:], " ")
	args := splitArgs(rest)

	var op opcode = numOps
	for o, name := range opNames {
		if name == mnemonic {
			op = opcode(o)
			break
		}
	}
	if op == numOps {
		return instruction{}, "", fmt.Errorf("unknown mnemonic %q", mnemonic)
	}

	in := instruction{Op: op}
	need := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("%s wants %d operands, got %d", mnemonic, n, len(args))
		}
		return nil
	}
	switch op {
	case opNop, opHalt, opWfi:
		return in, "", need(0)
	case opLi, opLui:
		if err := need(2); err != nil {
			return in, "", err
		}
		var err error
		if in.Rd, err = reg(args[0]); err != nil {
			return in, "", err
		}
		if in.Imm, err = imm(args[1]); err != nil {
			return in, "", err
		}
		return in, "", nil
	case opMov:
		if err := need(2); err != nil {
			return in, "", err
		}
		var err error
		if in.Rd, err = reg(args[0]); err != nil {
			return in, "", err
		}
		if in.Rs, err = reg(args[1]); err != nil {
			return in, "", err
		}
		return in, "", nil
	case opAdd, opSub, opMul, opAnd, opOr, opXor, opShl, opShr:
		if err := need(3); err != nil {
			return in, "", err
		}
		var err error
		if in.Rd, err = reg(args[0]); err != nil {
			return in, "", err
		}
		if in.Rs, err = reg(args[1]); err != nil {
			return in, "", err
		}
		if in.Rt, err = reg(args[2]); err != nil {
			return in, "", err
		}
		return in, "", nil
	case opAddi:
		if err := need(3); err != nil {
			return in, "", err
		}
		var err error
		if in.Rd, err = reg(args[0]); err != nil {
			return in, "", err
		}
		if in.Rs, err = reg(args[1]); err != nil {
			return in, "", err
		}
		if in.Imm, err = imm(args[2]); err != nil {
			return in, "", err
		}
		return in, "", nil
	case opLd, opSt:
		if err := need(2); err != nil {
			return in, "", err
		}
		r1, err := reg(args[0])
		if err != nil {
			return in, "", err
		}
		base, off, err := memOperand(args[1])
		if err != nil {
			return in, "", err
		}
		in.Rs, in.Imm = base, off
		if op == opLd {
			in.Rd = r1
		} else {
			in.Rt = r1
		}
		return in, "", nil
	case opBeq, opBne, opBlt:
		if err := need(3); err != nil {
			return in, "", err
		}
		var err error
		if in.Rs, err = reg(args[0]); err != nil {
			return in, "", err
		}
		if in.Rt, err = reg(args[1]); err != nil {
			return in, "", err
		}
		return withTarget(in, args[2])
	case opJmp:
		if err := need(1); err != nil {
			return in, "", err
		}
		return withTarget(in, args[0])
	case opOut:
		if err := need(1); err != nil {
			return in, "", err
		}
		var err error
		in.Rs, err = reg(args[0])
		return in, "", err
	case opIn:
		if err := need(1); err != nil {
			return in, "", err
		}
		var err error
		in.Rd, err = reg(args[0])
		return in, "", err
	}
	return in, "", fmt.Errorf("unhandled mnemonic %q", mnemonic)
}

// withTarget resolves a branch/jump operand: a numeric absolute
// instruction index is encoded directly; anything else is a label
// resolved in the second pass.
func withTarget(in instruction, arg string) (instruction, string, error) {
	if n, err := imm(arg); err == nil {
		in.Imm = n
		return in, "", nil
	}
	return in, arg, nil
}

func splitArgs(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

func reg(s string) (uint8, error) {
	if len(s) < 2 || (s[0] != 'r' && s[0] != 'R') {
		return 0, fmt.Errorf("bad register %q", s)
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n < 0 || n > 15 {
		return 0, fmt.Errorf("bad register %q", s)
	}
	return uint8(n), nil
}

func imm(s string) (int32, error) {
	n, err := strconv.ParseInt(strings.ReplaceAll(s, "_", ""), 0, 32)
	if err != nil {
		return 0, fmt.Errorf("bad immediate %q", s)
	}
	if n > immMax || n < immMin {
		return 0, fmt.Errorf("immediate %d out of 12-bit range", n)
	}
	return int32(n), nil
}

// memOperand parses "[rN+off]" / "[rN-off]" / "[rN]".
func memOperand(s string) (uint8, int32, error) {
	if !strings.HasPrefix(s, "[") || !strings.HasSuffix(s, "]") {
		return 0, 0, fmt.Errorf("bad memory operand %q", s)
	}
	body := s[1 : len(s)-1]
	sep := strings.IndexAny(body, "+-")
	if sep < 0 {
		r, err := reg(strings.TrimSpace(body))
		return r, 0, err
	}
	r, err := reg(strings.TrimSpace(body[:sep]))
	if err != nil {
		return 0, 0, err
	}
	off, err := imm(strings.TrimSpace(body[sep:]))
	if err != nil {
		return 0, 0, err
	}
	return r, off, nil
}

// Disassemble renders program words back to text (diagnostics).
func Disassemble(prog []uint32) []string {
	out := make([]string, len(prog))
	for i, w := range prog {
		out[i] = decode(w).String()
	}
	return out
}
