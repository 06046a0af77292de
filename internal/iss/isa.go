// Package iss implements an instruction set simulator component for
// Pia. The paper notes that "there is no reason that the component
// can't be an instruction set simulator of a particular processor,
// but we have not yet devoted any effort to either implementing such
// components or adapting an existing ISS to Pia" — this package does
// that work: a small 32-bit RISC (16 registers, load/store, ALU,
// branches, port I/O, wait-for-interrupt) whose interpreter runs as a
// core.Behavior, charges per-instruction time through the
// basic-block timing models, accesses data memory through the
// kernel's synchronous-memory model (so DMA and interrupt handlers
// compose with §2.1.1 consistency), and performs I/O by driving and
// receiving on ordinary Pia nets.
//
// Instructions are 32 bits: op(8) rd(4) rs(4) rt(4) imm(12, signed).
// An assembler (Assemble) turns readable text into program words.
package iss

import "fmt"

// opcode is an opcode.
type opcode uint8

// The instruction set.
const (
	opNop  opcode = iota // nop
	opHalt               // halt
	opLi                 // li rd, imm          rd = imm (sign-extended)
	opLui                // lui rd, imm         rd = imm << 12
	opMov                // mov rd, rs          rd = rs
	opAdd                // add rd, rs, rt      rd = rs + rt
	opSub                // sub rd, rs, rt
	opMul                // mul rd, rs, rt
	opAnd                // and rd, rs, rt
	opOr                 // or rd, rs, rt
	opXor                // xor rd, rs, rt
	opShl                // shl rd, rs, rt      rd = rs << (rt & 31)
	opShr                // shr rd, rs, rt      rd = rs >> (rt & 31)
	opAddi               // addi rd, rs, imm    rd = rs + imm
	opLd                 // ld rd, [rs+imm]     rd = mem[rs+imm]
	opSt                 // st rt, [rs+imm]     mem[rs+imm] = rt
	opBeq                // beq rs, rt, target  if rs == rt: pc = target
	opBne                // bne rs, rt, target
	opBlt                // blt rs, rt, target  (signed)
	opJmp                // jmp target
	opOut                // out rs              send rs on the output port
	opIn                 // in rd               block until a word arrives
	opWfi                // wfi                 wait for the next interrupt
	numOps
)

var opNames = [...]string{
	opNop: "nop", opHalt: "halt", opLi: "li", opLui: "lui", opMov: "mov",
	opAdd: "add", opSub: "sub", opMul: "mul", opAnd: "and", opOr: "or", opXor: "xor",
	opShl: "shl", opShr: "shr", opAddi: "addi", opLd: "ld", opSt: "st",
	opBeq: "beq", opBne: "bne", opBlt: "blt", opJmp: "jmp",
	opOut: "out", opIn: "in", opWfi: "wfi",
}

func (o opcode) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// instruction is one decoded instruction.
type instruction struct {
	Op         opcode
	Rd, Rs, Rt uint8
	Imm        int32 // 12-bit signed as decoded
}

const (
	immBits = 12
	immMax  = 1<<(immBits-1) - 1
	immMin  = -(1 << (immBits - 1))
)

// Encode packs an instruction into a program word.
func (i instruction) Encode() (uint32, error) {
	if i.Rd > 15 || i.Rs > 15 || i.Rt > 15 {
		return 0, fmt.Errorf("iss: register out of range in %v", i)
	}
	if i.Imm > immMax || i.Imm < immMin {
		return 0, fmt.Errorf("iss: immediate %d out of 12-bit range", i.Imm)
	}
	w := uint32(i.Op)<<24 | uint32(i.Rd)<<20 | uint32(i.Rs)<<16 | uint32(i.Rt)<<12
	w |= uint32(i.Imm) & 0xFFF
	return w, nil
}

// decode unpacks a program word.
func decode(w uint32) instruction {
	imm := int32(w & 0xFFF)
	if imm&0x800 != 0 {
		imm -= 1 << immBits // sign extend
	}
	return instruction{
		Op:  opcode(w >> 24),
		Rd:  uint8(w >> 20 & 0xF),
		Rs:  uint8(w >> 16 & 0xF),
		Rt:  uint8(w >> 12 & 0xF),
		Imm: imm,
	}
}

// String disassembles one instruction.
func (i instruction) String() string {
	switch i.Op {
	case opNop, opHalt, opWfi:
		return i.Op.String()
	case opLi, opLui:
		return fmt.Sprintf("%s r%d, %d", i.Op, i.Rd, i.Imm)
	case opMov:
		return fmt.Sprintf("mov r%d, r%d", i.Rd, i.Rs)
	case opAddi:
		return fmt.Sprintf("addi r%d, r%d, %d", i.Rd, i.Rs, i.Imm)
	case opLd:
		return fmt.Sprintf("ld r%d, [r%d%+d]", i.Rd, i.Rs, i.Imm)
	case opSt:
		return fmt.Sprintf("st r%d, [r%d%+d]", i.Rt, i.Rs, i.Imm)
	case opBeq, opBne, opBlt:
		return fmt.Sprintf("%s r%d, r%d, %d", i.Op, i.Rs, i.Rt, i.Imm)
	case opJmp:
		return fmt.Sprintf("jmp %d", i.Imm)
	case opOut:
		return fmt.Sprintf("out r%d", i.Rs)
	case opIn:
		return fmt.Sprintf("in r%d", i.Rd)
	default:
		return fmt.Sprintf("%s r%d, r%d, r%d", i.Op, i.Rd, i.Rs, i.Rt)
	}
}
