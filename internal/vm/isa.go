// Package vm implements the simulated CPU used by the OMOS reproduction.
//
// The machine is a 64-bit, 16-register load/store architecture with
// fixed-size 12-byte instructions.  It exists so that linked images
// produced by the OMOS server and by the baseline dynamic linker are
// *executable*: lazy-binding stubs, dispatch tables, and interposed
// wrappers are real code whose cost is observable, exactly as in the
// paper's measurements.
//
// Instruction encoding (little endian):
//
//	byte 0      opcode
//	byte 1      ra
//	byte 2      rb
//	byte 3      rc
//	bytes 4-11  imm (uint64)
//
// Because the immediate field is a full 64-bit word at a fixed offset,
// relocations patch it directly: an ABS64 relocation against a code
// symbol always lands at instruction offset+4.
package vm

import (
	"encoding/binary"
	"fmt"
)

// InstSize is the size in bytes of every instruction.
const InstSize = 12

// ImmOffset is the byte offset of the immediate field within an
// instruction; relocations against code patch at instruction start +
// ImmOffset.
const ImmOffset = 4

// NumRegs is the number of general-purpose registers.
const NumRegs = 16

// Register conventions.  These are conventions of the toolchain, not of
// the hardware: the CPU treats all 16 registers uniformly except that
// PUSH/POP/CALL/RET use SP.
const (
	RegRet  = 0  // R0: return value
	RegArg0 = 1  // R1..R6: arguments
	RegArg1 = 2  //
	RegArg2 = 3  //
	RegArg3 = 4  //
	RegArg4 = 5  //
	RegArg5 = 6  //
	RegTmp0 = 10 // caller-saved scratch
	RegIdx  = 11 // R11: PLT relocation index (dynamic linking convention)
	RegLnk  = 12 // R12: resolved-target scratch used by lazy binding
	RegBase = 13 // R13: optional base register
	RegFP   = 14 // R14: frame pointer
	RegSP   = 15 // R15: stack pointer
)

// Op is an instruction opcode.
type Op uint8

// Opcodes.  The comment gives the operands each uses.
const (
	HALT Op = iota // stop the CPU
	NOP
	MOVI // ra <- imm
	MOV  // ra <- rb
	ADD  // ra <- rb + rc
	SUB  // ra <- rb - rc
	MUL  // ra <- rb * rc
	DIV  // ra <- rb / rc (signed; div by zero faults)
	MOD  // ra <- rb % rc (signed)
	AND  // ra <- rb & rc
	OR   // ra <- rb | rc
	XOR  // ra <- rb ^ rc
	SHL  // ra <- rb << (rc & 63)
	SHR  // ra <- rb >> (rc & 63) (logical)
	SAR  // ra <- rb >> (rc & 63) (arithmetic)
	NOT  // ra <- ^rb
	NEG  // ra <- -rb
	ADDI // ra <- rb + imm
	MULI // ra <- rb * imm
	SLT  // ra <- 1 if rb < rc (signed) else 0
	SLTU // ra <- 1 if rb < rc (unsigned) else 0
	SEQ  // ra <- 1 if rb == rc else 0

	JMP    // pc <- pc + imm (pc-relative; intra-object jumps need no relocation)
	JMPR   // pc <- ra
	BEQ    // if ra == rb: pc <- pc + imm
	BNE    // if ra != rb: pc <- pc + imm
	BLT    // if ra < rb (signed): pc <- pc + imm
	BGE    // if ra >= rb (signed): pc <- pc + imm
	BLTU   // if ra < rb (unsigned): pc <- pc + imm
	CALL   // push pc+InstSize; pc <- imm
	CALLR  // push pc+InstSize; pc <- ra
	CALLPC // push pc+InstSize; pc <- pc + imm (pc-relative, for PIC)
	RET    // pop pc

	LD  // ra <- mem64[rb + imm]
	ST  // mem64[rb + imm] <- ra
	LD8 // ra <- zx(mem8[rb + imm])
	ST8 // mem8[rb + imm] <- ra (low byte)
	LEA // ra <- imm (alias of MOVI; marks an address materialization)

	LDPC  // ra <- mem64[pc + imm] (pc-relative load, for PIC GOT access)
	LEAPC // ra <- pc + imm (pc-relative address materialization)

	PUSH // push ra
	POP  // pop ra
	SYS  // syscall imm; args R1.., result R0

	opCount // sentinel; must be last
)

var opNames = [...]string{
	HALT: "halt", NOP: "nop", MOVI: "movi", MOV: "mov",
	ADD: "add", SUB: "sub", MUL: "mul", DIV: "div", MOD: "mod",
	AND: "and", OR: "or", XOR: "xor", SHL: "shl", SHR: "shr", SAR: "sar",
	NOT: "not", NEG: "neg", ADDI: "addi", MULI: "muli",
	SLT: "slt", SLTU: "sltu", SEQ: "seq",
	JMP: "jmp", JMPR: "jmpr", BEQ: "beq", BNE: "bne", BLT: "blt",
	BGE: "bge", BLTU: "bltu",
	CALL: "call", CALLR: "callr", CALLPC: "callpc", RET: "ret",
	LD: "ld", ST: "st", LD8: "ld8", ST8: "st8", LEA: "lea",
	LDPC: "ldpc", LEAPC: "leapc",
	PUSH: "push", POP: "pop", SYS: "sys",
}

// String returns the assembler mnemonic for the opcode.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Valid reports whether o is a defined opcode.
func (o Op) Valid() bool { return o < opCount }

// Inst is a decoded instruction.
type Inst struct {
	Op         Op
	Ra, Rb, Rc uint8
	Imm        uint64
}

// Encode appends the 12-byte encoding of the instruction to dst and
// returns the extended slice.
func (in Inst) Encode(dst []byte) []byte {
	var b [InstSize]byte
	b[0] = byte(in.Op)
	b[1] = in.Ra
	b[2] = in.Rb
	b[3] = in.Rc
	binary.LittleEndian.PutUint64(b[4:], in.Imm)
	return append(dst, b[:]...)
}

// Decode decodes one instruction from b, which must hold at least
// InstSize bytes.
func Decode(b []byte) (Inst, error) {
	if len(b) < InstSize {
		return Inst{}, fmt.Errorf("vm: short instruction: %d bytes", len(b))
	}
	in := Inst{
		Op:  Op(b[0]),
		Ra:  b[1],
		Rb:  b[2],
		Rc:  b[3],
		Imm: binary.LittleEndian.Uint64(b[4:]),
	}
	if !in.Op.Valid() {
		return in, fmt.Errorf("vm: invalid opcode %d", b[0])
	}
	if in.Ra >= NumRegs || in.Rb >= NumRegs || in.Rc >= NumRegs {
		return in, fmt.Errorf("vm: register out of range in %s", in.Op)
	}
	return in, nil
}

// String renders the instruction in assembler syntax.
func (in Inst) String() string {
	switch in.Op {
	case HALT, NOP, RET:
		return in.Op.String()
	case MOVI, LEA:
		return fmt.Sprintf("%s r%d, %d", in.Op, in.Ra, int64(in.Imm))
	case LEAPC, LDPC:
		return fmt.Sprintf("%s r%d, %d", in.Op, in.Ra, int64(in.Imm))
	case MOV, NOT, NEG:
		return fmt.Sprintf("%s r%d, r%d", in.Op, in.Ra, in.Rb)
	case ADD, SUB, MUL, DIV, MOD, AND, OR, XOR, SHL, SHR, SAR, SLT, SLTU, SEQ:
		return fmt.Sprintf("%s r%d, r%d, r%d", in.Op, in.Ra, in.Rb, in.Rc)
	case ADDI, MULI:
		return fmt.Sprintf("%s r%d, r%d, %d", in.Op, in.Ra, in.Rb, int64(in.Imm))
	case JMP, CALL, CALLPC:
		return fmt.Sprintf("%s %d", in.Op, int64(in.Imm))
	case JMPR, CALLR, PUSH, POP:
		return fmt.Sprintf("%s r%d", in.Op, in.Ra)
	case BEQ, BNE, BLT, BGE, BLTU:
		return fmt.Sprintf("%s r%d, r%d, %d", in.Op, in.Ra, in.Rb, int64(in.Imm))
	case LD, LD8:
		return fmt.Sprintf("%s r%d, [r%d%+d]", in.Op, in.Ra, in.Rb, int64(in.Imm))
	case ST, ST8:
		return fmt.Sprintf("%s [r%d%+d], r%d", in.Op, in.Rb, int64(in.Imm), in.Ra)
	case SYS:
		return fmt.Sprintf("sys %d", in.Imm)
	}
	return fmt.Sprintf("%s r%d, r%d, r%d, %d", in.Op, in.Ra, in.Rb, in.Rc, in.Imm)
}
