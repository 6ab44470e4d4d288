package vm

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Memory is the CPU's view of an address space.  The osim package
// provides the canonical implementation with paging and cost
// accounting; tests may use a flat implementation.
type Memory interface {
	// Read fills p from successive addresses starting at addr.
	Read(addr uint64, p []byte) error
	// Write stores p at successive addresses starting at addr.
	Write(addr uint64, p []byte) error
	// Fetch reads instruction bytes.  It is distinguished from Read so
	// that implementations can enforce execute permission and account
	// instruction fetch separately.
	Fetch(addr uint64, p []byte) error
}

// SyscallHandler receives SYS instructions.  It may mutate CPU state
// (registers, PC) and memory.  Returning a non-nil error aborts
// execution; returning ErrHalt stops it cleanly.
type SyscallHandler interface {
	Syscall(cpu *CPU, num uint64) error
}

// ErrHalt is returned by Step when the CPU executes HALT, and may be
// returned by a SyscallHandler (e.g. for EXIT) to stop execution
// cleanly.
var ErrHalt = errors.New("vm: halt")

// Fault describes a CPU execution fault (bad opcode, divide by zero,
// memory error).  PC is the address of the faulting instruction.
type Fault struct {
	PC  uint64
	Err error
}

// Error formats the fault with its PC.
func (f *Fault) Error() string { return fmt.Sprintf("vm: fault at pc=%#x: %v", f.PC, f.Err) }

// Unwrap returns the underlying cause.
func (f *Fault) Unwrap() error { return f.Err }

// CPU is a single simulated hardware thread.
type CPU struct {
	R   [NumRegs]uint64
	PC  uint64
	Mem Memory
	Sys SyscallHandler

	// Steps accumulates execution cycles.  Most instructions cost one
	// cycle; memory operations, multiplies/divides, and indirect
	// branches cost more (see opCycles) — the differential that makes
	// absolute addressing measurably cheaper than dispatch-table
	// indirection, as the paper's §4.1 observes.
	Steps uint64
	// Insts counts executed instructions.
	Insts uint64

	instBuf [InstSize]byte
}

// opCycles prices each opcode in cycles.  A zero entry means 1.
var opCycles = [opCount]uint64{
	LD: 2, ST: 2, LD8: 2, ST8: 2, LDPC: 2,
	PUSH: 2, POP: 2,
	MUL: 3, MULI: 3, DIV: 12, MOD: 12,
	// Indirect branches: pipeline-hostile then, mispredicted now.
	JMPR: 6, CALLR: 7, RET: 2, CALL: 2, CALLPC: 2,
}

// CyclesOf returns the cycle cost of an opcode.
func CyclesOf(op Op) uint64 {
	if int(op) < len(opCycles) && opCycles[op] != 0 {
		return opCycles[op]
	}
	return 1
}

// New returns a CPU executing from mem with the given syscall handler.
func New(mem Memory, sys SyscallHandler) *CPU {
	return &CPU{Mem: mem, Sys: sys}
}

// fault wraps err with the current PC.
func (c *CPU) fault(err error) error { return &Fault{PC: c.PC, Err: err} }

// Step executes a single instruction.  It returns ErrHalt on HALT.
func (c *CPU) Step() error {
	if err := c.Mem.Fetch(c.PC, c.instBuf[:]); err != nil {
		return c.fault(err)
	}
	in, err := Decode(c.instBuf[:])
	if err != nil {
		return c.fault(err)
	}
	c.Steps += CyclesOf(in.Op)
	c.Insts++
	next := c.PC + InstSize
	switch in.Op {
	case HALT:
		return ErrHalt
	case NOP:
	case MOVI, LEA:
		c.R[in.Ra] = in.Imm
	case MOV:
		c.R[in.Ra] = c.R[in.Rb]
	case ADD:
		c.R[in.Ra] = c.R[in.Rb] + c.R[in.Rc]
	case SUB:
		c.R[in.Ra] = c.R[in.Rb] - c.R[in.Rc]
	case MUL:
		c.R[in.Ra] = c.R[in.Rb] * c.R[in.Rc]
	case DIV:
		if c.R[in.Rc] == 0 {
			return c.fault(errors.New("divide by zero"))
		}
		c.R[in.Ra] = uint64(int64(c.R[in.Rb]) / int64(c.R[in.Rc]))
	case MOD:
		if c.R[in.Rc] == 0 {
			return c.fault(errors.New("divide by zero"))
		}
		c.R[in.Ra] = uint64(int64(c.R[in.Rb]) % int64(c.R[in.Rc]))
	case AND:
		c.R[in.Ra] = c.R[in.Rb] & c.R[in.Rc]
	case OR:
		c.R[in.Ra] = c.R[in.Rb] | c.R[in.Rc]
	case XOR:
		c.R[in.Ra] = c.R[in.Rb] ^ c.R[in.Rc]
	case SHL:
		c.R[in.Ra] = c.R[in.Rb] << (c.R[in.Rc] & 63)
	case SHR:
		c.R[in.Ra] = c.R[in.Rb] >> (c.R[in.Rc] & 63)
	case SAR:
		c.R[in.Ra] = uint64(int64(c.R[in.Rb]) >> (c.R[in.Rc] & 63))
	case NOT:
		c.R[in.Ra] = ^c.R[in.Rb]
	case NEG:
		c.R[in.Ra] = -c.R[in.Rb]
	case ADDI:
		c.R[in.Ra] = c.R[in.Rb] + in.Imm
	case MULI:
		c.R[in.Ra] = c.R[in.Rb] * in.Imm
	case SLT:
		c.R[in.Ra] = b2u(int64(c.R[in.Rb]) < int64(c.R[in.Rc]))
	case SLTU:
		c.R[in.Ra] = b2u(c.R[in.Rb] < c.R[in.Rc])
	case SEQ:
		c.R[in.Ra] = b2u(c.R[in.Rb] == c.R[in.Rc])

	case JMP:
		next = c.PC + in.Imm
	case JMPR:
		next = c.R[in.Ra]
	case BEQ:
		if c.R[in.Ra] == c.R[in.Rb] {
			next = c.PC + in.Imm
		}
	case BNE:
		if c.R[in.Ra] != c.R[in.Rb] {
			next = c.PC + in.Imm
		}
	case BLT:
		if int64(c.R[in.Ra]) < int64(c.R[in.Rb]) {
			next = c.PC + in.Imm
		}
	case BGE:
		if int64(c.R[in.Ra]) >= int64(c.R[in.Rb]) {
			next = c.PC + in.Imm
		}
	case BLTU:
		if c.R[in.Ra] < c.R[in.Rb] {
			next = c.PC + in.Imm
		}
	case CALL:
		if err := c.push(next); err != nil {
			return c.fault(err)
		}
		next = in.Imm
	case CALLR:
		if err := c.push(next); err != nil {
			return c.fault(err)
		}
		next = c.R[in.Ra]
	case CALLPC:
		if err := c.push(next); err != nil {
			return c.fault(err)
		}
		next = c.PC + in.Imm
	case RET:
		v, err := c.pop()
		if err != nil {
			return c.fault(err)
		}
		next = v

	case LD:
		v, err := c.load64(c.R[in.Rb] + in.Imm)
		if err != nil {
			return c.fault(err)
		}
		c.R[in.Ra] = v
	case ST:
		if err := c.store64(c.R[in.Rb]+in.Imm, c.R[in.Ra]); err != nil {
			return c.fault(err)
		}
	case LD8:
		var b [1]byte
		if err := c.Mem.Read(c.R[in.Rb]+in.Imm, b[:]); err != nil {
			return c.fault(err)
		}
		c.R[in.Ra] = uint64(b[0])
	case ST8:
		b := [1]byte{byte(c.R[in.Ra])}
		if err := c.Mem.Write(c.R[in.Rb]+in.Imm, b[:]); err != nil {
			return c.fault(err)
		}
	case LDPC:
		v, err := c.load64(c.PC + in.Imm)
		if err != nil {
			return c.fault(err)
		}
		c.R[in.Ra] = v
	case LEAPC:
		c.R[in.Ra] = c.PC + in.Imm

	case PUSH:
		if err := c.push(c.R[in.Ra]); err != nil {
			return c.fault(err)
		}
	case POP:
		v, err := c.pop()
		if err != nil {
			return c.fault(err)
		}
		c.R[in.Ra] = v

	case SYS:
		if c.Sys == nil {
			return c.fault(errors.New("no syscall handler"))
		}
		// Advance PC before dispatch so the handler may redirect it
		// (e.g. lazy-binding RESOLVE sets the continuation).
		c.PC = next
		if err := c.Sys.Syscall(c, in.Imm); err != nil {
			return err
		}
		return nil

	default:
		return c.fault(fmt.Errorf("unimplemented opcode %s", in.Op))
	}
	c.PC = next
	return nil
}

// Run executes instructions until HALT, a fault, or maxSteps
// instructions have executed (0 means no limit).  It returns nil on
// clean halt.
func (c *CPU) Run(maxSteps uint64) error {
	for i := uint64(0); maxSteps == 0 || i < maxSteps; i++ {
		if err := c.Step(); err != nil {
			if errors.Is(err, ErrHalt) {
				return nil
			}
			return err
		}
	}
	return fmt.Errorf("vm: step limit %d exceeded at pc=%#x", maxSteps, c.PC)
}

func (c *CPU) push(v uint64) error {
	c.R[RegSP] -= 8
	return c.store64(c.R[RegSP], v)
}

func (c *CPU) pop() (uint64, error) {
	v, err := c.load64(c.R[RegSP])
	if err != nil {
		return 0, err
	}
	c.R[RegSP] += 8
	return v, nil
}

func (c *CPU) load64(addr uint64) (uint64, error) {
	var b [8]byte
	if err := c.Mem.Read(addr, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

func (c *CPU) store64(addr, v uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return c.Mem.Write(addr, b[:])
}

// ReadCString reads a NUL-terminated string of at most max bytes.
func (c *CPU) ReadCString(addr uint64, max int) (string, error) {
	var out []byte
	var b [1]byte
	for i := 0; i < max; i++ {
		if err := c.Mem.Read(addr+uint64(i), b[:]); err != nil {
			return "", err
		}
		if b[0] == 0 {
			return string(out), nil
		}
		out = append(out, b[0])
	}
	return "", fmt.Errorf("vm: unterminated string at %#x", addr)
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
