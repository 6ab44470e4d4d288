package asm

import (
	"encoding/binary"
	"strconv"
	"strings"

	"omos/internal/obj"
	"omos/internal/vm"
)

// directive handles a "."-prefixed statement.
func (a *assembler) directive(line string, lineno int, sizing bool) error {
	fields := strings.SplitN(line, " ", 2)
	name := fields[0]
	rest := ""
	if len(fields) == 2 {
		rest = strings.TrimSpace(fields[1])
	}
	switch name {
	case ".text":
		a.section = obj.SecText
	case ".data":
		a.section = obj.SecData
	case ".bss":
		a.section = obj.SecBSS
	case ".global", ".globl":
		if rest == "" {
			return a.errf(lineno, "%s requires a symbol name", name)
		}
		a.binds[rest] = obj.BindGlobal
	case ".local":
		if rest == "" {
			return a.errf(lineno, ".local requires a symbol name")
		}
		a.binds[rest] = obj.BindLocal
	case ".quad":
		if a.section == obj.SecBSS {
			return a.errf(lineno, ".quad not allowed in .bss")
		}
		if rest == "" {
			return a.errf(lineno, ".quad requires at least one operand")
		}
		for _, op := range splitOperands(rest) {
			if sym, add, ok := parseSymRef(op); ok {
				if !sizing {
					a.lookup(sym)
					a.relocs = append(a.relocs, obj.Reloc{
						Section: a.section,
						Offset:  a.curOffset(),
						Symbol:  sym,
						Kind:    obj.RelAbs64,
						Addend:  add,
					})
				}
				a.emit(make([]byte, 8))
				continue
			}
			v, ok := parseInt(op)
			if !ok {
				return a.errf(lineno, "bad .quad operand %q", op)
			}
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], uint64(v))
			a.emit(b[:])
		}
	case ".byte":
		if a.section == obj.SecBSS {
			return a.errf(lineno, ".byte not allowed in .bss")
		}
		if rest == "" {
			return a.errf(lineno, ".byte requires at least one operand")
		}
		for _, op := range splitOperands(rest) {
			v, ok := parseInt(op)
			if !ok {
				return a.errf(lineno, "bad .byte operand %q", op)
			}
			a.emit([]byte{byte(v)})
		}
	case ".ascii", ".asciz":
		s, err := strconv.Unquote(rest)
		if err != nil {
			return a.errf(lineno, "bad string %s", rest)
		}
		a.emit([]byte(s))
		if name == ".asciz" {
			a.emit([]byte{0})
		}
	case ".space":
		v, ok := parseInt(rest)
		if !ok || v < 0 {
			return a.errf(lineno, "bad .space operand %q", rest)
		}
		if a.section == obj.SecBSS {
			a.bss += uint64(v)
		} else {
			a.emit(make([]byte, v))
		}
	case ".align":
		v, ok := parseInt(rest)
		if !ok || v <= 0 || v&(v-1) != 0 {
			return a.errf(lineno, "bad .align operand %q", rest)
		}
		for a.curOffset()%uint64(v) != 0 {
			if a.section == obj.SecBSS {
				a.bss++
			} else {
				a.emit([]byte{0})
			}
		}
	default:
		return a.errf(lineno, "unknown directive %s", name)
	}
	return nil
}

// opSpec describes an instruction's operand shape for generic encoding.
type opShape int

const (
	shapeNone    opShape = iota // op
	shapeRa                     // op ra
	shapeRaRb                   // op ra, rb
	shapeRaRbRc                 // op ra, rb, rc
	shapeRaImm                  // op ra, imm|=sym
	shapeRaRbImm                // op ra, rb, imm
	shapeImm                    // op imm
	shapeBranch                 // op ra, rb, label
	shapeJump                   // op label (pc-relative)
	shapeCallAbs                // op sym (absolute, reloc)
	shapeCallPC                 // op sym (pc-relative, reloc if external)
	shapeLoad                   // op ra, [rb+off]
	shapeStore                  // op [rb+off], ra
	shapeGot                    // op ra, @sym
	shapePCRef                  // op ra, =sym  (pc-relative symbol ref)
)

var instTable = map[string]struct {
	op    vm.Op
	shape opShape
}{
	"halt": {vm.HALT, shapeNone},
	"nop":  {vm.NOP, shapeNone},
	"ret":  {vm.RET, shapeNone},
	"movi": {vm.MOVI, shapeRaImm},
	"li":   {vm.MOVI, shapeRaImm},
	"lea":  {vm.LEA, shapeRaImm},
	"mov":  {vm.MOV, shapeRaRb},
	"not":  {vm.NOT, shapeRaRb},
	"neg":  {vm.NEG, shapeRaRb},
	"add":  {vm.ADD, shapeRaRbRc},
	"sub":  {vm.SUB, shapeRaRbRc},
	"mul":  {vm.MUL, shapeRaRbRc},
	"div":  {vm.DIV, shapeRaRbRc},
	"mod":  {vm.MOD, shapeRaRbRc},
	"and":  {vm.AND, shapeRaRbRc},
	"or":   {vm.OR, shapeRaRbRc},
	"xor":  {vm.XOR, shapeRaRbRc},
	"shl":  {vm.SHL, shapeRaRbRc},
	"shr":  {vm.SHR, shapeRaRbRc},
	"sar":  {vm.SAR, shapeRaRbRc},
	"slt":  {vm.SLT, shapeRaRbRc},
	"sltu": {vm.SLTU, shapeRaRbRc},
	"seq":  {vm.SEQ, shapeRaRbRc},
	"addi": {vm.ADDI, shapeRaRbImm},
	"muli": {vm.MULI, shapeRaRbImm},

	"jmp":    {vm.JMP, shapeJump},
	"jmpr":   {vm.JMPR, shapeRa},
	"beq":    {vm.BEQ, shapeBranch},
	"bne":    {vm.BNE, shapeBranch},
	"blt":    {vm.BLT, shapeBranch},
	"bge":    {vm.BGE, shapeBranch},
	"bltu":   {vm.BLTU, shapeBranch},
	"call":   {vm.CALL, shapeCallAbs},
	"callr":  {vm.CALLR, shapeRa},
	"callpc": {vm.CALLPC, shapeCallPC},

	"ld":    {vm.LD, shapeLoad},
	"ld8":   {vm.LD8, shapeLoad},
	"st":    {vm.ST, shapeStore},
	"st8":   {vm.ST8, shapeStore},
	"ldpc":  {vm.LDPC, shapeRaImm},
	"leapc": {vm.LEAPC, shapePCRef},
	"ldg":   {vm.LDPC, shapeGot},

	"push": {vm.PUSH, shapeRa},
	"pop":  {vm.POP, shapeRa},
	"sys":  {vm.SYS, shapeImm},
}

// instruction assembles one instruction statement.
func (a *assembler) instruction(line string, lineno int, sizing bool) error {
	if a.section != obj.SecText {
		return a.errf(lineno, "instruction outside .text")
	}
	mnem := line
	rest := ""
	if i := strings.IndexAny(line, " \t"); i >= 0 {
		mnem, rest = line[:i], strings.TrimSpace(line[i+1:])
	}
	spec, ok := instTable[strings.ToLower(mnem)]
	if !ok {
		return a.errf(lineno, "unknown mnemonic %q", mnem)
	}
	ops := splitOperands(rest)
	in := vm.Inst{Op: spec.op}

	// In the sizing pass we only need the length, which is constant.
	if sizing {
		if err := a.checkArity(spec.shape, ops, lineno); err != nil {
			return err
		}
		a.text = append(a.text, make([]byte, vm.InstSize)...)
		return nil
	}

	instOff := a.curOffset()
	immSite := instOff + vm.ImmOffset

	reg := func(i int) (uint8, error) {
		r, ok := parseReg(ops[i])
		if !ok {
			return 0, a.errf(lineno, "bad register %q", ops[i])
		}
		return r, nil
	}
	var err error
	switch spec.shape {
	case shapeNone:
	case shapeRa:
		if in.Ra, err = reg(0); err != nil {
			return err
		}
	case shapeRaRb:
		if in.Ra, err = reg(0); err != nil {
			return err
		}
		if in.Rb, err = reg(1); err != nil {
			return err
		}
	case shapeRaRbRc:
		if in.Ra, err = reg(0); err != nil {
			return err
		}
		if in.Rb, err = reg(1); err != nil {
			return err
		}
		if in.Rc, err = reg(2); err != nil {
			return err
		}
	case shapeRaImm:
		if in.Ra, err = reg(0); err != nil {
			return err
		}
		if sym, add, ok := parseSymRef(ops[1]); ok {
			a.lookup(sym)
			a.relocs = append(a.relocs, obj.Reloc{
				Section: obj.SecText, Offset: immSite,
				Symbol: sym, Kind: obj.RelAbs64, Addend: add,
			})
		} else if v, ok := parseInt(ops[1]); ok {
			in.Imm = uint64(v)
		} else {
			return a.errf(lineno, "bad immediate %q", ops[1])
		}
	case shapeRaRbImm:
		if in.Ra, err = reg(0); err != nil {
			return err
		}
		if in.Rb, err = reg(1); err != nil {
			return err
		}
		v, ok := parseInt(ops[2])
		if !ok {
			return a.errf(lineno, "bad immediate %q", ops[2])
		}
		in.Imm = uint64(v)
	case shapeImm:
		v, ok := parseInt(ops[0])
		if !ok {
			return a.errf(lineno, "bad immediate %q", ops[0])
		}
		in.Imm = uint64(v)
	case shapeBranch:
		if in.Ra, err = reg(0); err != nil {
			return err
		}
		if in.Rb, err = reg(1); err != nil {
			return err
		}
		off, err := a.localTarget(ops[2], instOff, lineno)
		if err != nil {
			return err
		}
		in.Imm = uint64(off)
	case shapeJump:
		off, err := a.localTarget(ops[0], instOff, lineno)
		if err != nil {
			return err
		}
		in.Imm = uint64(off)
	case shapeCallAbs:
		sym := ops[0]
		a.lookup(sym)
		a.relocs = append(a.relocs, obj.Reloc{
			Section: obj.SecText, Offset: immSite,
			Symbol: sym, Kind: obj.RelAbs64,
		})
	case shapeCallPC:
		sym := ops[0]
		s := a.lookup(sym)
		if s.defined && s.section == obj.SecText {
			// Same-object target: resolve at assembly time, no reloc.
			in.Imm = uint64(s.offset - instOff)
		} else {
			a.relocs = append(a.relocs, obj.Reloc{
				Section: obj.SecText, Offset: immSite,
				Symbol: sym, Kind: obj.RelPC64,
			})
		}
	case shapePCRef:
		if in.Ra, err = reg(0); err != nil {
			return err
		}
		sym, add, ok := parseSymRef(ops[1])
		if !ok {
			return a.errf(lineno, "leapc requires =sym operand, got %q", ops[1])
		}
		a.lookup(sym)
		a.relocs = append(a.relocs, obj.Reloc{
			Section: obj.SecText, Offset: immSite,
			Symbol: sym, Kind: obj.RelPC64, Addend: add,
		})
	case shapeGot:
		if in.Ra, err = reg(0); err != nil {
			return err
		}
		if !strings.HasPrefix(ops[1], "@") {
			return a.errf(lineno, "ldg requires @sym operand, got %q", ops[1])
		}
		sym := ops[1][1:]
		a.lookup(sym)
		a.relocs = append(a.relocs, obj.Reloc{
			Section: obj.SecText, Offset: immSite,
			Symbol: sym, Kind: obj.RelGotSlot,
		})
	case shapeLoad:
		if in.Ra, err = reg(0); err != nil {
			return err
		}
		rb, off, ok := parseMem(ops[1])
		if !ok {
			return a.errf(lineno, "bad memory operand %q", ops[1])
		}
		in.Rb, in.Imm = rb, uint64(off)
	case shapeStore:
		rb, off, ok := parseMem(ops[0])
		if !ok {
			return a.errf(lineno, "bad memory operand %q", ops[0])
		}
		if in.Ra, err = reg(1); err != nil {
			return err
		}
		in.Rb, in.Imm = rb, uint64(off)
	}
	a.text = in.Encode(a.text)
	return nil
}

// localTarget resolves a branch label, which must be defined in this
// object's text section (pass 1 collected all labels).  Returns the
// pc-relative displacement.
func (a *assembler) localTarget(label string, instOff uint64, lineno int) (int64, error) {
	s, ok := a.syms[label]
	if !ok || !s.defined {
		return 0, a.errf(lineno, "branch target %q not defined in this object", label)
	}
	if s.section != obj.SecText {
		return 0, a.errf(lineno, "branch target %q not in .text", label)
	}
	return int64(s.offset) - int64(instOff), nil
}

func (a *assembler) checkArity(shape opShape, ops []string, lineno int) error {
	want := map[opShape]int{
		shapeNone: 0, shapeRa: 1, shapeRaRb: 2, shapeRaRbRc: 3,
		shapeRaImm: 2, shapeRaRbImm: 3, shapeImm: 1, shapeBranch: 3,
		shapeJump: 1, shapeCallAbs: 1, shapeCallPC: 1, shapeLoad: 2,
		shapeStore: 2, shapeGot: 2, shapePCRef: 2,
	}[shape]
	if len(ops) != want {
		return a.errf(lineno, "want %d operands, got %d", want, len(ops))
	}
	return nil
}
