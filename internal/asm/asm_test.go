package asm

import (
	"encoding/binary"
	"testing"

	"omos/internal/obj"
	"omos/internal/vm"
)

const helloSrc = `
; compute 6*7 and halt with result in r0
.text
main:
    movi r1, 6
    movi r2, 7
    mul  r0, r1, r2
    halt
`

func TestAssembleAndRun(t *testing.T) {
	o, err := Assemble("hello.s", helloSrc)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(o.Text); got != 4*vm.InstSize {
		t.Fatalf("text size = %d, want %d", got, 4*vm.InstSize)
	}
	mem := vm.NewFlatMemory(0, 4096)
	copy(mem.Data, o.Text)
	cpu := vm.New(mem, nil)
	cpu.R[vm.RegSP] = 4096
	if err := cpu.Run(100); err != nil {
		t.Fatal(err)
	}
	if cpu.R[0] != 42 {
		t.Fatalf("r0 = %d, want 42", cpu.R[0])
	}
}

func TestLabelsAndBranches(t *testing.T) {
	src := `
.text
main:
    movi r1, 0
    movi r2, 10
    movi r0, 0
.Lloop:
    add r0, r0, r1
    addi r1, r1, 1
    blt r1, r2, .Lloop
    halt
`
	o, err := Assemble("loop.s", src)
	if err != nil {
		t.Fatal(err)
	}
	mem := vm.NewFlatMemory(0, 4096)
	copy(mem.Data, o.Text)
	cpu := vm.New(mem, nil)
	cpu.R[vm.RegSP] = 4096
	if err := cpu.Run(1000); err != nil {
		t.Fatal(err)
	}
	if cpu.R[0] != 45 {
		t.Fatalf("sum = %d, want 45", cpu.R[0])
	}
	// .Lloop should be a local symbol.
	s := o.FindSym(".Lloop")
	if s == nil || s.Bind != obj.BindLocal {
		t.Fatalf("expected local .Lloop symbol, got %+v", s)
	}
}

func TestCallAndData(t *testing.T) {
	src := `
.text
main:
    call double
    halt
double:
    lea r2, =val
    ld  r1, [r2]
    add r0, r1, r1
    ret
.data
val:
    .quad 21
`
	o, err := Assemble("call.s", src)
	if err != nil {
		t.Fatal(err)
	}
	// Expect two relocs: call target and lea =val.
	if len(o.Relocs) != 2 {
		t.Fatalf("relocs = %d, want 2: %v", len(o.Relocs), o.Relocs)
	}
	// Hand-link: text at 0, data right after, stack at top.
	textBase := uint64(0)
	dataBase := uint64(len(o.Text))
	mem := vm.NewFlatMemory(0, 8192)
	copy(mem.Data, o.Text)
	copy(mem.Data[dataBase:], o.Data)
	addrOf := func(name string) uint64 {
		s := o.FindSym(name)
		if s == nil || !s.Defined {
			t.Fatalf("symbol %s undefined", name)
		}
		switch s.Section {
		case obj.SecText:
			return textBase + s.Offset
		default:
			return dataBase + s.Offset
		}
	}
	for _, r := range o.Relocs {
		if r.Kind != obj.RelAbs64 {
			t.Fatalf("unexpected reloc kind %s", r.Kind)
		}
		v := addrOf(r.Symbol) + uint64(r.Addend)
		site := textBase + r.Offset
		if r.Section == obj.SecData {
			site = dataBase + r.Offset
		}
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		copy(mem.Data[site:], b[:])
	}
	cpu := vm.New(mem, nil)
	cpu.R[vm.RegSP] = 8192
	if err := cpu.Run(100); err != nil {
		t.Fatal(err)
	}
	if cpu.R[0] != 42 {
		t.Fatalf("r0 = %d, want 42", cpu.R[0])
	}
}

func TestDirectiveErrors(t *testing.T) {
	cases := []string{
		".text\n.quad", // missing operand -> parsed as empty -> error
		".bogus x",
		".text\nfoo:\nfoo:", // duplicate label
		".text\nmovi r99, 1",
		".text\nbeq r1, r2, nowhere",
		".data\nmovi r1, 2", // instruction outside .text
	}
	for _, src := range cases {
		if _, err := Assemble("bad.s", src); err == nil {
			t.Errorf("Assemble(%q) succeeded, want error", src)
		}
	}
}

func TestStringData(t *testing.T) {
	src := `
.data
msg:
    .asciz "hi\n"
len:
    .quad 3
`
	o, err := Assemble("str.s", src)
	if err != nil {
		t.Fatal(err)
	}
	if string(o.Data[:4]) != "hi\n\x00" {
		t.Fatalf("data = %q", o.Data)
	}
	s := o.FindSym("msg")
	if s.Size != 4 {
		t.Fatalf("msg size = %d, want 4", s.Size)
	}
}
