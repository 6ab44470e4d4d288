package link

import (
	"regexp"
	"strings"
	"testing"

	"omos/internal/jigsaw"
	"omos/internal/osim"
)

func TestUnalignedBasesRejected(t *testing.T) {
	m := mustAsm(t, "m.s", ".text\nf:\n    ret\n")
	if _, err := Link(m, Options{Name: "x", TextBase: 0x100001, DataBase: 0x40000000}); err == nil {
		t.Fatal("unaligned text base accepted")
	}
	if _, err := Link(m, Options{Name: "x", TextBase: 0x100000, DataBase: 0x40000001}); err == nil {
		t.Fatal("unaligned data base accepted")
	}
}

func TestMissingEntrySymbol(t *testing.T) {
	m := mustAsm(t, "m.s", ".text\nf:\n    ret\n")
	_, err := Link(m, Options{Name: "x", TextBase: 0x100000, DataBase: 0x40000000, Entry: "_start"})
	if err == nil || !strings.Contains(err.Error(), "entry symbol") {
		t.Fatalf("err = %v", err)
	}
}

func TestSegmentsArePageAligned(t *testing.T) {
	m := mustAsm(t, "m.s", `
.text
f:
    ret
.data
d:
    .quad 1
.bss
b:
    .space 100
`)
	res, err := Link(m, Options{Name: "x", TextBase: 0x100000, DataBase: 0x40000000})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Image.Segments {
		if s.Addr%osim.PageSize != 0 {
			t.Errorf("segment %s at unaligned %#x", s.Name, s.Addr)
		}
		if s.MemSize%osim.PageSize != 0 {
			t.Errorf("segment %s memsize %d not page aligned", s.Name, s.MemSize)
		}
	}
	// BSS is part of the data segment's MemSize, beyond its Data.
	var data *struct {
		file, mem uint64
	}
	for i := range res.Image.Segments {
		s := &res.Image.Segments[i]
		if s.Name == "data" {
			data = &struct{ file, mem uint64 }{uint64(len(s.Data)), s.MemSize}
		}
	}
	if data == nil || data.mem < data.file+100 {
		t.Fatalf("bss not covered by data memsize: %+v", data)
	}
}

func TestExternsResolveButDoNotOverrideLocal(t *testing.T) {
	m := mustAsm(t, "m.s", `
.text
_start:
    call here
    call away
    mov r1, r0
    sys 1
here:
    movi r0, 1
    ret
`)
	res, err := Link(m, Options{
		Name: "x", TextBase: 0x100000, DataBase: 0x40000000, Entry: "_start",
		Externs: map[string]uint64{
			"here": 0xDEAD000, // must NOT be used: local definition wins
			"away": 0x200000,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ExternBinds != 1 {
		t.Fatalf("extern binds = %d, want 1", res.ExternBinds)
	}
	// The call to here must target the local definition.
	hereAddr := res.Image.Syms["here"]
	found := false
	for _, p := range res.AbsPatches {
		if p.Value == hereAddr {
			found = true
		}
	}
	if !found {
		t.Fatal("local definition not preferred over extern")
	}
}

func TestDuplicateAliasCollision(t *testing.T) {
	a := mustAsm(t, "a.s", ".text\nf:\n    ret\n")
	b := mustAsm(t, "b.s", ".text\ng:\n    ret\n")
	m, err := jigsaw.Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// copy-as f under the name g: collides at namespace level already.
	if _, err := m.CopyAs(regexp.MustCompile("^f$"), "g"); err == nil {
		t.Fatal("collision accepted")
	}
}

func TestLinkEmptyModule(t *testing.T) {
	m, err := jigsaw.NewModule()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Link(m, Options{Name: "empty", TextBase: 0x100000, DataBase: 0x40000000})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Image.Segments) != 0 {
		t.Fatalf("segments = %d", len(res.Image.Segments))
	}
}
