package link

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"omos/internal/jigsaw"
	"omos/internal/minic"
	"omos/internal/obj"
)

// sameResult asserts that a rebased result is byte- and
// table-identical to a freshly linked one at the same bases.
func sameResult(t *testing.T, got, want *Result) {
	t.Helper()
	if len(got.Image.Segments) != len(want.Image.Segments) {
		t.Fatalf("segment count %d, want %d", len(got.Image.Segments), len(want.Image.Segments))
	}
	for i := range want.Image.Segments {
		g, w := &got.Image.Segments[i], &want.Image.Segments[i]
		if g.Name != w.Name || g.Addr != w.Addr || g.MemSize != w.MemSize || g.Perm != w.Perm {
			t.Fatalf("segment %d header: got %+v want %+v", i,
				[]any{g.Name, g.Addr, g.MemSize, g.Perm}, []any{w.Name, w.Addr, w.MemSize, w.Perm})
		}
		if !bytes.Equal(g.Data, w.Data) {
			for j := range w.Data {
				if g.Data[j] != w.Data[j] {
					t.Fatalf("segment %s differs at offset %#x (VA %#x): got %#x want %#x",
						w.Name, j, w.Addr+uint64(j), g.Data[j], w.Data[j])
				}
			}
			t.Fatalf("segment %s lengths differ: %d vs %d", w.Name, len(g.Data), len(w.Data))
		}
	}
	if got.Image.Entry != want.Image.Entry {
		t.Fatalf("entry %#x, want %#x", got.Image.Entry, want.Image.Entry)
	}
	if !reflect.DeepEqual(got.Image.Syms, want.Image.Syms) {
		t.Fatalf("Syms differ:\n got %v\nwant %v", got.Image.Syms, want.Image.Syms)
	}
	if !reflect.DeepEqual(got.Exports, want.Exports) {
		t.Fatalf("Exports differ:\n got %v\nwant %v", got.Exports, want.Exports)
	}
	if got.GotBase != want.GotBase || got.GotSize != want.GotSize {
		t.Fatalf("got region %#x+%d, want %#x+%d", got.GotBase, got.GotSize, want.GotBase, want.GotSize)
	}
	if !reflect.DeepEqual(got.GotSlots, want.GotSlots) {
		t.Fatalf("GotSlots differ:\n got %v\nwant %v", got.GotSlots, want.GotSlots)
	}
	if !reflect.DeepEqual(got.AbsPatches, want.AbsPatches) {
		t.Fatalf("AbsPatches differ:\n got %v\nwant %v", got.AbsPatches, want.AbsPatches)
	}
	if !reflect.DeepEqual(got.RelPatches, want.RelPatches) {
		t.Fatalf("RelPatches differ:\n got %v\nwant %v", got.RelPatches, want.RelPatches)
	}
	if !reflect.DeepEqual(got.Unresolved, want.Unresolved) {
		t.Fatalf("Unresolved differ:\n got %v\nwant %v", got.Unresolved, want.Unresolved)
	}
	if got.TextBase != want.TextBase || got.DataBase != want.DataBase ||
		got.TextSize != want.TextSize || got.DataSize != want.DataSize || got.BSSSize != want.BSSSize {
		t.Fatalf("extent mismatch: got %#x/%#x %d/%d/%d want %#x/%#x %d/%d/%d",
			got.TextBase, got.DataBase, got.TextSize, got.DataSize, got.BSSSize,
			want.TextBase, want.DataBase, want.TextSize, want.DataSize, want.BSSSize)
	}
}

// rebaseAgainstFresh links m at oldOpts, rebases to the new bases, and
// checks the slid image against a fresh link there.
func rebaseAgainstFresh(t *testing.T, m *jigsaw.Module, opts Options, newText, newData uint64) *Result {
	t.Helper()
	res, err := Link(m, opts)
	if err != nil {
		t.Fatalf("link at %#x/%#x: %v", opts.TextBase, opts.DataBase, err)
	}
	slid, err := Rebase(res, newText, newData)
	if err != nil {
		t.Fatalf("rebase to %#x/%#x: %v", newText, newData, err)
	}
	fresh := opts
	fresh.TextBase, fresh.DataBase = newText, newData
	want, err := Link(m, fresh)
	if err != nil {
		t.Fatalf("fresh link at %#x/%#x: %v", newText, newData, err)
	}
	sameResult(t, slid, want)
	if slid.Rebased == nil {
		t.Fatal("rebased result missing RebaseInfo")
	}
	return slid
}

// TestRebaseDifferentialAsm exercises every reloc class: absolute
// text and data patches, same-segment and cross-segment pc-relative
// references, GOT slots, externs, and unresolved references.
func TestRebaseDifferentialAsm(t *testing.T) {
	crt0 := mustAsm(t, "crt0.s", crt0Src)
	main := mustAsm(t, "main.s", `
.text
main:
    call helper          ; abs text->text
    lea r2, =tab         ; abs text->data
    ld r3, [r2]
    callpc helper2       ; pc-rel text->text (cross fragment)
    leapc r4, =tab       ; pc-rel text->data
    ldg r5, @counter     ; got slot (internal data target)
    ldg r6, @helper      ; got slot (internal text target)
    ret
.data
tab:
    .quad 7
ptr:
    .quad =helper         ; abs data->text
dptr:
    .quad =tab            ; abs data->data
`)
	lib := mustAsm(t, "lib.s", `
.text
helper:
    movi r0, 1
    ret
helper2:
    movi r0, 2
    ret
.data
counter:
    .quad 0
.bss
scratch:
    .space 64
`)
	m, err := jigsaw.Merge(crt0, main, lib)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Name: "diff", TextBase: 0x100000, DataBase: 0x40000000, Entry: "_start"}
	cases := []struct{ text, data uint64 }{
		{0x200000, 0x50000000}, // both move, different deltas
		{0x100000, 0x60000000}, // data only
		{0x700000, 0x40000000}, // text only
		{0x40000000, 0x100000}, // segments swap sides
		{0x101000, 0x40001000}, // minimal one-page slide
	}
	for _, c := range cases {
		rebaseAgainstFresh(t, m, opts, c.text, c.data)
	}
}

// TestRebaseExterns checks that values bound from Options.Externs stay
// fixed while module-internal values slide.
func TestRebaseExterns(t *testing.T) {
	m := mustAsm(t, "ext.s", `
.text
start:
    call libfn           ; abs extern
    callpc libfn2        ; pc-rel extern (displacement must re-aim)
    lea r2, =local
    ld r3, [r2]
    ret
.data
local:
    .quad 5
eptr:
    .quad =libfn          ; abs extern in data
`)
	opts := Options{
		Name: "ext", TextBase: 0x100000, DataBase: 0x40000000,
		Externs: map[string]uint64{"libfn": 0x0900_0040, "libfn2": 0x0900_0080},
	}
	slid := rebaseAgainstFresh(t, m, opts, 0x300000, 0x50000000)
	for _, p := range slid.AbsPatches {
		if p.Seg == SegExtern && p.Value != 0x0900_0040 {
			t.Fatalf("extern patch value moved: %#x", p.Value)
		}
	}
}

// TestRebaseUnresolved checks the AllowUndefined path: deferred
// reference records slide with their sites.
func TestRebaseUnresolved(t *testing.T) {
	m := mustAsm(t, "und.s", `
.text
start:
    call missing
    ldg r2, @alsomissing
    ret
`)
	opts := Options{Name: "und", TextBase: 0x100000, DataBase: 0x40000000, AllowUndefined: true}
	rebaseAgainstFresh(t, m, opts, 0x900000, 0x48000000)
}

// TestRebaseChained checks that rebasing a rebased result is still
// identical to a fresh link (the server may slide a variant that was
// itself derived by sliding).
func TestRebaseChained(t *testing.T) {
	crt0 := mustAsm(t, "crt0.s", crt0Src)
	main := mustAsm(t, "main.s", `
.text
main:
    lea r2, =v
    ld r0, [r2]
    ret
.data
v:
    .quad 42
`)
	m, err := jigsaw.Merge(crt0, main)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Name: "chain", TextBase: 0x100000, DataBase: 0x40000000, Entry: "_start"}
	res, err := Link(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	hop1, err := Rebase(res, 0x200000, 0x44000000)
	if err != nil {
		t.Fatal(err)
	}
	hop2, err := Rebase(hop1, 0x330000, 0x47000000)
	if err != nil {
		t.Fatal(err)
	}
	fresh := opts
	fresh.TextBase, fresh.DataBase = 0x330000, 0x47000000
	want, err := Link(m, fresh)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, hop2, want)
}

// TestRebaseRuns maps a rebased image and runs it to exit: the slid
// image must behave identically, not just compare equal.
func TestRebaseRuns(t *testing.T) {
	crt0 := mustAsm(t, "crt0.s", crt0Src)
	main := mustAsm(t, "main.s", `
.text
main:
    call getval
    lea r2, =extra
    ld r3, [r2]
    add r0, r0, r3
    ret
.data
extra:
    .quad 2
`)
	lib := mustAsm(t, "lib.s", `
.text
getval:
    movi r0, 40
    ret
`)
	m, err := jigsaw.Merge(crt0, main, lib)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Link(m, defaultOpts("run"))
	if err != nil {
		t.Fatal(err)
	}
	slid, err := Rebase(res, 0x400000, 0x50000000)
	if err != nil {
		t.Fatal(err)
	}
	_, code := runImage(t, slid.Image)
	if code != 42 {
		t.Fatalf("rebased exit code = %d, want 42", code)
	}
}

// randomProgram emits a deterministic pseudo-random mini-C program:
// several functions calling each other, global scalars and arrays,
// and string literals (PIC string refs are cross-segment pc-rels).
func randomProgram(rng *rand.Rand) string {
	var sb bytes.Buffer
	nGlobals := 1 + rng.Intn(4)
	for i := 0; i < nGlobals; i++ {
		fmt.Fprintf(&sb, "int g%d;\n", i)
	}
	fmt.Fprintf(&sb, "int arr[%d];\n", 2+rng.Intn(6))
	nFuncs := 2 + rng.Intn(5)
	for i := nFuncs - 1; i >= 0; i-- {
		fmt.Fprintf(&sb, "int f%d(int x) {\n", i)
		fmt.Fprintf(&sb, "  g%d = g%d + x;\n", rng.Intn(nGlobals), rng.Intn(nGlobals))
		fmt.Fprintf(&sb, "  arr[%d] = x * %d;\n", rng.Intn(2), 1+rng.Intn(9))
		if i < nFuncs-1 {
			fmt.Fprintf(&sb, "  x = x + f%d(x - 1);\n", i+1+rng.Intn(nFuncs-1-i))
		}
		fmt.Fprintf(&sb, "  return x + g%d + arr[%d];\n", rng.Intn(nGlobals), rng.Intn(2))
		fmt.Fprintf(&sb, "}\n")
	}
	fmt.Fprintf(&sb, "int main() { return f0(%d); }\n", rng.Intn(20))
	return sb.String()
}

// TestRebaseDifferentialRandom links randomized mini-C modules (PIC
// and non-PIC) and checks Rebase against a fresh link at several base
// pairs, including unequal text/data deltas.
func TestRebaseDifferentialRandom(t *testing.T) {
	bases := []struct{ text, data uint64 }{
		{0x200000, 0x50000000},
		{0x100000, 0x64000000},
		{0x900000, 0x40000000},
	}
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		src := randomProgram(rng)
		for _, pic := range []bool{false, true} {
			objs, err := minic.Compile(src, minic.Options{Unit: fmt.Sprintf("rnd%d", seed), PIC: pic})
			if err != nil {
				t.Fatalf("seed %d pic=%v: compile: %v\n%s", seed, pic, err, src)
			}
			m, err := jigsaw.NewModule(objs...)
			if err != nil {
				t.Fatalf("seed %d: module: %v", seed, err)
			}
			opts := Options{
				Name: "rnd", TextBase: 0x100000, DataBase: 0x40000000,
				Entry: "main", AllowUndefined: true,
			}
			for _, b := range bases {
				rebaseAgainstFresh(t, m, opts, b.text, b.data)
			}
		}
	}
}

// FuzzRebase feeds arbitrary decodable objects through the
// link-then-rebase pipeline and requires byte identity with a fresh
// link.  Seeds mirror the obj fuzz corpus shapes.
func FuzzRebase(f *testing.F) {
	seed := &obj.Object{
		Name: "seed",
		Text: make([]byte, 24),
		Data: make([]byte, 16),
		Syms: []obj.Symbol{
			{Name: "f", Kind: obj.SymFunc, Defined: true, Section: obj.SecText, Size: 24, Bind: obj.BindGlobal},
			{Name: "d", Kind: obj.SymData, Defined: true, Section: obj.SecData, Size: 8, Bind: obj.BindGlobal},
			{Name: "u"},
		},
		Relocs: []obj.Reloc{
			{Section: obj.SecText, Offset: 4, Symbol: "d", Kind: obj.RelAbs64},
			{Section: obj.SecText, Offset: 12, Symbol: "u", Kind: obj.RelGotSlot},
			{Section: obj.SecData, Offset: 0, Symbol: "f", Kind: obj.RelAbs64},
		},
	}
	if enc, err := obj.Encode(seed); err == nil {
		f.Add(enc)
	}
	seed2 := &obj.Object{
		Name: "seed2",
		Text: make([]byte, 16),
		Syms: []obj.Symbol{
			{Name: "g", Kind: obj.SymFunc, Defined: true, Section: obj.SecText, Size: 16, Bind: obj.BindGlobal},
			{Name: "x"},
		},
		Relocs: []obj.Reloc{{Section: obj.SecText, Offset: 4, Symbol: "x", Kind: obj.RelPC64}},
	}
	if enc, err := obj.Encode(seed2); err == nil {
		f.Add(enc)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		o, err := obj.DecodeAny(data)
		if err != nil {
			return
		}
		m, err := jigsaw.NewModule(o)
		if err != nil {
			return
		}
		opts := Options{Name: "fuzz", TextBase: 0x100000, DataBase: 0x40000000, AllowUndefined: true}
		res, err := Link(m, opts)
		if err != nil {
			return
		}
		slid, err := Rebase(res, 0x300000, 0x52000000)
		if err != nil {
			t.Fatalf("rebase failed on linkable module: %v", err)
		}
		fresh := opts
		fresh.TextBase, fresh.DataBase = 0x300000, 0x52000000
		want, err := Link(m, fresh)
		if err != nil {
			t.Fatalf("fresh link failed where original succeeded: %v", err)
		}
		sameResult(t, slid, want)
	})
}
