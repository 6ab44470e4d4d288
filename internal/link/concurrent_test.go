package link

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"omos/internal/jigsaw"
)

// buildWideModule merges many small fragments with cross-fragment
// calls, absolute data references, and an undefined external, to give
// the parallel passes real cross-fragment structure to preserve.
func buildWideModule(t *testing.T, nfrags int) *jigsaw.Module {
	t.Helper()
	mods := []*jigsaw.Module{mustAsm(t, "crt0.s", crt0Src)}
	var mainSrc bytes.Buffer
	mainSrc.WriteString(".text\nmain:\n    movi r0, 0\n")
	for i := 0; i < nfrags; i++ {
		fmt.Fprintf(&mainSrc, "    call fn%d\n", i)
	}
	mainSrc.WriteString("    ret\n")
	mods = append(mods, mustAsm(t, "main.s", mainSrc.String()))
	for i := 0; i < nfrags; i++ {
		src := fmt.Sprintf(`
.text
fn%[1]d:
    lea r2, =val%[1]d
    ld r3, [r2]
    add r0, r0, r3
    ret
.data
.align 8
val%[1]d:
    .quad %[1]d
`, i)
		mods = append(mods, mustAsm(t, fmt.Sprintf("f%d.s", i), src))
	}
	m, err := jigsaw.Merge(mods...)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestConcurrentLinkDeterminism links the same module with the serial
// passes (Workers=1) and the parallel passes and requires the results
// to be identical in every observable field — segment bytes, symbol
// tables, AbsPatches order, counters.  The parallel merge is in view
// order precisely so this holds.
func TestConcurrentLinkDeterminism(t *testing.T) {
	const nfrags = 23 // not a multiple of the chunk size
	opts := defaultOpts("wide")

	prev := Workers
	defer func() { Workers = prev }()

	Workers = 1
	serial, err := Link(buildWideModule(t, nfrags), opts)
	if err != nil {
		t.Fatal(err)
	}
	Workers = 4
	parallel, err := Link(buildWideModule(t, nfrags), opts)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(serial.Image.Syms, parallel.Image.Syms) {
		t.Fatal("exported symbol tables diverge")
	}
	if !reflect.DeepEqual(serial.Exports, parallel.Exports) {
		t.Fatal("export side tables diverge")
	}
	if !reflect.DeepEqual(serial.AbsPatches, parallel.AbsPatches) {
		t.Fatal("AbsPatches diverge (merge order not view order?)")
	}
	if serial.NumRelocs != parallel.NumRelocs || serial.ExternBinds != parallel.ExternBinds {
		t.Fatalf("counters diverge: relocs %d/%d binds %d/%d",
			serial.NumRelocs, parallel.NumRelocs, serial.ExternBinds, parallel.ExternBinds)
	}
	if len(serial.Image.Segments) != len(parallel.Image.Segments) {
		t.Fatal("segment counts diverge")
	}
	for i := range serial.Image.Segments {
		a, b := &serial.Image.Segments[i], &parallel.Image.Segments[i]
		if !bytes.Equal(a.Data, b.Data) {
			t.Fatalf("segment %s bytes diverge between serial and parallel link", a.Name)
		}
	}

	// The image must also be correct, not merely self-consistent:
	// sum of 0..nfrags-1.
	_, code := runImage(t, parallel.Image)
	if want := uint64(nfrags * (nfrags - 1) / 2); code != want {
		t.Fatalf("exit = %d, want %d", code, want)
	}
}

// TestConcurrentLinkErrors checks error reporting stays deterministic
// under the parallel passes: the first failing fragment in view order
// wins, whatever finishes first in wall-clock.
func TestConcurrentLinkErrors(t *testing.T) {
	crt0 := mustAsm(t, "crt0.s", crt0Src)
	undef := mustAsm(t, "u.s", `
.text
main:
    call missing_fn
    ret
`)
	m, err := jigsaw.Merge(crt0, undef)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Link(m, defaultOpts("bad")); err == nil {
		t.Fatal("undefined symbol accepted")
	}
}
