package link

import (
	"bytes"
	"regexp"
	"testing"

	"omos/internal/jigsaw"
	"omos/internal/obj"
)

// TestPartialLinkRoundtrip: flattening a module to a relocatable
// object and linking the result behaves like linking the module
// directly.
func TestPartialLinkRoundtrip(t *testing.T) {
	crt0 := mustAsm(t, "crt0.s", crt0Src)
	app := mustAsm(t, "app.s", `
.text
main:
    call helper
    addi r0, r0, 2
    ret
helper:
    lea r2, =val
    ld r0, [r2]
    ret
.data
val:
    .quad 40
`)
	m, err := jigsaw.Merge(crt0, app)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := Partial(m, "flat.o")
	if err != nil {
		t.Fatal(err)
	}
	if err := flat.Validate(); err != nil {
		t.Fatal(err)
	}
	fm, err := jigsaw.NewModule(flat)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Link(fm, defaultOpts("from-flat"))
	if err != nil {
		t.Fatal(err)
	}
	_, code := runImage(t, res.Image)
	if code != 42 {
		t.Fatalf("exit = %d, want 42", code)
	}
}

// TestPartialPreservesHiddenBindings: a hide before flattening keeps
// the binding resolvable but not exported, even through the flattened
// object.
func TestPartialPreservesHiddenBindings(t *testing.T) {
	app := mustAsm(t, "app.s", `
.text
main:
    call secret
    ret
secret:
    movi r0, 9
    ret
`)
	hidden := app.Hide(regexp.MustCompile(`^secret$`))
	flat, err := Partial(hidden, "hidden.o")
	if err != nil {
		t.Fatal(err)
	}
	// secret must not be an exported global.
	for i := range flat.Syms {
		s := &flat.Syms[i]
		if s.Name == "secret" && s.Defined && s.Bind == obj.BindGlobal {
			t.Fatal("hidden symbol exported")
		}
	}
	// But the program still links and runs: merge with crt0.
	crt0 := mustAsm(t, "crt0.s", crt0Src)
	fm, err := jigsaw.NewModule(flat)
	if err != nil {
		t.Fatal(err)
	}
	m, err := jigsaw.Merge(crt0, fm)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Link(m, defaultOpts("hidden"))
	if err != nil {
		t.Fatal(err)
	}
	_, code := runImage(t, res.Image)
	if code != 9 {
		t.Fatalf("exit = %d, want 9", code)
	}
	// A later merge may define its own "secret" without conflict.
	other := mustAsm(t, "other.s", `
.text
secret:
    movi r0, 1
    ret
`)
	if _, err := jigsaw.Merge(fm, other); err != nil {
		t.Fatalf("hidden name blocked an unrelated definition: %v", err)
	}
}

// TestPartialKeepsUnresolved: undefined references survive flattening
// for a later link to satisfy.
func TestPartialKeepsUnresolved(t *testing.T) {
	app := mustAsm(t, "app.s", `
.text
main:
    call missing
    ret
`)
	flat, err := Partial(app, "u.o")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for i := range flat.Syms {
		if flat.Syms[i].Name == "missing" && !flat.Syms[i].Defined {
			found = true
		}
	}
	if !found {
		t.Fatal("undefined reference lost")
	}
	lib := mustAsm(t, "lib.s", `
.text
missing:
    movi r0, 4
    ret
`)
	crt0 := mustAsm(t, "crt0.s", crt0Src)
	fm, err := jigsaw.NewModule(flat)
	if err != nil {
		t.Fatal(err)
	}
	m, err := jigsaw.Merge(crt0, fm, lib)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Link(m, defaultOpts("resolved"))
	if err != nil {
		t.Fatal(err)
	}
	_, code := runImage(t, res.Image)
	if code != 4 {
		t.Fatalf("exit = %d, want 4", code)
	}
}

// TestPartialDeterministic: flattening is a function of the module.
// The undefined names a flattened object lists follow name order, so
// every flattening of one module encodes to the same bytes and the
// OFE operators' output does not change from run to run.
func TestPartialDeterministic(t *testing.T) {
	app := mustAsm(t, "app.s", `
.text
main:
    call zeta
    call alpha
    call mid
    call beta
    ret
`)
	var first []byte
	for i := 0; i < 20; i++ {
		flat, err := Partial(app, "d.o")
		if err != nil {
			t.Fatal(err)
		}
		enc, err := obj.Encode(flat)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = enc
		} else if !bytes.Equal(enc, first) {
			t.Fatalf("flattening %d encodes differently from the first", i)
		}
	}
}

func TestMeasureMatchesLink(t *testing.T) {
	crt0 := mustAsm(t, "crt0.s", crt0Src)
	app := mustAsm(t, "app.s", `
.text
main:
    ldg r2, @shared
    ld r0, [r2]
    ret
.data
local:
    .quad 3
.bss
buf:
    .space 100
`)
	data := mustAsm(t, "data.s", `
.data
shared:
    .quad 4
`)
	m, err := jigsaw.Merge(crt0, app, data)
	if err != nil {
		t.Fatal(err)
	}
	textSize, dataSize := Measure(m)
	res, err := Link(m, defaultOpts("measure"))
	if err != nil {
		t.Fatal(err)
	}
	if textSize != res.TextSize {
		t.Fatalf("Measure text = %d, Link text = %d", textSize, res.TextSize)
	}
	wantData := res.DataSize + res.BSSSize
	if dataSize < wantData || dataSize > wantData+16 {
		t.Fatalf("Measure data = %d, Link data+bss = %d", dataSize, wantData)
	}
}
