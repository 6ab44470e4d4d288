package link

import (
	"reflect"
	"regexp"
	"sort"
	"testing"

	"omos/internal/asm"
	"omos/internal/image"
	"omos/internal/jigsaw"
	"omos/internal/obj"
	"omos/internal/osim"
)

func mustAsm(t *testing.T, name, src string) *jigsaw.Module {
	t.Helper()
	o, err := asm.Assemble(name, src)
	if err != nil {
		t.Fatal(err)
	}
	m, err := jigsaw.NewModule(o)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

const crt0Src = `
.text
_start:
    call main
    mov r1, r0
    sys 1          ; exit(r0)
`

// runImage maps the image into a fresh process and runs it to exit.
func runImage(t *testing.T, img *image.Image) (*osim.Process, uint64) {
	t.Helper()
	k := osim.NewKernel()
	p := k.Spawn()
	for i := range img.Segments {
		s := &img.Segments[i]
		if err := p.MapPrivateBytes(s.Addr, s.Data, s.MemSize, s.Perm, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.SetupStack(nil); err != nil {
		t.Fatal(err)
	}
	p.CPU.PC = img.Entry
	code, err := k.RunToExit(p)
	if err != nil {
		t.Fatal(err)
	}
	return p, code
}

func defaultOpts(name string) Options {
	return Options{Name: name, TextBase: 0x100000, DataBase: 0x40000000, Entry: "_start"}
}

func TestLinkAndRunBasic(t *testing.T) {
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
	res, err := Link(m, defaultOpts("basic"))
	if err != nil {
		t.Fatal(err)
	}
	_, code := runImage(t, res.Image)
	if code != 42 {
		t.Fatalf("exit code = %d, want 42", code)
	}
	if len(res.Unresolved) != 0 {
		t.Fatalf("unexpected unresolved: %v", res.Unresolved)
	}
	if res.NumRelocs == 0 {
		t.Fatal("expected relocations to be counted")
	}
}

func TestLinkUndefinedError(t *testing.T) {
	main := mustAsm(t, "main.s", `
.text
main:
    call missing
    ret
`)
	_, err := Link(main, defaultOpts("undef"))
	if err == nil {
		t.Fatal("want undefined-symbol error")
	}
	res, err := Link(main, Options{
		Name: "undef", TextBase: 0x100000, DataBase: 0x40000000,
		AllowUndefined: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Unresolved) != 1 || res.Unresolved[0].Symbol != "missing" {
		t.Fatalf("unresolved = %+v", res.Unresolved)
	}
}

// TestOverrideRebinding verifies the inheritance semantics: override
// rebinds the base module's internal calls unless frozen.
func TestOverrideRebinding(t *testing.T) {
	base := mustAsm(t, "base.s", `
.text
_start:
    call compute
    mov r1, r0
    sys 1
compute:
    call helper
    addi r0, r0, 1
    ret
helper:
    movi r0, 10
    ret
`)
	over := mustAsm(t, "over.s", `
.text
helper:
    movi r0, 100
    ret
`)
	m, err := jigsaw.Override(base, over)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Link(m, defaultOpts("override"))
	if err != nil {
		t.Fatal(err)
	}
	_, code := runImage(t, res.Image)
	if code != 101 {
		t.Fatalf("exit code = %d, want 101 (override must rebind)", code)
	}

	// With helper frozen first, the internal call keeps the original
	// binding while the exported name goes to the override.
	frozen := base.Freeze(regexp.MustCompile(`^helper$`))
	m2, err := jigsaw.Override(frozen, over)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := Link(m2, defaultOpts("frozen"))
	if err != nil {
		t.Fatal(err)
	}
	_, code2 := runImage(t, res2.Image)
	if code2 != 11 {
		t.Fatalf("exit code = %d, want 11 (freeze must pin binding)", code2)
	}
}

// TestInterposition reproduces Figure 2 of the paper: trap calls to
// malloc through a wrapper while preserving the wrapper's access to
// the original under _REAL_malloc.
func TestInterposition(t *testing.T) {
	app := mustAsm(t, "app.s", `
.text
_start:
    call malloc
    mov r1, r0
    sys 1
`)
	libc := mustAsm(t, "libc.s", `
.text
malloc:
    movi r0, 7       ; the "real" malloc returns 7
    ret
`)
	wrapper := mustAsm(t, "test_malloc.s", `
.text
malloc:
    call _REAL_malloc
    muli r0, r0, 6   ; observably wrap the result
    ret
`)
	// (hide "_REAL_malloc" (merge (restrict "^malloc$" (copy_as
	// "^malloc$" "_REAL_malloc" (merge app libc))) wrapper))
	inner, err := jigsaw.Merge(app, libc)
	if err != nil {
		t.Fatal(err)
	}
	copied, err := inner.CopyAs(regexp.MustCompile(`^malloc$`), "_REAL_malloc")
	if err != nil {
		t.Fatal(err)
	}
	restricted := copied.Restrict(regexp.MustCompile(`^malloc$`))
	merged, err := jigsaw.Merge(restricted, wrapper)
	if err != nil {
		t.Fatal(err)
	}
	final := merged.Hide(regexp.MustCompile(`^_REAL_malloc$`))
	res, err := Link(final, defaultOpts("interpose"))
	if err != nil {
		t.Fatal(err)
	}
	if _, exported := res.Image.Syms["_REAL_malloc"]; exported {
		t.Fatal("_REAL_malloc should be hidden")
	}
	_, code := runImage(t, res.Image)
	if code != 42 {
		t.Fatalf("exit code = %d, want 42 (wrapped malloc)", code)
	}
}

// TestRenameReroute reproduces Figure 3: reroute references to a
// forbidden routine to abort.
func TestRenameReroute(t *testing.T) {
	app := mustAsm(t, "app.s", `
.text
_start:
    call undefined_routine
    movi r1, 0
    sys 1
abort:
    movi r1, 86
    sys 1
`)
	m := app.Rename(regexp.MustCompile(`^undefined_routine$`), "abort", jigsaw.RenameRefs)
	res, err := Link(m, defaultOpts("reroute"))
	if err != nil {
		t.Fatal(err)
	}
	_, code := runImage(t, res.Image)
	if code != 86 {
		t.Fatalf("exit code = %d, want 86 (abort)", code)
	}
}

func TestGotLinking(t *testing.T) {
	// PIC-style access: function reads external data through a GOT
	// slot; everything resolved statically here.
	main := mustAsm(t, "main.s", `
.text
_start:
    ldg r2, @shared_var
    ld r1, [r2]
    sys 1
`)
	data := mustAsm(t, "data.s", `
.data
shared_var:
    .quad 55
`)
	m, err := jigsaw.Merge(main, data)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Link(m, defaultOpts("got"))
	if err != nil {
		t.Fatal(err)
	}
	if res.GotSize != 8 {
		t.Fatalf("got size = %d, want 8", res.GotSize)
	}
	_, code := runImage(t, res.Image)
	if code != 55 {
		t.Fatalf("exit code = %d, want 55", code)
	}
}

// A Result keeps exported names only: module-local definitions (an
// object's .local labels, names a module operation hid) bind inside
// the link and leave no trace in its tables.
func TestResultHoldsNoLocalName(t *testing.T) {
	prog := mustAsm(t, "prog.s", `
.text
.local helper
_start:
    call helper
    call shown
    call hidden
    mov r1, r0
    sys 1
helper:
    lea r2, =counter
    ld r0, [r2+0]
    ret
shown:
    movi r0, 1
    ret
hidden:
    movi r0, 2
    ret
.data
.local counter
counter:
    .quad 5
`).Hide(regexp.MustCompile(`^hidden$`))
	res, err := Link(prog, defaultOpts("locals"))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"_start", "shown"}
	var got, gotExports []string
	for name := range res.Image.Syms {
		got = append(got, name)
	}
	for name := range res.Exports {
		gotExports = append(gotExports, name)
	}
	sort.Strings(got)
	sort.Strings(gotExports)
	if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotExports, want) {
		t.Fatalf("symbols %v, exports %v; want exactly %v", got, gotExports, want)
	}
	if e := res.Exports["shown"]; e.Kind != obj.SymFunc || e.Seg != SegText {
		t.Fatalf("shown: %+v, want a text function", e)
	}
	if _, code := runImage(t, res.Image); code != 2 {
		t.Fatalf("exit code = %d, want 2 (the hidden definition, bound inside the link)", code)
	}
}
