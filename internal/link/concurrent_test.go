package link

import (
	"bytes"
	"fmt"
	"testing"

	"omos/internal/jigsaw"
)

// buildWideModule merges many small fragments with cross-fragment
// calls and absolute data references.
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

// WideModule and RunImage lend the wide module and the image runner to
// the tests outside the package (shared_test.go).
var (
	WideModule = buildWideModule
	RunImage   = runImage
)

// TestConcurrentLinkErrors checks that a link with an undefined
// reference fails.
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
