package blueprint

import (
	"strconv"
	"testing"
)

// FuzzParse: the blueprint parser must never panic, and anything it
// accepts must round-trip through String.
func FuzzParse(f *testing.F) {
	f.Add(`(merge /lib/crt0.o /obj/ls.o /lib/libc)`)
	f.Add(`(specialize "lib-constrained" (list "T" 0x1000000) /lib/libc)`)
	f.Add(`(source "c" "int x = 0;\n")`)
	f.Add(`(hide "_REAL_malloc" (merge (restrict "^_malloc$" /a)))`)
	f.Add("((((")
	f.Add(`"unterminated`)
	f.Add("; just a comment")
	f.Fuzz(func(t *testing.T, src string) {
		nodes, err := ParseAll(src)
		if err != nil {
			return
		}
		for _, n := range nodes {
			re, err := Parse(n.String())
			if err != nil {
				t.Fatalf("printed form does not reparse: %q: %v", n.String(), err)
			}
			if re.String() != n.String() {
				t.Fatalf("print/parse unstable: %q vs %q", re.String(), n.String())
			}
		}
	})
}

// FuzzBlueprintString: a source literal quoted the way every blueprint
// writer quotes it reads back as the string that was quoted.
func FuzzBlueprintString(f *testing.F) {
	f.Add("int x = 0;\n")
	f.Add("\r\n")
	f.Add("\x00\x7f\xff")
	f.Add("\u00e9\U0001f600")
	f.Fuzz(func(t *testing.T, s string) {
		n, err := Parse(`(source "c" ` + strconv.Quote(s) + `)`)
		if err != nil {
			t.Fatalf("%q: %v", s, err)
		}
		if got := n.Args()[1].Text; got != s {
			t.Fatalf("read back %q, want %q", got, s)
		}
	})
}
