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

// FuzzAppendQuote: the blueprint quoter appends strconv.Quote's bytes
// exactly, and the literal reads back as the string that was quoted.
func FuzzAppendQuote(f *testing.F) {
	f.Add("int x = 0;\n\tputstr(1, \"a\\b\");\n")
	f.Add("\r\n\x00\x7f\a\b\f\v\x1b")
	f.Add("\xff\xfe invalid \xe2\x80")
	f.Add("\u00e9\U0001f600\u2028\ufeff\ufffd")
	f.Fuzz(func(t *testing.T, s string) {
		got, want := string(AppendQuote(nil, s)), strconv.Quote(s)
		if got != want {
			t.Fatalf("AppendQuote(%q) = %s, want %s", s, got, want)
		}
		n, err := Parse(`(source "c" ` + got + `)`)
		if err != nil {
			t.Fatalf("%q: %v", s, err)
		}
		if got := n.Args()[1].Text; got != s {
			t.Fatalf("read back %q, want %q", got, s)
		}
	})
}
