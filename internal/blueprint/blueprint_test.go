package blueprint

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
)

func TestParseFigure1(t *testing.T) {
	src := `
(constraint-list "T" 0x100000 "D" 0x40200000) ; default address constraint
(merge
  /libc/gen /libc/stdio /libc/string /libc/stdlib
  /libc/hppa /libc/net /libc/quad /libc/rpc)
`
	nodes, err := ParseAll(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 2 {
		t.Fatalf("nodes = %d, want 2", len(nodes))
	}
	if nodes[0].Op() != "constraint-list" {
		t.Fatalf("op = %q", nodes[0].Op())
	}
	args := nodes[0].Args()
	if args[1].Kind != KindNumber || args[1].Num != 0x100000 {
		t.Fatalf("addr = %+v", args[1])
	}
	if nodes[1].Op() != "merge" || len(nodes[1].Args()) != 8 {
		t.Fatalf("merge args = %d", len(nodes[1].Args()))
	}
	if nodes[1].Args()[0].Text != "/libc/gen" {
		t.Fatalf("first operand = %q", nodes[1].Args()[0].Text)
	}
}

func TestParseFigure2(t *testing.T) {
	src := `
;;
;; malloc() -> malloc'()
;;
(hide "_REAL_malloc"
  (merge
    (restrict "^_malloc$"
      (copy_as "^_malloc$" "_REAL_malloc"
        (merge /bin/ls.o /lib/libc.o)))
    /lib/test_malloc.o))
`
	n, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if n.Op() != "hide" {
		t.Fatalf("op = %q", n.Op())
	}
	// Round-trip through String and reparse.
	n2, err := Parse(n.String())
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if n2.String() != n.String() {
		t.Fatalf("print/parse not stable:\n%s\n%s", n.String(), n2.String())
	}
}

func TestStringsAndEscapes(t *testing.T) {
	n, err := Parse(`(source "c" "int x = 0;\nchar c = '\\0';\t\"quoted\"")`)
	if err != nil {
		t.Fatal(err)
	}
	got := n.Args()[1].Text
	want := "int x = 0;\nchar c = '\\0';\t\"quoted\""
	if got != want {
		t.Fatalf("string = %q, want %q", got, want)
	}
	// Multi-line string literals are allowed.
	n2, err := Parse("(source \"c\" \"line1\nline2\")")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(n2.Args()[1].Text, "line1\nline2") {
		t.Fatal("multiline string mangled")
	}
}

func TestNumbers(t *testing.T) {
	n, err := Parse(`(list 42 0x10 -7)`)
	if err != nil {
		t.Fatal(err)
	}
	args := n.Args()
	if args[0].Num != 42 || args[1].Num != 16 || args[2].Num != -7 {
		t.Fatalf("numbers = %v %v %v", args[0].Num, args[1].Num, args[2].Num)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"(merge",          // unterminated list
		")",               // stray close
		`(source "c" "un`, // unterminated string
		`(a "\q")`,        // bad escape
		``,                // empty (Parse wants exactly one)
		`(a) (b)`,         // two expressions for Parse
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded", src)
		}
	}
}

func TestComments(t *testing.T) {
	n, err := Parse(`
; leading comment
(merge ; trailing comment
  /a ; another
  /b)
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(n.Args()) != 2 {
		t.Fatalf("args = %d", len(n.Args()))
	}
}

func TestLinePositions(t *testing.T) {
	src := "(merge\n  /a\n  (bogus\n"
	_, err := ParseAll(src)
	if err == nil {
		t.Fatal("want error")
	}
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if pe.Line < 3 {
		t.Fatalf("error line = %d, want >= 3", pe.Line)
	}
}

func TestStringControlCharRoundtrip(t *testing.T) {
	// Regression: control characters in string literals must survive a
	// print/parse round trip (found by FuzzParse).
	n := &Node{Kind: KindList, List: []*Node{
		{Kind: KindSymbol, Text: "source"},
		{Kind: KindString, Text: "c"},
		{Kind: KindString, Text: "ctl:\x1f raw\x07 quote:\" slash:\\ nul:\x00 end"},
	}}
	re, err := Parse(n.String())
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if re.Args()[1].Text != n.List[2].Text {
		t.Fatalf("roundtrip mangled: %q vs %q", re.Args()[1].Text, n.List[2].Text)
	}
}

// Every blueprint writer quotes source text with strconv.Quote or %q;
// the lexer must read back exactly what was quoted.
func TestStringLiteralQuoteRoundTrip(t *testing.T) {
	for _, s := range []string{
		"\r\n",
		"int main() {\r\n\treturn 0;\r\n}\r\n",
		"nul:\x00 del:\x7f bell:\a bs:\b ff:\f vt:\v",
		"invalid utf-8: \xff\xfe",
		"h\u00e9llo \u2028 \U0001f600 \ufeff",
		`quote:" slash:\ tick:'`,
	} {
		if got := string(AppendQuote([]byte("x"), s)); got != "x"+strconv.Quote(s) {
			t.Fatalf("AppendQuote(%q) = %s, want x%s", s, got, strconv.Quote(s))
		}
		for _, quoted := range []string{strconv.Quote(s), fmt.Sprintf("%q", s)} {
			n, err := Parse(`(source "c" ` + quoted + `)`)
			if err != nil {
				t.Fatalf("%s: %v", quoted, err)
			}
			if got := n.Args()[1].Text; got != s {
				t.Fatalf("%s read back as %q, want %q", quoted, got, s)
			}
		}
	}
	// \0 is a NUL byte and never the start of an octal escape.
	n, err := Parse(`(source "c" "\012")`)
	if err != nil || n.Args()[1].Text != "\x0012" {
		t.Fatalf("\\012: %v, %v; want NUL then 12", n, err)
	}
	for _, bad := range []string{`"\1"`, `"\'"`, `"\x4"`, `"\ud800"`, `"\q"`} {
		if _, err := Parse(`(source "c" ` + bad + `)`); err == nil {
			t.Errorf("Parse accepted %s", bad)
		}
	}
}

// TestPlainRunEveryPair: the eight-byte scan stops at exactly the first
// byte strconv.Quote escapes, for every pair of adjacent byte values at
// every position across a word boundary, so no borrow or carry out of
// one byte ever marks a plain byte before it.
func TestPlainRunEveryPair(t *testing.T) {
	plain := func(c byte) bool { return c >= ' ' && c <= '~' && c != '"' && c != '\\' }
	b := []byte("abcdefghijklmnopqrstuvwx")
	for pos := 0; pos+1 < len(b); pos++ {
		for c1 := 0; c1 < 256; c1++ {
			for c2 := 0; c2 < 256; c2++ {
				b[pos], b[pos+1] = byte(c1), byte(c2)
				want := len(b)
				if !plain(byte(c1)) {
					want = pos
				} else if !plain(byte(c2)) {
					want = pos + 1
				}
				if got := plainRun(string(b)); got != want {
					t.Fatalf("plainRun(%q) = %d, want %d", b, got, want)
				}
			}
		}
		b[pos], b[pos+1] = 'a', 'a'
	}
}
