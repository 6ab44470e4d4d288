package main

import (
	"fmt"
	"math/rand"
	"strings"
)

// genShapes is the number of distinct program shapes; a build-cold
// block holds each exactly once.
const genShapes = 16

// genMod keeps every intermediate below 2^40, so mini-C's 64-bit
// arithmetic and Go's agree without any overflow or sign question.
const genMod = 99991

// genProg is one generated mini-C program together with the answer the
// generator itself computed for it — the independent reference its run
// is checked against.
type genProg struct {
	path      string
	source    string
	blueprint string
	wantOut   string
	wantExit  uint64
}

// genProgram builds the n-th never-seen program of a seed.  Its shape
// (n mod 16) fixes the number of functions (4..19) and the loop trip
// count; the seed and n pick the constants.  There is no data-dependent
// branch and the printed sum always has nine digits, so every program of
// a shape costs the same simulated cycles whatever its constants: the
// work per block does not depend on the seed.
func genProgram(seed int64, n int) genProg {
	shape := n % genShapes
	nf := 4 + shape
	trips := 8 + shape
	rng := rand.New(rand.NewSource(seed*7_368_787 + int64(n)))

	type fn struct{ a, b, m int64 }
	fns := make([]fn, nf)
	var src strings.Builder
	src.WriteString("extern int putnum(int fd, int v);\nextern int putnl(int fd);\n")
	for i := range fns {
		f := fn{a: 2 + rng.Int63n(30000), b: rng.Int63n(genMod), m: 50000 + rng.Int63n(40000)}
		fns[i] = f
		fmt.Fprintf(&src, "int gp_f%d(int x) { return (x * %d + %d) %% %d; }\n", i, f.a, f.b, f.m)
	}
	start := int64(n) % genMod
	fmt.Fprintf(&src, "int main(int argc, char **argv) {\n    int acc;\n    int j;\n    acc = %d;\n    j = 0;\n    while (j < %d) {\n", start, trips)
	for i := range fns {
		arg := "acc + j"
		if i%2 == 1 {
			arg = "acc ^ j"
		}
		fmt.Fprintf(&src, "        acc = (acc + gp_f%d(%s)) %% %d;\n", i, arg, genMod)
	}
	src.WriteString("        j = j + 1;\n    }\n    putnum(1, 100000000 + acc);\n    putnl(1);\n    return acc % 200;\n}\n")

	acc := start
	for j := int64(0); j < int64(trips); j++ {
		for i, f := range fns {
			x := acc + j
			if i%2 == 1 {
				x = acc ^ j
			}
			acc = (acc + (x*f.a+f.b)%f.m) % genMod
		}
	}
	return genProg{
		path:      fmt.Sprintf("/bench/gen/p%06d", n),
		source:    src.String(),
		blueprint: fmt.Sprintf("(merge /lib/crt0.o (source \"c\" %q) /lib/libc)", src.String()),
		wantOut:   fmt.Sprintf("%d\n", 100000000+acc),
		wantExit:  uint64(acc % 200),
	}
}
