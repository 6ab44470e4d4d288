package workload

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// The generators below render the workload texts the plain way, with
// fmt and a strconv.Quote'd string per unit.  They are the oracle: every
// text the package renders must match theirs byte for byte, because a
// blueprint's SHA-256 feeds every program key and binding id derived
// from it.

func oracleLibcUnits() map[string]string {
	units := map[string]string{
		"gen":    libcGen,
		"stdio":  libcStdio,
		"string": libcString,
		"stdlib": libcStdlib,
	}
	for _, sec := range []string{"hppa", "net", "quad", "rpc"} {
		units[sec] = oracleFillerUnit(sec, 40)
	}
	return units
}

func oracleLibcBlueprint() string {
	var sb strings.Builder
	sb.WriteString("(constraint-list \"T\" 0x1000000 \"D\" 0x41000000) ; default address constraint\n")
	sb.WriteString("(merge\n")
	units := oracleLibcUnits()
	for _, name := range LibcUnitOrder() {
		fmt.Fprintf(&sb, "  (source \"c\" %s)\n", strconv.Quote(units[name]))
	}
	sb.WriteString(")\n")
	return sb.String()
}

func oracleExtraLibs() []struct{ Name, Source string } {
	return []struct{ Name, Source string }{
		{"liba1", oracleFillerUnit("a1", 40)},
		{"liba2", oracleFillerUnit("a2", 40)},
		{"libm", oracleFillerUnit("m", 36)},
		{"libl", oracleFillerUnit("l", 12)},
		{"libC", oracleFillerUnit("C", 48)},
	}
}

func oracleExtraLibBlueprint(i int, src string) string {
	libBase := uint64(0x0200_0000)
	return fmt.Sprintf("(constraint-list \"T\" %#x \"D\" %#x)\n(merge (source \"c\" %s))",
		libBase+uint64(i)*0x40_0000, 0x4200_0000+uint64(i)*0x40_0000,
		strconv.Quote(src))
}

func oracleLsBlueprint() string {
	return fmt.Sprintf("(merge /lib/crt0.o (source \"c\" %s) /lib/libc)", strconv.Quote(LsSource))
}

func oracleCodegenUnits(p CodegenParams) map[string]string {
	units := make(map[string]string, p.Units+1)
	for u := 0; u < p.Units; u++ {
		units[fmt.Sprintf("cg%02d", u)] = oracleCodegenUnit(u, p)
	}
	units["main"] = oracleCodegenMain(p)
	return units
}

func oracleCodegenBlueprint(cg CodegenParams) string {
	var sb strings.Builder
	sb.WriteString("(merge /lib/crt0.o\n")
	units := oracleCodegenUnits(cg)
	for _, name := range CodegenUnitOrder(cg) {
		fmt.Fprintf(&sb, "  (source \"c\" %s)\n", strconv.Quote(units[name]))
	}
	sb.WriteString("  /lib/libc /lib/liba1 /lib/liba2 /lib/libm /lib/libl /lib/libC)\n")
	return sb.String()
}

func oracleFillerUnit(sec string, n int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("%s_f%d", sec, i)
		switch i % 4 {
		case 0:
			fmt.Fprintf(&sb, `int %s(int x) {
    int acc;
    acc = x * %d + %d;
    if (acc > 1000) { acc = acc %% 997; }
    return acc;
}
`, name, i+3, i*7+1)
		case 1:
			fmt.Fprintf(&sb, `int %s(int x) {
    int i;
    int s;
    s = 0;
    i = 0;
    while (i < %d) { s = s + x + i; i = i + 1; }
    return s;
}
`, name, (i%5)+3)
		case 2:
			fmt.Fprintf(&sb, `int %s(int x) {
    return %s_f%d(x + %d) ^ %d;
}
`, name, sec, i-1, i, i*13)
		default:
			fmt.Fprintf(&sb, `int %s(int x) {
    if (x < 0) { return %s_f%d(-x); }
    return (x << %d) | %d;
}
`, name, sec, i-2, (i%3)+1, i)
		}
	}
	return sb.String()
}

func oracleCodegenUnit(u int, p CodegenParams) string {
	var sb strings.Builder
	// Cold routines reference libc bulk-section routines they never
	// actually call on this input — the shape that makes deferred
	// binding pay off: a large import set, a small called set.
	libcSecs := []string{"hppa", "net", "quad", "rpc"}
	externs := map[string]bool{}
	coldImport := func(r int) string {
		name := fmt.Sprintf("%s_f%d", libcSecs[(u+r)%len(libcSecs)], (u*7+r*3)%40)
		externs[name] = true
		return name
	}
	// Routine 0: the hot chain link.  It does a little arithmetic and
	// calls the next unit's hot routine.
	if u+1 < p.Units {
		fmt.Fprintf(&sb, "extern int cg%02d_r0(int x);\n", u+1)
		fmt.Fprintf(&sb, `int cg%02d_r0(int x) {
    int v;
    v = x * %d + %d;
    v = v ^ (v >> 3);
    return cg%02d_r0(v %% 9973) + %d;
}
`, u, u+2, u*11+1, u+1, u)
	} else {
		fmt.Fprintf(&sb, `int cg%02d_r0(int x) {
    return x %% 9973 + %d;
}
`, u, u)
	}
	// Cold routines: realistic interlinked code that this input never
	// executes (the paper's codegen runs a small dataset through a
	// large binary).
	for r := 1; r < p.FuncsPerUnit; r++ {
		name := fmt.Sprintf("cg%02d_r%d", u, r)
		switch r % 3 {
		case 0:
			fmt.Fprintf(&sb, `int %s(int a, int b) {
    int i;
    int acc;
    acc = a;
    i = 0;
    while (i < b %% %d + 2) {
        acc = acc * 3 + i - (acc >> 2);
        i = i + 1;
    }
    return acc;
}
`, name, r+2)
		case 1:
			fmt.Fprintf(&sb, `int %s(int a, int b) {
    if (a > b) { return cg%02d_r%d(b, a); }
    return a * %d - b + %s(a);
}
`, name, u, r-1, r+5, coldImport(r))
		default:
			fmt.Fprintf(&sb, `int %s(int a, int b) {
    int t;
    t = (a ^ b) + %d;
    if (t < 0) { t = -t; }
    if (t == 12345678) { t = %s(t); }
    return t %% %d + cg%02d_r%d(t, a);
}
`, name, r*17+u, coldImport(r+1), r+11, u, r-1)
		}
	}
	var out strings.Builder
	names := make([]string, 0, len(externs))
	for n := range externs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&out, "extern int %s(int x);\n", n)
	}
	out.WriteString(sb.String())
	return out.String()
}

func oracleCodegenMain(p CodegenParams) string {
	var sb strings.Builder
	sb.WriteString(`
extern int open(char *path, int flags);
extern int close(int fd);
extern int read(int fd, char *buf, int n);
extern int write(int fd, char *buf, int n);
extern int exit(int code);
extern int putstr(int fd, char *s);
extern int putnum(int fd, int v);
extern int putnl(int fd);
extern int atoi(char *s);
extern int cg00_r0(int x);
extern int m_f0(int x);
extern int l_f0(int x);
extern int C_f0(int x);
extern int a1_f0(int x);
extern int a2_f0(int x);

char __cg_inbuf[512];

int read_input(char *path) {
    int fd;
    int n;
    fd = open(path, 0);
    if (fd < 0) { return 0; }
    n = read(fd, __cg_inbuf, 511);
    if (n < 0) { n = 0; }
    __cg_inbuf[n] = 0;
    close(fd);
    return atoi(__cg_inbuf);
}

int main(int argc, char **argv) {
    int seed;
    int i;
    int acc;
    int out;
    seed = read_input("/data/cg/in1");
    seed = seed + read_input("/data/cg/in2");
    seed = seed + read_input("/data/cg/in3");
    acc = 0;
    i = 0;
`)
	fmt.Fprintf(&sb, "    while (i < %d) {\n", p.HotIters)
	sb.WriteString(`        acc = acc + cg00_r0(seed + i);
        acc = acc + m_f0(acc) + l_f0(i) + C_f0(seed);
        acc = acc + a1_f0(acc) + a2_f0(i);
        i = i + 1;
    }
    out = open("/data/cg/out", 1);
    putnum(out, acc);
    putnl(out);
    close(out);
    exit(0);
    return 0;
}
`)
	return sb.String()
}
