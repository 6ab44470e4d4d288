package workload

import (
	"slices"
	"strconv"
	"strings"
)

// LsSource is the mini-C source of the ls workload: list a directory,
// and with any flag argument ("-laF") also stat each entry and print a
// long line — the variant the paper uses to grow the number of system
// calls and library references per invocation.
const LsSource = `
extern int open(char *path, int flags);
extern int close(int fd);
extern int readdir(int fd, char *buf, int max);
extern int stat(char *path, int *st);
extern int exit(int code);
extern int putstr(int fd, char *s);
extern int putch(int fd, int c);
extern int putnum(int fd, int v);
extern int putsp(int fd);
extern int putnl(int fd);
extern int strlen(char *s);
extern char *strcpy(char *d, char *s);
extern char *strcat(char *d, char *s);

char __ls_name[256];
char __ls_path[512];
int __ls_stat[3];

int print_entry(char *dir, char *name, int longmode) {
    if (longmode) {
        strcpy(__ls_path, dir);
        strcat(__ls_path, "/");
        strcat(__ls_path, name);
        if (stat(__ls_path, __ls_stat) < 0) { return -1; }
        if (__ls_stat[1] == 1) { putch(1, 'd'); } else { putch(1, '-'); }
        putnum(1, __ls_stat[2]);
        putsp(1);
        putnum(1, __ls_stat[0]);
        putsp(1);
        putstr(1, name);
        if (__ls_stat[1] == 1) { putch(1, '/'); }
        putnl(1);
        return 0;
    }
    putstr(1, name);
    putnl(1);
    return 0;
}

int main(int argc, char **argv) {
    char *dir;
    int longmode;
    int fd;
    int n;
    longmode = 0;
    dir = argv[argc - 1];
    if (argc > 2) {
        if (argv[1][0] == '-') { longmode = 1; }
    }
    fd = open(dir, 0);
    if (fd < 0) {
        putstr(2, "ls: cannot open ");
        putstr(2, dir);
        putnl(2);
        exit(1);
    }
    n = readdir(fd, __ls_name, 256);
    while (n > 0) {
        print_entry(dir, __ls_name, longmode);
        n = readdir(fd, __ls_name, 256);
    }
    close(fd);
    exit(0);
    return 0;
}
`

// CodegenParams sizes the codegen-like workload.  The defaults match
// the paper's description: ~1000 functions across 32 source units and
// several libraries, with a small hot set (one routine per unit plus
// the I/O path) and a large cold remainder.
type CodegenParams struct {
	Units        int // source units (paper: 32)
	FuncsPerUnit int // routines per unit (32*30 + libc ≈ 1000+)
	HotIters     int // main-loop iterations over the hot chain
}

// DefaultCodegen returns the paper-shaped parameters.
func DefaultCodegen() CodegenParams {
	return CodegenParams{Units: 32, FuncsPerUnit: 30, HotIters: 25}
}

// CodegenUnits generates the codegen source units, keyed
// "cg00".."cgNN" plus "main".  Unit i's routine 0 is hot: main's loop
// enters the chain cg0_r0 -> cg1_r0 -> ... once per iteration, so the
// hot set is scattered one routine per unit — the worst case for the
// default unit-order layout and the best case for trace-driven
// reordering (§4.1).
func CodegenUnits(p CodegenParams) map[string]string {
	units := make(map[string]string, p.Units+1)
	for u := 0; u < p.Units; u++ {
		var t text
		writeCodegenUnit(&t, u, p)
		units[unitName(u)] = t.String()
	}
	var t text
	writeCodegenMain(&t, p)
	units["main"] = t.String()
	return units
}

// CodegenUnitOrder returns unit names in compilation order (main
// last, matching a typical link line).
func CodegenUnitOrder(p CodegenParams) []string {
	out := make([]string, 0, p.Units+1)
	for u := 0; u < p.Units; u++ {
		out = append(out, unitName(u))
	}
	return append(out, "main")
}

func unitName(u int) string {
	var t text
	t.s("cg").d2(u)
	return t.String()
}

// routine writes the name of unit u's routine r.
func (t *text) routine(u, r int) *text { return t.s("cg").d2(u).s("_r").d(r) }

// coldRef is a libc bulk-section routine a cold codegen routine
// references: section sec's routine n.
type coldRef struct {
	sec string
	n   int
}

// coldImport is the bulk routine unit u's cold routines reference
// under index k.
func coldImport(u, k int) coldRef {
	return coldRef{libcBulk[(u+k)%len(libcBulk)], (u*7 + k*3) % 40}
}

// coldIndex is the import index cold routine r references, if any:
// routines r ≡ 1 (mod 3) reference import r, routines r ≡ 2 import r+1.
func coldIndex(r int) (int, bool) {
	switch r % 3 {
	case 1:
		return r, true
	case 2:
		return r + 1, true
	}
	return 0, false
}

// compareRefs orders refs by name, "sec_fn": no section name is a
// prefix of another, so by section, then by n as a decimal string.
func compareRefs(a, b coldRef) int {
	if c := strings.Compare(a.sec, b.sec); c != 0 {
		return c
	}
	return strings.Compare(strconv.Itoa(a.n), strconv.Itoa(b.n))
}

func (t *text) ref(c coldRef) *text { return t.s(c.sec).s("_f").d(c.n) }

func writeCodegenUnit(t *text, u int, p CodegenParams) {
	// Cold routines reference libc bulk-section routines they never
	// actually call on this input — the shape that makes deferred
	// binding pay off: a large import set, a small called set.  The
	// unit declares them first, in name order.
	imports := make([]coldRef, 0, max(p.FuncsPerUnit, 0))
	for r := 1; r < p.FuncsPerUnit; r++ {
		if k, ok := coldIndex(r); ok {
			imports = append(imports, coldImport(u, k))
		}
	}
	slices.SortFunc(imports, compareRefs)
	for _, c := range slices.Compact(imports) {
		t.s("extern int ").ref(c).s("(int x);\n")
	}
	// Routine 0: the hot chain link.  It does a little arithmetic and
	// calls the next unit's hot routine.
	if u+1 < p.Units {
		t.s("extern int ").routine(u+1, 0).s("(int x);\n")
		t.s("int ").routine(u, 0).s(`(int x) {
    int v;
    v = x * `).d(u+2).s(` + `).d(u*11+1).s(`;
    v = v ^ (v >> 3);
    return `).routine(u+1, 0).s(`(v % 9973) + `).d(u).s(`;
}
`)
	} else {
		t.s("int ").routine(u, 0).s(`(int x) {
    return x % 9973 + `).d(u).s(`;
}
`)
	}
	// Cold routines: realistic interlinked code that this input never
	// executes (the paper's codegen runs a small dataset through a
	// large binary).
	for r := 1; r < p.FuncsPerUnit; r++ {
		k, _ := coldIndex(r)
		t.s("int ").routine(u, r)
		switch r % 3 {
		case 0:
			t.s(`(int a, int b) {
    int i;
    int acc;
    acc = a;
    i = 0;
    while (i < b % `).d(r + 2).s(` + 2) {
        acc = acc * 3 + i - (acc >> 2);
        i = i + 1;
    }
    return acc;
}
`)
		case 1:
			t.s(`(int a, int b) {
    if (a > b) { return `).routine(u, r-1).s(`(b, a); }
    return a * `).d(r + 5).s(` - b + `).ref(coldImport(u, k)).s(`(a);
}
`)
		default:
			t.s(`(int a, int b) {
    int t;
    t = (a ^ b) + `).d(r*17+u).s(`;
    if (t < 0) { t = -t; }
    if (t == 12345678) { t = `).ref(coldImport(u, k)).s(`(t); }
    return t % `).d(r+11).s(` + `).routine(u, r-1).s(`(t, a);
}
`)
		}
	}
}

func writeCodegenMain(t *text, p CodegenParams) {
	t.s(`
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
    while (i < `).d(p.HotIters).s(`) {
        acc = acc + cg00_r0(seed + i);
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
}
