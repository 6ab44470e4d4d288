// Package workload synthesizes the evaluation workloads of §8: a C
// library with the paper's section structure (Figure 1), the `ls`
// program (plain and -laF), and a codegen-like large application
// (~1000 functions across 32 units, most of them cold).  Everything is
// real mini-C, compiled by internal/minic and executed on the
// simulated machine, so the schemes under comparison run the same
// code.
package workload

import (
	"strconv"
	"strings"
)

// Libc section sources, keyed by unit name.  The sections mirror the
// paper's sample libc meta-object: gen, stdio, string, stdlib plus
// bulk sections (hppa, net, quad, rpc) that give the library realistic
// size — most of their routines are cold in any one program, which is
// exactly the behaviour shared-library page sharing and reordering
// care about.
func LibcUnits() map[string]string {
	units := map[string]string{
		"gen":    libcGen,
		"stdio":  libcStdio,
		"string": libcString,
		"stdlib": libcStdlib,
	}
	for _, sec := range libcBulk {
		units[sec] = fillerUnit(sec, 40)
	}
	return units
}

// libcBulk names libc's bulk sections, in name order.
var libcBulk = []string{"hppa", "net", "quad", "rpc"}

// LibcUnitOrder returns unit names in the paper's merge order.
func LibcUnitOrder() []string {
	return []string{"gen", "stdio", "string", "stdlib", "hppa", "net", "quad", "rpc"}
}

const libcGen = `
int open(char *path, int flags) { return syscall(4, path, flags); }
int close(int fd)               { return syscall(5, fd); }
int read(int fd, char *buf, int n)  { return syscall(3, fd, buf, n); }
int write(int fd, char *buf, int n) { return syscall(2, fd, buf, n); }
int readdir(int fd, char *buf, int max) { return syscall(6, fd, buf, max); }
int stat(char *path, int *st)   { return syscall(7, path, st); }
int exit(int code)              { return syscall(1, code); }
int brk(int addr)               { return syscall(8, addr); }
`

const libcStdio = `
extern int write(int fd, char *buf, int n);
extern int strlen(char *s);

char __putch_buf[2];
char __num_buf[32];

int putstr(int fd, char *s) {
    return write(fd, s, strlen(s));
}

int putch(int fd, int c) {
    __putch_buf[0] = c;
    return write(fd, __putch_buf, 1);
}

int putnum(int fd, int v) {
    int i;
    int neg;
    i = 31;
    neg = 0;
    if (v < 0) { neg = 1; v = -v; }
    if (v == 0) { __num_buf[i] = '0'; i = i - 1; }
    while (v > 0) {
        __num_buf[i] = '0' + v % 10;
        v = v / 10;
        i = i - 1;
    }
    if (neg) { __num_buf[i] = '-'; i = i - 1; }
    return write(fd, &__num_buf[i + 1], 31 - i);
}

int putsp(int fd)  { return putch(fd, ' '); }
int putnl(int fd)  { return putch(fd, '\n'); }
`

const libcString = `
int strlen(char *s) {
    int n;
    n = 0;
    while (s[n]) { n = n + 1; }
    return n;
}

char *strcpy(char *d, char *s) {
    int i;
    i = 0;
    while (s[i]) { d[i] = s[i]; i = i + 1; }
    d[i] = 0;
    return d;
}

char *strcat(char *d, char *s) {
    int i;
    int j;
    i = 0;
    while (d[i]) { i = i + 1; }
    j = 0;
    while (s[j]) { d[i] = s[j]; i = i + 1; j = j + 1; }
    d[i] = 0;
    return d;
}

int strcmp(char *a, char *b) {
    int i;
    i = 0;
    while (a[i] && b[i]) {
        if (a[i] != b[i]) { return a[i] - b[i]; }
        i = i + 1;
    }
    return a[i] - b[i];
}

char *memcpy(char *d, char *s, int n) {
    int i;
    i = 0;
    while (i < n) { d[i] = s[i]; i = i + 1; }
    return d;
}

char *memset(char *d, int c, int n) {
    int i;
    i = 0;
    while (i < n) { d[i] = c; i = i + 1; }
    return d;
}

int strchr_at(char *s, int c) {
    int i;
    i = 0;
    while (s[i]) {
        if (s[i] == c) { return i; }
        i = i + 1;
    }
    return -1;
}
`

const libcStdlib = `
extern int brk(int addr);

int __heap_cur = 0;

char *malloc(int n) {
    int p;
    if (__heap_cur == 0) { __heap_cur = brk(0); }
    p = __heap_cur;
    __heap_cur = __heap_cur + (n + 7) / 8 * 8;
    brk(__heap_cur);
    return p;
}

int free(char *p) { return 0; }

int atoi(char *s) {
    int v;
    int i;
    int neg;
    v = 0;
    i = 0;
    neg = 0;
    if (s[0] == '-') { neg = 1; i = 1; }
    while (s[i] >= '0' && s[i] <= '9') {
        v = v * 10 + (s[i] - '0');
        i = i + 1;
    }
    if (neg) { return -v; }
    return v;
}

int abs(int x) {
    if (x < 0) { return -x; }
    return x;
}

int __rand_seed = 12345;

int srand(int s) { __rand_seed = s; return 0; }

int rand() {
    __rand_seed = __rand_seed * 1103515245 + 12345;
    return (__rand_seed >> 16) & 32767;
}

int min(int a, int b) { if (a < b) { return a; } return b; }
int max(int a, int b) { if (a > b) { return a; } return b; }
`

// fillerUnit generates a bulk libc section: n small interlinked
// routines that give the library realistic text size.  Bodies vary
// deterministically with the index so the section does not compress
// into identical fragments.
func fillerUnit(sec string, n int) string {
	var t text
	writeFiller(&t, sec, n)
	return t.String()
}

func writeFiller(t *text, sec string, n int) {
	for i := 0; i < n; i++ {
		t.s("int ").s(sec).s("_f").d(i)
		switch i % 4 {
		case 0:
			t.s(`(int x) {
    int acc;
    acc = x * `).d(i + 3).s(` + `).d(i*7 + 1).s(`;
    if (acc > 1000) { acc = acc % 997; }
    return acc;
}
`)
		case 1:
			t.s(`(int x) {
    int i;
    int s;
    s = 0;
    i = 0;
    while (i < `).d((i % 5) + 3).s(`) { s = s + x + i; i = i + 1; }
    return s;
}
`)
		case 2:
			t.s(`(int x) {
    return `).s(sec).s("_f").d(i - 1).s(`(x + `).d(i).s(`) ^ `).d(i * 13).s(`;
}
`)
		default:
			t.s(`(int x) {
    if (x < 0) { return `).s(sec).s("_f").d(i - 2).s(`(-x); }
    return (x << `).d((i % 3) + 1).s(`) | `).d(i).s(`;
}
`)
		}
	}
}

// text is the builder the generators write C source into.  Its two
// verbs stand in for fmt's %s and %d, whose formatting would otherwise
// be most of a daemon boot's cost.
type text struct{ strings.Builder }

func (t *text) s(v string) *text {
	t.WriteString(v)
	return t
}

func (t *text) d(v int) *text {
	var b [20]byte
	t.Write(strconv.AppendInt(b[:0], int64(v), 10))
	return t
}

// d2 is %02d.
func (t *text) d2(v int) *text {
	if v >= 0 && v < 10 {
		t.WriteByte('0')
	}
	return t.d(v)
}
