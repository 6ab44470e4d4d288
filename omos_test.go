package omos_test

import (
	"runtime"
	"strings"
	"testing"

	"omos"
	"omos/internal/daemon"
	"omos/internal/osim"
	"omos/internal/server"
	"omos/internal/workload"
)

func newSys(t *testing.T) *omos.System {
	t.Helper()
	sys, err := omos.NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestFacadeQuickstart(t *testing.T) {
	sys := newSys(t)
	err := sys.DefineLibrary("/lib/l", `
(constraint-list "T" 0x1000000 "D" 0x41000000)
(source "c" "int twice(int x) { return x + x; }")
`)
	if err != nil {
		t.Fatal(err)
	}
	err = sys.Define("/bin/p", `
(merge /lib/crt0.o (source "c" "extern int twice(int); int main() { return twice(21); }") /lib/l)
`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run("/bin/p", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.ExitCode != 42 {
		t.Fatalf("exit = %d", res.ExitCode)
	}
	res2, err := sys.RunBootstrap("/bin/p", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res2.ExitCode != 42 {
		t.Fatalf("bootstrap exit = %d", res2.ExitCode)
	}
	if res2.Clock.Sys <= res.Clock.Sys {
		t.Fatal("bootstrap should cost more system time than integrated exec")
	}
}

func TestFacadeCompileAndAssemble(t *testing.T) {
	sys := newSys(t)
	paths, err := sys.CompileC("/obj/u", "util", `
int add3(int a, int b, int c) { return a + b + c; }
int g = 9;
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("paths = %v", paths)
	}
	if err := sys.Assemble("/obj/extra.o", `
.text
seven:
    movi r0, 7
    ret
`); err != nil {
		t.Fatal(err)
	}
	bp := "(merge /lib/crt0.o (source \"c\" \"extern int add3(int,int,int); extern int seven(); extern int g; int main() { return add3(seven(), g, g); }\")"
	for _, p := range paths {
		bp += " " + p
	}
	bp += " /obj/extra.o)"
	if err := sys.Define("/bin/q", bp); err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run("/bin/q", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.ExitCode != 25 {
		t.Fatalf("exit = %d, want 25", res.ExitCode)
	}
}

func TestFacadePartialAndSymbols(t *testing.T) {
	sys := newSys(t)
	if err := sys.DefineLibrary("/lib/m", `(source "c" "int sq(int x) { return x * x; }")`); err != nil {
		t.Fatal(err)
	}
	if err := sys.Define("/bin/r", `
(merge /lib/crt0.o (source "c" "extern int sq(int); int main() { return sq(6); }") /lib/m)
`); err != nil {
		t.Fatal(err)
	}
	if err := sys.BuildPartialExec("/bin/r", "/bin/r.exe"); err != nil {
		t.Fatal(err)
	}
	res, err := sys.RunPartial("/bin/r.exe", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.ExitCode != 36 {
		t.Fatalf("partial exit = %d", res.ExitCode)
	}
	syms, err := sys.Symbols("/lib/m", "sq")
	if err != nil {
		t.Fatal(err)
	}
	if syms["sq"] == 0 {
		t.Fatal("sq bound at 0")
	}
	if _, err := sys.Symbols("/lib/m", "missing"); err == nil {
		t.Fatal("phantom symbol bound")
	}
}

func TestFacadeOutputAndList(t *testing.T) {
	sys := newSys(t)
	err := sys.Define("/bin/hello", `
(merge /lib/crt0.o (source "c" "
char msg[] = \"hey\\n\";
int main() { syscall(2, 1, msg, 4); return 0; }
"))
`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run("/bin/hello", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Output != "hey\n" {
		t.Fatalf("output = %q", res.Output)
	}
	paths := sys.List("/bin")
	if len(paths) != 1 || !strings.HasPrefix(paths[0], "/bin/") {
		t.Fatalf("list = %v", paths)
	}
}

// TestCachedImageFootprint pins what a cached image costs in Go heap:
// building /bin/codegen on a fresh system may grow the live heap by
// less than 1.6 times the bytes the image has to hold, its frames and
// its writable templates.  It was six times while each cached image
// also kept its compiled objects, a second copy of its read-only bytes
// and, through its symbol names, the assembly text it was compiled
// from, and twice while each kept five symbol maps, module-local names
// included, instead of its exports' two.
func TestCachedImageFootprint(t *testing.T) {
	sys := newSys(t)
	if err := daemon.InstallWorkloads(sys, workload.DefaultCodegen()); err != nil {
		t.Fatal(err)
	}
	live := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := live()
	inst, err := sys.Srv.Instantiate("/bin/codegen", nil)
	if err != nil {
		t.Fatal(err)
	}
	growth := live() - before
	var held int64
	for _, in := range append([]*server.Instance{inst}, inst.Libs...) {
		for _, seg := range in.ROSegs {
			held += int64(len(seg.Frames)) * osim.PageSize
		}
		for _, seg := range in.RWSegs {
			held += int64(len(seg.Data))
		}
	}
	ratio := float64(growth) / float64(held)
	t.Logf("live heap +%d KB for %d KB of frames and templates: %.2fx", growth>>10, held>>10, ratio)
	if ratio >= 1.6 {
		t.Fatalf("a cached /bin/codegen keeps %.2fx its frame and template bytes alive, want < 1.6x", ratio)
	}
	runtime.KeepAlive(sys)
}

func TestFaultSymbolization(t *testing.T) {
	sys := newSys(t)
	// A program that jumps through a null pointer inside a named
	// function: the error must name the function.
	err := sys.Define("/bin/crash", `
(merge /lib/crt0.o (source "c" "
int boom(int *p) { return *p; }
int main() { return boom(0); }
"))
`)
	if err != nil {
		t.Fatal(err)
	}
	_, err = sys.Run("/bin/crash", nil)
	if err == nil {
		t.Fatal("crash did not fault")
	}
	if !strings.Contains(err.Error(), "pc in boom") {
		t.Fatalf("fault not symbolized: %v", err)
	}
}
