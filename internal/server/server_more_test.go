package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"omos/internal/refusal"
)

// TestLibraryUpdateInvalidatesCache: §2.1 "a library fix is instantly
// incorporated into all clients of that library" — redefining the
// library meta-object changes the content hash, so the next
// instantiation rebuilds instead of reusing the stale image.
func TestLibraryUpdateInvalidatesCache(t *testing.T) {
	s := newTestServer(t)
	lib := func(v int) string {
		return `
(constraint-list "T" 0x1000000 "D" 0x41000000)
(source "c" "int answer() { return ` + string(rune('0'+v)) + `0; }")
`
	}
	if err := s.DefineLibrary("/lib/ans", lib(4)); err != nil {
		t.Fatal(err)
	}
	if err := s.Define("/bin/ask", `
(merge /lib/crt0.o (source "c" "extern int answer(); int main() { return answer(); }") /lib/ans)
`); err != nil {
		t.Fatal(err)
	}
	inst1, err := s.Instantiate("/bin/ask", nil)
	if err != nil {
		t.Fatal(err)
	}
	_, code := runInstance(t, s, inst1, nil)
	if code != 40 {
		t.Fatalf("v1 exit = %d", code)
	}

	// Fixing the library re-binds /bin/ask's "answer": without the
	// allow flag the rebind guard refuses, with it the fix lands.
	err = s.DefineLibrary("/lib/ans", lib(7))
	var re *refusal.RebindError
	if !errors.As(err, &re) {
		t.Fatalf("unallowed library update: err = %v, want *refusal.RebindError", err)
	}
	if err := s.DefineLibraryAllow("/lib/ans", lib(7), true); err != nil {
		t.Fatal(err)
	}
	inst2, err := s.Instantiate("/bin/ask", nil)
	if err != nil {
		t.Fatal(err)
	}
	if inst2 == inst1 {
		t.Fatal("stale image served after library update")
	}
	_, code = runInstance(t, s, inst2, nil)
	if code != 70 {
		t.Fatalf("v2 exit = %d (fix not incorporated)", code)
	}
}

func TestOverrideBlueprint(t *testing.T) {
	s := newTestServer(t)
	err := s.Define("/bin/o", `
(merge /lib/crt0.o
  (override
    (source "c" "
int helper() { return 1; }
int main() { return helper() + 10; }
")
    (source "c" "int helper() { return 5; }")))
`)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := s.Instantiate("/bin/o", nil)
	if err != nil {
		t.Fatal(err)
	}
	_, code := runInstance(t, s, inst, nil)
	if code != 15 {
		t.Fatalf("exit = %d, want 15 (override must rebind)", code)
	}
}

func TestFreezeBlueprint(t *testing.T) {
	s := newTestServer(t)
	err := s.Define("/bin/f", `
(merge /lib/crt0.o
  (override
    (freeze "^helper$"
      (source "c" "
int helper() { return 1; }
int main() { return helper() + 10; }
"))
    (source "c" "int helper() { return 5; }")))
`)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := s.Instantiate("/bin/f", nil)
	if err != nil {
		t.Fatal(err)
	}
	_, code := runInstance(t, s, inst, nil)
	if code != 11 {
		t.Fatalf("exit = %d, want 11 (freeze must pin the internal call)", code)
	}
}

func TestSourceAsmLanguage(t *testing.T) {
	s := newTestServer(t)
	err := s.Define("/bin/a", `
(merge /lib/crt0.o (source "asm" "
.text
main:
    movi r0, 33
    ret
"))
`)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := s.Instantiate("/bin/a", nil)
	if err != nil {
		t.Fatal(err)
	}
	_, code := runInstance(t, s, inst, nil)
	if code != 33 {
		t.Fatalf("exit = %d", code)
	}
}

func TestDefineErrors(t *testing.T) {
	s := newTestServer(t)
	cases := map[string]string{
		"empty":            "",
		"syntax":           "(merge",
		"unknown operator": "(frobnicate /x)",
		"two constructors": "(merge /a) (merge /b)",
	}
	for name, src := range cases {
		if err := s.Define("/bin/bad", src); err == nil {
			t.Errorf("%s: Define succeeded", name)
		}
	}
	// Evaluation-time failure: missing reference.
	if err := s.Define("/bin/missing-ref", "(merge /no/such/object)"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Instantiate("/bin/missing-ref", nil); err == nil {
		t.Fatal("instantiate with dangling reference succeeded")
	}
	// A program meta-object is not a library and vice versa.
	if err := s.DefineLibrary("/lib/x", `(source "c" "int f() { return 0; }")`); err != nil {
		t.Fatal(err)
	}
	if err := s.Define("/bin/uses", `(merge /lib/crt0.o (source "c" "int main() { return 0; }") /lib/x)`); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.EvalProgram("/lib/x"); err == nil {
		t.Fatal("EvalProgram on a library succeeded")
	}
}

func TestGetObjectAndRemove(t *testing.T) {
	s := newTestServer(t)
	o, err := s.GetObject("/lib/crt0.o")
	if err != nil || o == nil {
		t.Fatalf("GetObject: %v", err)
	}
	if _, err := s.GetObject("/bin/none"); err == nil {
		t.Fatal("phantom object")
	}
	s.Remove("/lib/crt0.o")
	if _, err := s.GetObject("/lib/crt0.o"); err == nil {
		t.Fatal("removed object still present")
	}
}

func TestInterpositionBlueprint(t *testing.T) {
	// Figure 2 end-to-end through the server's blueprint path.
	s := newTestServer(t)
	err := s.Define("/bin/traced", `
(merge /lib/crt0.o
  (hide "_REAL_malloc"
    (merge
      (restrict "^malloc$"
        (copy_as "^malloc$" "_REAL_malloc"
          (merge
            (source "c" "extern int malloc(int); int main() { return malloc(4); }")
            (source "c" "int malloc(int n) { return 100 + n; }"))))
      (source "c" "
extern int _REAL_malloc(int);
int calls = 0;
int malloc(int n) { calls = calls + 1; return _REAL_malloc(n) + calls; }
"))))
`)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := s.Instantiate("/bin/traced", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, exported := inst.Res.Image.Syms["_REAL_malloc"]; exported {
		t.Fatal("_REAL_malloc leaked")
	}
	_, code := runInstance(t, s, inst, nil)
	if code != 105 {
		t.Fatalf("exit = %d, want 105 (wrapped malloc)", code)
	}
}

func TestExportTableLayout(t *testing.T) {
	s := newTestServer(t)
	if err := s.DefineLibrary("/lib/t", `
(source "c" "
int alpha() { return 1; }
int beta()  { return 2; }
int gval = 5;
")
`); err != nil {
		t.Fatal(err)
	}
	inst, err := s.Instantiate("/lib/t", nil)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := s.ExportTable(inst)
	if err != nil {
		t.Fatal(err)
	}
	// Second call returns the cached table.
	seg2, err := s.ExportTable(inst)
	if err != nil || seg2 != seg {
		t.Fatalf("table not cached: %v", err)
	}
	// Parse the table and verify each function is findable by hash
	// probing, and data is absent.
	raw := make([]byte, len(seg.Frames)*4096)
	for i, f := range seg.Frames {
		copy(raw[i*4096:], f.Data[:])
	}
	nslots := binary.LittleEndian.Uint64(raw)
	if nslots&(nslots-1) != 0 || nslots < 4 {
		t.Fatalf("nslots = %d", nslots)
	}
	lookup := func(name string) (uint64, bool) {
		h := HashName(name)
		if h == 0 {
			h = 1
		}
		idx := h & (nslots - 1)
		for {
			off := 8 + 16*idx
			stored := binary.LittleEndian.Uint64(raw[off:])
			if stored == 0 {
				return 0, false
			}
			if stored == h {
				return binary.LittleEndian.Uint64(raw[off+8:]), true
			}
			idx = (idx + 1) & (nslots - 1)
		}
	}
	for _, fn := range []string{"alpha", "beta"} {
		addr, ok := lookup(fn)
		if !ok {
			t.Fatalf("%s missing from table", fn)
		}
		if want := inst.Res.Image.Syms[fn]; addr != want {
			t.Fatalf("%s = %#x, want %#x", fn, addr, want)
		}
	}
	if _, ok := lookup("gval"); ok {
		t.Fatal("data symbol in function table")
	}
}

func TestPICSourceMode(t *testing.T) {
	k := newTestServer(t)
	k.PICSource = true
	if err := k.Define("/bin/p", `
(merge /lib/crt0.o (source "c" "int main() { return 6; }"))
`); err != nil {
		t.Fatal(err)
	}
	// crt0 uses an absolute call, the PIC client uses pc-relative:
	// both link fine in a fixed image.
	inst, err := k.Instantiate("/bin/p", nil)
	if err != nil {
		t.Fatal(err)
	}
	_, code := runInstance(t, k, inst, nil)
	if code != 6 {
		t.Fatalf("exit = %d", code)
	}
}

func TestListPrefixBoundary(t *testing.T) {
	s := newTestServer(t)
	if err := s.Define("/libx/thing", `(merge /lib/crt0.o)`); err != nil {
		t.Fatal(err)
	}
	got := s.List("/lib")
	for _, p := range got {
		if strings.HasPrefix(p, "/libx") {
			t.Fatalf("prefix match leaked across component boundary: %v", got)
		}
	}
}

// TestBranchTableLibrary reproduces §4.1's escape hatch: a library
// that calls back into client-supplied procedures normally needs a
// per-application image; specialized to dispatch via a branch table,
// one cached image serves every client, with per-process slot
// patching.
func TestBranchTableLibrary(t *testing.T) {
	s := newTestServer(t)
	err := s.DefineLibrary("/lib/cb", `
(constraint-list "T" 0x5000000 "D" 0x45000000)
(source "c" "
extern int app_hook(int x);
int drive(int x) { return app_hook(x) * 10; }
")
`)
	if err != nil {
		t.Fatal(err)
	}
	// Without the specialization, the upward reference is an error.
	if err := s.Define("/bin/plain", `
(merge /lib/crt0.o
  (source "c" "
extern int drive(int);
int app_hook(int x) { return x + 1; }
int main() { return drive(3); }
")
  /lib/cb)
`); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Instantiate("/bin/plain", nil); err == nil {
		t.Fatal("upward reference linked without branch-table specialization")
	}

	// With it, two different applications share the library image.
	appSrc := func(delta int) string {
		return `
(merge /lib/crt0.o
  (source "c" "
extern int drive(int);
int app_hook(int x) { return x + ` + string(rune('0'+delta)) + `; }
int main() { return drive(3); }
")
  (specialize "lib-branch-table" /lib/cb))
`
	}
	if err := s.Define("/bin/a", appSrc(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Define("/bin/b", appSrc(4)); err != nil {
		t.Fatal(err)
	}
	ia, err := s.Instantiate("/bin/a", nil)
	if err != nil {
		t.Fatal(err)
	}
	ib, err := s.Instantiate("/bin/b", nil)
	if err != nil {
		t.Fatal(err)
	}
	if ia.Libs[0] != ib.Libs[0] {
		t.Fatal("branch-table library image not shared between different applications")
	}
	if len(ia.Libs[0].BTSlots) != 1 {
		t.Fatalf("slots = %v", ia.Libs[0].BTSlots)
	}
	_, codeA := runInstance(t, s, ia, nil)
	_, codeB := runInstance(t, s, ib, nil)
	if codeA != 40 { // (3+1)*10
		t.Fatalf("app a exit = %d, want 40", codeA)
	}
	if codeB != 70 { // (3+4)*10
		t.Fatalf("app b exit = %d, want 70", codeB)
	}
}

// TestBranchTableRejectsDataUpwardRefs: the §4.1 shared-variable rule.
func TestBranchTableRejectsDataUpwardRefs(t *testing.T) {
	s := newTestServer(t)
	if err := s.DefineLibrary("/lib/datacb", `
(source "c" "
extern int app_var;
int peek() { return app_var; }
")
`); err != nil {
		t.Fatal(err)
	}
	if err := s.Define("/bin/c", `
(merge /lib/crt0.o
  (source "c" "int app_var = 5; extern int peek(); int main() { return peek(); }")
  (specialize "lib-branch-table" /lib/datacb))
`); err != nil {
		t.Fatal(err)
	}
	_, err := s.Instantiate("/bin/c", nil)
	if err == nil {
		t.Fatal("upward data reference accepted")
	}
	if !strings.Contains(err.Error(), "procedure call") && !strings.Contains(err.Error(), "shared variables") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestConcurrentInstantiation: the server is documented as safe for
// concurrent use; hammer it from several goroutines (run with -race).
func TestConcurrentInstantiation(t *testing.T) {
	s := newTestServer(t)
	if err := s.DefineLibrary("/lib/cc", `(source "c" "int ccv(int x) { return x ^ 3; }")`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		name := "/bin/cc" + string(rune('0'+i))
		src := `(merge /lib/crt0.o (source "c" "extern int ccv(int); int main() { return ccv(` +
			string(rune('0'+i)) + `); }") /lib/cc)`
		if err := s.Define(name, src); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				name := "/bin/cc" + string(rune('0'+(g+i)%4))
				inst, err := s.Instantiate(name, nil)
				if err != nil {
					errs <- err
					return
				}
				if _, ok := inst.Lookup("ccv"); !ok {
					errs <- fmt.Errorf("ccv missing from %s", name)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Exactly one library image despite the concurrency.
	want := map[string]bool{}
	for i := 0; i < 4; i++ {
		inst, err := s.Instantiate("/bin/cc"+string(rune('0'+i)), nil)
		if err != nil {
			t.Fatal(err)
		}
		want[inst.Libs[0].Key] = true
	}
	if len(want) != 1 {
		t.Fatalf("library images = %d, want 1", len(want))
	}
}

func TestInstantiateBlueprintErrorsAndCache(t *testing.T) {
	s := newTestServer(t)
	if _, err := s.InstantiateBlueprint("(merge", nil); err == nil {
		t.Fatal("syntax error accepted")
	}
	if _, err := s.InstantiateBlueprint("(bogus /x)", nil); err == nil {
		t.Fatal("unknown op accepted")
	}
	// The same anonymous blueprint hits the cache on repeat.
	bp := `(merge /lib/crt0.o (source "c" "int main() { return 2; }"))`
	i1, err := s.InstantiateBlueprint(bp, nil)
	if err != nil {
		t.Fatal(err)
	}
	i2, err := s.InstantiateBlueprint(bp, nil)
	if err != nil {
		t.Fatal(err)
	}
	if i1 != i2 {
		t.Fatal("anonymous blueprint not cached")
	}
}

type failingFetcher struct{}

func (failingFetcher) FetchMeta(string) (string, bool, error) {
	return "", false, fmt.Errorf("meta unavailable")
}
func (failingFetcher) FetchObject(string) ([]byte, error) {
	return nil, fmt.Errorf("object unavailable")
}

func TestMountFailuresSurface(t *testing.T) {
	s := newTestServer(t)
	s.Mount("/remote", failingFetcher{})
	if err := s.Define("/bin/r", "(merge /remote/thing)"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Instantiate("/bin/r", nil); err == nil {
		t.Fatal("failing fetcher did not surface")
	}
	s.Unmount("/remote")
	// After unmount the path is simply absent.
	if _, err := s.Instantiate("/bin/r", nil); err == nil {
		t.Fatal("unmounted path resolved")
	}
}

func TestSymbolAt(t *testing.T) {
	s := newTestServer(t)
	if err := s.Define("/bin/s", `
(merge /lib/crt0.o (source "c" "
int alpha() { return 1; }
int main() { return alpha(); }
"))
`); err != nil {
		t.Fatal(err)
	}
	inst, err := s.Instantiate("/bin/s", nil)
	if err != nil {
		t.Fatal(err)
	}
	addr := inst.Res.Image.Syms["alpha"]
	name, off, _, ok := inst.SymbolAt(addr + 12)
	if !ok || name != "alpha" || off != 12 {
		t.Fatalf("SymbolAt = %s+%d ok=%v", name, off, ok)
	}
	if _, _, _, ok := inst.SymbolAt(0xDEAD0000); ok {
		t.Fatal("phantom symbol")
	}
}

// Aliases share an address; SymbolAt names the smallest of them every
// time, not whichever a map iteration meets first.
func TestSymbolAtAliasDeterministic(t *testing.T) {
	s := newTestServer(t)
	if err := s.Define("/bin/alias", `
(merge /lib/crt0.o (copy-as "^f$" "g" (source "c" "
int f() { return 1; }
int main() { return f(); }
")))
`); err != nil {
		t.Fatal(err)
	}
	inst, err := s.Instantiate("/bin/alias", nil)
	if err != nil {
		t.Fatal(err)
	}
	addr, ok := inst.Res.Image.Syms["f"]
	if !ok || inst.Res.Image.Syms["g"] != addr {
		t.Fatalf("f at %#x (%v), g at %#x; want one address", addr, ok, inst.Res.Image.Syms["g"])
	}
	for i := 0; i < 200; i++ {
		if name, off, _, ok := inst.SymbolAt(addr + 4); !ok || name != "f" || off != 4 {
			t.Fatalf("call %d: SymbolAt = %s+%d ok=%v, want f+4", i, name, off, ok)
		}
	}
}

func TestExportMetaAndObject(t *testing.T) {
	s := newTestServer(t)
	if err := s.Define("/bin/m", "(merge /lib/crt0.o)"); err != nil {
		t.Fatal(err)
	}
	src, isLib, err := s.ExportMeta("/bin/m")
	if err != nil || isLib || src == "" {
		t.Fatalf("ExportMeta: %q %v %v", src, isLib, err)
	}
	if _, _, err := s.ExportMeta("/lib/crt0.o"); err == nil {
		t.Fatal("object exported as meta")
	}
	blob, err := s.ExportObject("/lib/crt0.o")
	if err != nil || len(blob) == 0 {
		t.Fatalf("ExportObject: %v", err)
	}
	if _, err := s.ExportObject("/bin/m"); err == nil {
		t.Fatal("meta exported as object")
	}
}

// TestFragmentlessProgramBuildsNothing: a program whose blueprint
// names only a library has no fragments of its own to link.  It is
// refused before its libraries are built, so the failed request leaves
// no image behind.
func TestFragmentlessProgramBuildsNothing(t *testing.T) {
	s := newTestServer(t)
	if err := s.DefineLibrary("/lib/tiny", `(source "c" "int lib_val() { return 40; }")`); err != nil {
		t.Fatal(err)
	}
	if err := s.Define("/bin/empty", `(merge /lib/tiny)`); err != nil {
		t.Fatal(err)
	}
	_, err := s.Instantiate("/bin/empty", nil)
	if err == nil || !strings.Contains(err.Error(), "produced no fragments") {
		t.Fatalf("err = %v, want the program refused for producing no fragments", err)
	}
	if st := s.Stats(); st.ImagesBuilt != 0 || st.CacheMisses != 0 {
		t.Fatalf("%d images built, %d cache misses; want the library left unbuilt", st.ImagesBuilt, st.CacheMisses)
	}
}
