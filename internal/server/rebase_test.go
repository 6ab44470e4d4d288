package server

import (
	"testing"
)

// That a slid image is byte for byte the fresh link, for every
// workload image, is the oracle's to prove (oracle_test.go).  The
// tests here pin what the oracle does not look at: which path served
// the request (the rebase counters), that clean pages are physically
// shared, that slid images run, that a warm-restarted variant is as
// good a source as a cached one, and that eviction and the cache-off
// ablation retire rebase sources.

// rebaseProgSrc is the shared construction used by the program-rebase
// tests: programs defined from it at different paths share a content
// key, so only the first placement pays a full relink.
const rebaseProgSrc = `(merge /lib/crt0.o (source "c" "
int tweak = 12;
int bump(int x) { return x + tweak; }
int main() { return bump(30); }
"))`

// TestProgramRebase checks the rebase fast path end to end: a second
// program with the same construction but a different placement is
// served by sliding the first image, not relinking, and the slid
// image runs correctly at its new addresses.
func TestProgramRebase(t *testing.T) {
	s := newTestServer(t)
	if err := s.Define("/bin/a1", rebaseProgSrc); err != nil {
		t.Fatal(err)
	}
	if err := s.Define("/bin/a2", rebaseProgSrc); err != nil {
		t.Fatal(err)
	}
	inst1, err := s.Instantiate("/bin/a1", nil)
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Rebases != 0 || st.RebaseMiss == 0 {
		t.Fatalf("cold build stats: %+v", st)
	}
	built := st.ImagesBuilt

	inst2, err := s.Instantiate("/bin/a2", nil)
	if err != nil {
		t.Fatal(err)
	}
	st = s.Stats()
	if st.Rebases != 1 {
		t.Fatalf("rebases = %d, want 1 (stats %+v)", st.Rebases, st)
	}
	if st.ImagesBuilt != built {
		t.Fatalf("rebase ran a full build: %d -> %d", built, st.ImagesBuilt)
	}
	if st.RebasePatches == 0 {
		t.Fatal("rebase rewrote no patch sites")
	}
	if inst1.ContentKey == "" || inst1.ContentKey != inst2.ContentKey {
		t.Fatalf("content keys: %q vs %q", inst1.ContentKey, inst2.ContentKey)
	}
	if inst1.Res.TextBase == inst2.Res.TextBase {
		t.Fatalf("both programs at %#x; expected distinct placements", inst1.Res.TextBase)
	}

	_, code1 := runInstance(t, s, inst1, nil)
	_, code2 := runInstance(t, s, inst2, nil)
	if code1 != 42 || code2 != 42 {
		t.Fatalf("exits = %d, %d, want 42, 42", code1, code2)
	}

	// A third placement slides again; either earlier variant can serve.
	if err := s.Define("/bin/a3", rebaseProgSrc); err != nil {
		t.Fatal(err)
	}
	inst3, err := s.Instantiate("/bin/a3", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Rebases; got != 2 {
		t.Fatalf("rebases = %d, want 2", got)
	}
	if _, code3 := runInstance(t, s, inst3, nil); code3 != 42 {
		t.Fatalf("exit = %d, want 42", code3)
	}
}

// padLibSrc is a library with two relocation-free text pages followed
// by a page containing a patch site: rebasing it must dirty only the
// last text page and physically share the clean ones.
const padLibSrc = `(source "asm" "
.text
libpad_clean:
    .space 8192
libpad_get:
    lea r2, =libpad_val
    ld r0, [r2]
    ret
.data
libpad_val:
    .quad 35
")`

// TestLibraryRebaseSharesCleanPages forces one library to two
// placements via per-program constraints and checks that the slid
// variant shares every patch-free page with the source.
func TestLibraryRebaseSharesCleanPages(t *testing.T) {
	s := newTestServer(t)
	if err := s.DefineLibrary("/lib/pad", padLibSrc); err != nil {
		t.Fatal(err)
	}
	mainSrc := `(source "c" "
extern int libpad_get();
int main() { return libpad_get() + 7; }
")`
	if err := s.Define("/bin/p1", `(merge /lib/crt0.o `+mainSrc+`
(constrain "T" 0x2000000 "D" 0x42000000 /lib/pad))`); err != nil {
		t.Fatal(err)
	}
	if err := s.Define("/bin/p2", `(merge /lib/crt0.o `+mainSrc+`
(constrain "T" 0x3000000 "D" 0x43000000 /lib/pad))`); err != nil {
		t.Fatal(err)
	}
	inst1, err := s.Instantiate("/bin/p1", nil)
	if err != nil {
		t.Fatal(err)
	}
	inst2, err := s.Instantiate("/bin/p2", nil)
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Rebases != 1 {
		t.Fatalf("rebases = %d, want 1 (the library); stats %+v", st.Rebases, st)
	}
	if st.RebaseSharedPages < 2 {
		t.Fatalf("shared pages = %d, want >= 2 (the .space pages)", st.RebaseSharedPages)
	}
	if st.RebaseDirtyPages == 0 {
		t.Fatal("expected the lea patch site to dirty a page")
	}
	lib1, lib2 := inst1.Libs[0], inst2.Libs[0]
	if lib1.ROSegs[0].Addr == lib2.ROSegs[0].Addr {
		t.Fatalf("both library variants at %#x", lib1.ROSegs[0].Addr)
	}
	// The clean pad pages must be the same physical frames.
	f1, f2 := lib1.ROSegs[0].Frames, lib2.ROSegs[0].Frames
	if f1[0] != f2[0] || f1[1] != f2[1] {
		t.Fatal("pad pages not physically shared between variants")
	}
	if f1[2] == f2[2] {
		t.Fatal("patched page must not be shared")
	}
	for i, inst := range []*Instance{inst1, inst2} {
		if _, code := runInstance(t, s, inst, nil); code != 42 {
			t.Fatalf("prog %d exit = %d, want 42", i+1, code)
		}
	}
}

// TestWarmRestartRebase checks that a restarted daemon can slide
// images it only knows from the persistent store: the v2 records
// carry the patch-site metadata, so a new placement of warm-loaded
// content costs a rebase, not a relink.
func TestWarmRestartRebase(t *testing.T) {
	dir := t.TempDir()

	s1 := newTestServer(t)
	s1.AttachStore(openStore(t, dir, 0))
	if err := s1.Define("/bin/w1", rebaseProgSrc); err != nil {
		t.Fatal(err)
	}
	inst1, err := s1.Instantiate("/bin/w1", nil)
	if err != nil {
		t.Fatal(err)
	}
	base1 := inst1.Res.TextBase
	if err := s1.CloseStore(); err != nil {
		t.Fatal(err)
	}

	s2 := newTestServer(t)
	if n := s2.AttachStore(openStore(t, dir, 0)); n == 0 {
		t.Fatal("warm load reconstructed nothing")
	}
	if err := s2.Define("/bin/w2", rebaseProgSrc); err != nil {
		t.Fatal(err)
	}
	inst2, err := s2.Instantiate("/bin/w2", nil)
	if err != nil {
		t.Fatal(err)
	}
	st := s2.Stats()
	if st.Rebases != 1 {
		t.Fatalf("rebases = %d, want 1 (stats %+v)", st.Rebases, st)
	}
	if st.ImagesBuilt != 0 {
		t.Fatalf("warm restart relinked %d images", st.ImagesBuilt)
	}
	if inst2.Res.TextBase == base1 {
		t.Fatalf("new program reused the restored placement %#x", base1)
	}
	if _, code := runInstance(t, s2, inst2, nil); code != 42 {
		t.Fatalf("exit = %d, want 42", code)
	}
}

// TestRebaseDisabledWithCacheOff checks the ablation path: with the
// cache off every instantiation relinks and the rebase counters stay
// clean of false positives.
func TestRebaseDisabledWithCacheOff(t *testing.T) {
	s := newTestServer(t)
	s.DisableCache = true
	if err := s.Define("/bin/a1", rebaseProgSrc); err != nil {
		t.Fatal(err)
	}
	if err := s.Define("/bin/a2", rebaseProgSrc); err != nil {
		t.Fatal(err)
	}
	i1, err := s.Instantiate("/bin/a1", nil)
	if err != nil {
		t.Fatal(err)
	}
	i2, err := s.Instantiate("/bin/a2", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Rebases; got != 0 {
		t.Fatalf("rebases = %d with cache disabled", got)
	}
	s.ReleaseInstance(i1)
	s.ReleaseInstance(i2)
}

// TestEvictDropsVariant checks that evicting a meta-object's images
// also retires them as rebase sources.
func TestEvictDropsVariant(t *testing.T) {
	s := newTestServer(t)
	if err := s.Define("/bin/a1", rebaseProgSrc); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Instantiate("/bin/a1", nil); err != nil {
		t.Fatal(err)
	}
	if n := s.Evict("/bin/a1"); n != 1 {
		t.Fatalf("evicted %d, want 1", n)
	}
	s.cacheMu.RLock()
	nvar := len(s.variants)
	s.cacheMu.RUnlock()
	if nvar != 0 {
		t.Fatalf("variants index still holds %d entries after eviction", nvar)
	}
	// A fresh placement of the same content must now fully relink.
	if err := s.Define("/bin/a2", rebaseProgSrc); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Instantiate("/bin/a2", nil); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Rebases; got != 0 {
		t.Fatalf("rebases = %d after source evicted, want 0", got)
	}
}
