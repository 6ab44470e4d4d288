package server

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"omos/internal/fault"
	"omos/internal/refusal"
	"omos/internal/store"
)

// TestBindingReplayAfterEviction: once a program's resolution is
// recorded, rebuilding the unchanged program (here: after cache
// eviction) replays the binding table instead of searching the
// library list — the symbol-search counter must not move.
func TestBindingReplayAfterEviction(t *testing.T) {
	s := newTestServer(t)
	definePersistWorld(t, s)
	if _, err := s.Instantiate("/bin/app", nil); err != nil {
		t.Fatal(err)
	}
	cold := s.Stats()
	if cold.SymbolSearches == 0 {
		t.Fatal("cold resolution performed no symbol searches")
	}
	if cold.BindingMisses == 0 {
		t.Fatal("cold resolution not counted as a binding miss")
	}

	if n := s.Evict("/bin/app"); n == 0 {
		t.Fatal("nothing evicted")
	}
	inst, err := s.Instantiate("/bin/app", nil)
	if err != nil {
		t.Fatal(err)
	}
	warm := s.Stats()
	if warm.SymbolSearches != cold.SymbolSearches {
		t.Fatalf("rebuild searched symbols: %d -> %d", cold.SymbolSearches, warm.SymbolSearches)
	}
	if warm.BindingHits == 0 {
		t.Fatalf("rebuild did not replay the binding table: %+v", warm)
	}
	if _, code := runInstance(t, s, inst, nil); code != 42 {
		t.Fatalf("replayed image exit = %d, want 42", code)
	}
}

// TestWarmRestartZeroSymbolSearches is the acceptance criterion of the
// stable resolution cache: a warm-restarted daemon that must relink an
// image (the cached instance was evicted) still performs zero symbol
// searches, because the binding table persisted through the store and
// replays.  `Explain` must then report the definer, the view, and the
// generation — including that the resolution came from a prior
// session.
func TestWarmRestartZeroSymbolSearches(t *testing.T) {
	dir := t.TempDir()

	s1 := newTestServer(t)
	s1.AttachStore(openStore(t, dir, 0))
	definePersistWorld(t, s1)
	if _, err := s1.Instantiate("/bin/app", nil); err != nil {
		t.Fatal(err)
	}
	if err := s1.CloseStore(); err != nil {
		t.Fatal(err)
	}

	s2 := newTestServer(t)
	if n := s2.AttachStore(openStore(t, dir, 0)); n == 0 {
		t.Fatal("warm load reconstructed nothing")
	}
	definePersistWorld(t, s2)
	// Force an actual relink: drop the warm-loaded program instance so
	// instantiation cannot be a pure cache hit.  The binding table —
	// warm-loaded from the same blob — survives the eviction.
	if n := s2.Evict("/bin/app"); n == 0 {
		t.Fatal("nothing evicted")
	}
	inst, err := s2.Instantiate("/bin/app", nil)
	if err != nil {
		t.Fatal(err)
	}
	st := s2.Stats()
	if st.SymbolSearches != 0 {
		t.Fatalf("warm relink performed %d symbol searches, want 0", st.SymbolSearches)
	}
	if st.BindingHits == 0 {
		t.Fatalf("warm relink did not hit the binding cache: %+v", st)
	}
	if _, code := runInstance(t, s2, inst, nil); code != 42 {
		t.Fatalf("warm exit = %d, want 42", code)
	}

	out, err := s2.Explain("lib_add")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"/bin/app binds lib_add -> /lib/tiny",
		"library 0 of /bin/app",
		"resolved by warm-load at namespace generation",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("Explain output missing %q:\n%s", want, out)
		}
	}
}

// TestRebindGuardCountersAndInvalidation covers the guard's three
// verdicts — identical redefine passes, content change without allow
// is blocked and counted, with allow is permitted and counted — and
// that a permitted rebind is then caught as a binding invalidation
// (never a silent replay of the stale resolution).
func TestRebindGuardCountersAndInvalidation(t *testing.T) {
	s := newTestServer(t)
	definePersistWorld(t, s)
	if _, err := s.Instantiate("/bin/app", nil); err != nil {
		t.Fatal(err)
	}

	// Identical source: idempotent, no guard.
	if err := s.DefineLibrary("/lib/tiny", persistLibSrc); err != nil {
		t.Fatalf("identical redefine blocked: %v", err)
	}

	changed := strings.Replace(persistLibSrc, "lib_val = 30", "lib_val = 18", 1)
	err := s.DefineLibrary("/lib/tiny", changed)
	var re *refusal.RebindError
	if !errors.As(err, &re) {
		t.Fatalf("content change: err = %v, want *refusal.RebindError", err)
	}
	if re.Mutation != "define" || re.Path != "/lib/tiny" || re.Program != "/bin/app" || re.Definer != "/lib/tiny" {
		t.Fatalf("rebind detail = %+v", re)
	}
	if st := s.Stats(); st.RebindsBlocked != 1 || st.RebindsAllowed != 0 {
		t.Fatalf("guard counters = %+v", st)
	}

	if err := s.DefineLibraryAllow("/lib/tiny", changed, true); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.RebindsAllowed != 1 {
		t.Fatalf("allowed rebind not counted: %+v", st)
	}

	// The stale table must be detected, not replayed.
	before := s.Stats()
	inst, err := s.Instantiate("/bin/app", nil)
	if err != nil {
		t.Fatal(err)
	}
	after := s.Stats()
	if after.BindingInvalidations == before.BindingInvalidations {
		t.Fatalf("permitted rebind not detected as invalidation: %+v", after)
	}
	if after.SymbolSearches == before.SymbolSearches {
		t.Fatal("rebuilt program did not re-search after invalidation")
	}
	if _, code := runInstance(t, s, inst, nil); code != 30 {
		t.Fatalf("rebuilt exit = %d, want 30 (new library body)", code)
	}
}

// TestMountGuard: a mount (or unmount) only conflicts when it could
// actually capture a live definer — a path under the prefix with no
// local namespace entry.  While the definer is local, mounts above it
// are free; once the local entry is gone, the guard demands the allow
// flag.
func TestMountGuard(t *testing.T) {
	s := newTestServer(t)
	definePersistWorld(t, s)
	if _, err := s.Instantiate("/bin/app", nil); err != nil {
		t.Fatal(err)
	}

	// Local entry present: the mount cannot shadow it, no conflict.
	if err := s.Mount("/lib", failFetcher{}); err != nil {
		t.Fatalf("mount over a locally-defined definer blocked: %v", err)
	}
	if err := s.Unmount("/lib"); err != nil {
		t.Fatalf("unmount with local definer present blocked: %v", err)
	}

	if err := s.RemoveAllow("/lib/tiny", true); err != nil {
		t.Fatal(err)
	}
	var re *refusal.RebindError
	if err := s.Mount("/lib", failFetcher{}); !errors.As(err, &re) {
		t.Fatalf("mount capturing a live definer: err = %v, want *refusal.RebindError", err)
	}
	if re.Mutation != "mount" || re.Definer != "/lib/tiny" {
		t.Fatalf("mount rebind detail = %+v", re)
	}
	if err := s.MountAllow("/lib", failFetcher{}, true); err != nil {
		t.Fatal(err)
	}
	if err := s.Unmount("/lib"); err == nil {
		t.Fatal("unmount capturing a live definer succeeded without allow")
	}
	if err := s.UnmountAllow("/lib", true); err != nil {
		t.Fatal(err)
	}
}

// TestPinViolationQuarantinesOnMap is the hijack defense: an injected
// definer swap (fault site namespace.hijack) at map time is rejected
// with a typed error, counted, and the image is quarantined — and the
// next instantiation transparently rebuilds and re-pins from source.
func TestPinViolationQuarantinesOnMap(t *testing.T) {
	s := newTestServer(t)
	definePersistWorld(t, s)
	inst, err := s.Instantiate("/bin/app", nil)
	if err != nil {
		t.Fatal(err)
	}
	f, err := fault.Parse("namespace.hijack:error:n=1:count=1", 1)
	if err != nil {
		t.Fatal(err)
	}
	s.SetFaults(f)

	p := s.Kernel().Spawn()
	mapErr := s.MapInstance(p, inst)
	var pv *refusal.PinViolationError
	if !errors.As(mapErr, &pv) {
		t.Fatalf("hijacked map: err = %v, want *refusal.PinViolationError", mapErr)
	}
	if st := s.Stats(); st.PinViolations != 1 {
		t.Fatalf("violation not counted: %+v", st)
	}
	s.cacheMu.Lock()
	_, cached := s.liveLocked(inst.Key)
	s.cacheMu.Unlock()
	if cached != nil {
		t.Fatal("hijacked image left in the cache")
	}

	built := s.Stats().ImagesBuilt
	inst2, err := s.Instantiate("/bin/app", nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Stats().ImagesBuilt == built {
		t.Fatal("quarantined image not rebuilt")
	}
	if _, code := runInstance(t, s, inst2, nil); code != 42 {
		t.Fatalf("rebuilt exit = %d, want 42", code)
	}
}

// TestCorruptBindingRecordRejected: a stored blob whose binding table
// points outside its library list (a corrupted or tampered resolution
// record) must be rejected at warm load — counted as corrupt, never
// replayed — and the image must rebuild transparently.
func TestCorruptBindingRecordRejected(t *testing.T) {
	dir := t.TempDir()

	s1 := newTestServer(t)
	s1.AttachStore(openStore(t, dir, 0))
	definePersistWorld(t, s1)
	if _, err := s1.Instantiate("/bin/app", nil); err != nil {
		t.Fatal(err)
	}
	if err := s1.CloseStore(); err != nil {
		t.Fatal(err)
	}

	// Tamper with the program blob: re-point its first binding outside
	// the library list and re-encode (valid envelope, corrupt record).
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	tampered := 0
	for _, de := range ents {
		if !strings.HasSuffix(de.Name(), ".img") {
			continue
		}
		path := filepath.Join(dir, de.Name())
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := store.Decode(b)
		if err != nil || len(rec.Bindings) == 0 {
			continue
		}
		rec.Bindings[0].LibIdx = uint32(len(rec.LibKeys)) + 7
		nb, err := store.Encode(rec)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, nb, 0o644); err != nil {
			t.Fatal(err)
		}
		tampered++
	}
	if tampered == 0 {
		t.Fatal("no blob with bindings to tamper with")
	}

	s2 := newTestServer(t)
	s2.AttachStore(openStore(t, dir, 0))
	if s2.Stats().StoreCorrupt == 0 {
		t.Fatalf("tampered binding record not rejected: %+v", s2.Stats())
	}
	definePersistWorld(t, s2)
	inst, err := s2.Instantiate("/bin/app", nil)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Stats().ImagesBuilt == 0 {
		t.Fatal("rejected image not rebuilt")
	}
	if _, code := runInstance(t, s2, inst, nil); code != 42 {
		t.Fatalf("rebuilt exit = %d, want 42", code)
	}
}

// TestResolveCacheFaultDegradesToMiss: the binding cache is never
// load-bearing — an injected error (or panic) in the lookup degrades
// to a miss and the full symbol search takes over.
func TestResolveCacheFaultDegradesToMiss(t *testing.T) {
	for _, kind := range []string{"error", "panic"} {
		t.Run(kind, func(t *testing.T) {
			s := newTestServer(t)
			definePersistWorld(t, s)
			if _, err := s.Instantiate("/bin/app", nil); err != nil {
				t.Fatal(err)
			}
			if n := s.Evict("/bin/app"); n == 0 {
				t.Fatal("nothing evicted")
			}
			f, err := fault.Parse("resolve.cache:"+kind+":n=1:count=1", 1)
			if err != nil {
				t.Fatal(err)
			}
			s.SetFaults(f)
			before := s.Stats()
			inst, err := s.Instantiate("/bin/app", nil)
			if err != nil {
				t.Fatal(err)
			}
			after := s.Stats()
			if after.BindingMisses == before.BindingMisses {
				t.Fatalf("fault not degraded to a miss: %+v", after)
			}
			if after.SymbolSearches == before.SymbolSearches {
				t.Fatal("degraded lookup did not fall back to the search")
			}
			if kind == "panic" && after.Recovered == before.Recovered {
				t.Fatal("panic not recovered/counted")
			}
			if _, code := runInstance(t, s, inst, nil); code != 42 {
				t.Fatalf("exit = %d, want 42", code)
			}
		})
	}
}

// TestRollbackDoesNotResurrectRemovedPath: rolling an epoch back
// restores the pre-epoch binding tables, but not the table of a path
// removed while the epoch was open.  Before the fix the whole snapshot
// came back: Explain listed the removed program again and the next
// mutation of its library hit a rebind conflict on its behalf.
func TestRollbackDoesNotResurrectRemovedPath(t *testing.T) {
	s := newTestServer(t)
	defineUpgradeWorld(t, s)
	// A different program (tables are keyed by content, not path).
	if err := s.Define("/bin/keep", strings.Replace(upProg, "triple(14)", "triple(15)", 1)); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"/bin/t", "/bin/keep"} {
		if _, err := s.Instantiate(p, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.UpgradeStart(50); err != nil {
		t.Fatal(err)
	}
	s.Evict("/bin/t")
	if err := s.Remove("/bin/t"); err != nil {
		t.Fatal(err)
	}
	if err := s.UpgradeRollback("operator drill"); err != nil {
		t.Fatal(err)
	}
	out, err := s.Explain("triple")
	if err != nil {
		t.Fatalf("rollback lost the surviving program's table: %v", err)
	}
	if !strings.Contains(out, "/bin/keep binds triple") || strings.Contains(out, "/bin/t binds") {
		t.Fatalf("after rollback Explain should list /bin/keep and not the removed /bin/t:\n%s", out)
	}
	// With the survivor gone too, nobody binds through the library.
	s.Evict("/bin/keep")
	if err := s.Remove("/bin/keep"); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove("/lib/up"); err != nil {
		t.Fatalf("removing a library only a removed program bound through: %v", err)
	}
}

// TestBindingVariantReplayAfterRevert: a binding table is one variant
// of its resolution identity, keyed by the content of the libraries it
// was resolved against.  /lib/up goes v1 -> v2 -> v1; /bin/t, evicted
// and relinked, replays the v1 variant.  With one table per identity,
// v2's had replaced v1's and the relink searched.
func TestBindingVariantReplayAfterRevert(t *testing.T) {
	s := newTestServer(t)
	defineUpgradeWorld(t, s)
	for _, src := range []string{upLibV1, upLibV2, upLibV1} {
		if err := s.DefineLibraryAllow("/lib/up", src, true); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Instantiate("/bin/t", nil); err != nil {
			t.Fatal(err)
		}
	}
	s.Evict("/bin/t")
	before := s.Stats()
	if code := runExit(t, s); code != 42 {
		t.Fatalf("exit = %d, want v1's 42", code)
	}
	after := s.Stats()
	if hits, searches := after.BindingHits-before.BindingHits, after.SymbolSearches-before.SymbolSearches; hits != 1 || searches != 0 {
		t.Fatalf("relink after v1 -> v2 -> v1: %d binding hits, %d symbol searches; want 1 and 0", hits, searches)
	}
}

// TestBindingVariantsWarmRestart: both variants of one resolution
// identity persist with their images and warm-load beside each other,
// so after a restart /bin/t relinks against either version of /lib/up
// without a search.  With one table per identity, the first record
// attached claimed the identity and the other variant searched.
func TestBindingVariantsWarmRestart(t *testing.T) {
	dir := t.TempDir()
	s1 := newTestServer(t)
	s1.AttachStore(openStore(t, dir, 0))
	defineUpgradeWorld(t, s1)
	for _, src := range []string{upLibV1, upLibV2} {
		if err := s1.DefineLibraryAllow("/lib/up", src, true); err != nil {
			t.Fatal(err)
		}
		if _, err := s1.Instantiate("/bin/t", nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := s1.CloseStore(); err != nil {
		t.Fatal(err)
	}

	s2 := newTestServer(t)
	s2.AttachStore(openStore(t, dir, 0))
	defineUpgradeWorld(t, s2)
	for i, src := range []string{upLibV1, upLibV2} {
		if err := s2.DefineLibraryAllow("/lib/up", src, true); err != nil {
			t.Fatal(err)
		}
		s2.Evict("/bin/t")
		before := s2.Stats()
		if code := runExit(t, s2); code != uint64(42+i) {
			t.Fatalf("v%d: exit = %d, want %d", i+1, code, 42+i)
		}
		after := s2.Stats()
		if hits, searches := after.BindingHits-before.BindingHits, after.SymbolSearches-before.SymbolSearches; hits != 1 || searches != 0 {
			t.Fatalf("v%d relink after the restart: %d binding hits, %d symbol searches; want 1 and 0", i+1, hits, searches)
		}
	}
}

// TestRemoveForgetsResolutionState: a binding table survives eviction
// (that is what replay is for) but not removal of the path it
// describes, and a blob checksum dies with its store blob.  Before the
// fix every program ever defined left one entry in each map, the rebind
// guard protected programs that no longer existed, and Explain went on
// listing them.
func TestRemoveForgetsResolutionState(t *testing.T) {
	s := newTestServer(t)
	s.AttachStore(openStore(t, t.TempDir(), 0))
	definePersistWorld(t, s)
	sizes := func() (bindings, sums int) {
		s.bindMu.RLock()
		bindings = len(s.bindings)
		s.bindMu.RUnlock()
		s.cacheMu.RLock()
		defer s.cacheMu.RUnlock()
		for _, e := range s.entries {
			if e.sum != "" {
				sums++
			}
		}
		return bindings, sums
	}
	bindStart, _ := sizes()
	app, err := s.Instantiate("/bin/app", nil)
	if err != nil {
		t.Fatal(err)
	}
	bind0, sums0 := sizes()

	// Eviction alone keeps the table: the rebuild replays it.
	before := s.Stats()
	if s.Evict("/bin/app") == 0 {
		t.Fatal("nothing evicted")
	}
	if _, err := s.Instantiate("/bin/app", nil); err != nil {
		t.Fatal(err)
	}
	after := s.Stats()
	if after.BindingHits != before.BindingHits+1 || after.SymbolSearches != before.SymbolSearches {
		t.Fatalf("evict without remove: binding hits %d -> %d, symbol searches %d -> %d; want +1 and +0",
			before.BindingHits, after.BindingHits, before.SymbolSearches, after.SymbolSearches)
	}

	// Fifty programs come and go; both maps return to where they were.
	for i := 0; i < 50; i++ {
		p := fmt.Sprintf("/bin/app%d", i)
		src := strings.Replace(persistProgSrc, "lib_val, 12", fmt.Sprintf("lib_val, %d", 100+i), 1)
		if err := s.Define(p, src); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Instantiate(p, nil); err != nil {
			t.Fatal(err)
		}
		s.Evict(p)
		if err := s.Remove(p); err != nil {
			t.Fatal(err)
		}
	}
	if b, c := sizes(); b != bind0 || c != sums0 {
		t.Fatalf("after 50 define/instantiate/evict/remove: %d binding tables and %d blob checksums, want %d and %d",
			b, c, bind0, sums0)
	}

	// Library churn: each redefine of /lib/tiny relinks /bin/app against
	// new content, one variant of its resolution identity each, and the
	// identity keeps the newest two.
	for i := 0; i < 5; i++ {
		src := strings.Replace(persistLibSrc, "lib_val = 30", fmt.Sprintf("lib_val = %d", 31+i), 1)
		if err := s.DefineLibraryAllow("/lib/tiny", src, true); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Instantiate("/bin/app", nil); err != nil {
			t.Fatal(err)
		}
	}
	variants := 0
	for tbl := s.bindingTable(app.bindKey); tbl != nil; tbl = tbl.older {
		variants++
	}
	if b, _ := sizes(); variants != 2 || b != bind0 {
		t.Fatalf("after 5 library redefines: %d variants of /bin/app's resolution, %d identities; want 2 and %d",
			variants, b, bind0)
	}

	// A removed program is nobody the guard needs to protect, and
	// nothing Explain should list.
	s.Evict("/bin/app")
	if err := s.Remove("/bin/app"); err != nil {
		t.Fatal(err)
	}
	if b, _ := sizes(); b != bindStart {
		t.Fatalf("after removing /bin/app: %d binding identities, want %d as before it was linked", b, bindStart)
	}
	if out, err := s.Explain("lib_add"); err == nil {
		t.Fatalf("Explain still lists a removed program:\n%s", out)
	}
	if err := s.Remove("/lib/tiny"); err != nil {
		t.Fatalf("removing a library no remaining program binds through: %v", err)
	}

	// Redefining the removed path with the same source resolves afresh:
	// one search, one new table.
	definePersistWorld(t, s)
	before = s.Stats()
	if _, err := s.Instantiate("/bin/app", nil); err != nil {
		t.Fatal(err)
	}
	after = s.Stats()
	if after.SymbolSearches == before.SymbolSearches || after.BindingHits != before.BindingHits {
		t.Fatalf("redefined program: symbol searches %d -> %d, binding hits %d -> %d; want a fresh search and no replay",
			before.SymbolSearches, after.SymbolSearches, before.BindingHits, after.BindingHits)
	}
	if out, err := s.Explain("lib_add"); err != nil || !strings.Contains(out, "/bin/app binds lib_add") || !strings.Contains(out, "resolved by search") {
		t.Fatalf("no fresh table recorded for the redefined program: %v\n%s", err, out)
	}
}
