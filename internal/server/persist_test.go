package server

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"omos/internal/store"
)

const persistLibSrc = `
(constraint-list "T" 0x1000000 "D" 0x41000000)
(source "c" "
int lib_val = 30;
int lib_add(int a, int b) { return a + b; }
")
`

const persistProgSrc = `(merge /lib/crt0.o (source "c" "
extern int lib_add(int, int);
extern int lib_val;
int main() { return lib_add(lib_val, 12); }
") /lib/tiny)`

// definePersistWorld installs the library+program pair used by the
// warm-restart tests.
func definePersistWorld(t *testing.T, s *Server) {
	t.Helper()
	if err := s.DefineLibrary("/lib/tiny", persistLibSrc); err != nil {
		t.Fatal(err)
	}
	if err := s.Define("/bin/app", persistProgSrc); err != nil {
		t.Fatal(err)
	}
}

func openStore(t *testing.T, dir string, max int64) *store.Store {
	t.Helper()
	st, err := store.Open(dir, max)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestWarmRestartFromStore(t *testing.T) {
	dir := t.TempDir()

	// Session 1: cold build, persisted write-through.
	s1 := newTestServer(t)
	s1.AttachStore(openStore(t, dir, 0))
	definePersistWorld(t, s1)
	inst1, err := s1.Instantiate("/bin/app", nil)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Stats().ImagesBuilt == 0 {
		t.Fatal("cold session built nothing")
	}
	if s1.Stats().StoreStores == 0 || s1.Stats().StoreBytes == 0 {
		t.Fatalf("no write-through: %+v", s1.Stats())
	}
	_, code1 := runInstance(t, s1, inst1, nil)
	if code1 != 42 {
		t.Fatalf("cold exit = %d, want 42", code1)
	}
	if err := s1.CloseStore(); err != nil {
		t.Fatal(err)
	}

	// Session 2: fresh kernel + server on the same directory.  The
	// warm load must reconstruct every image; re-instantiation must
	// not build anything and the instance must actually run.
	s2 := newTestServer(t)
	n := s2.AttachStore(openStore(t, dir, 0))
	if n == 0 {
		t.Fatal("warm load reconstructed nothing")
	}
	definePersistWorld(t, s2)
	inst2, err := s2.Instantiate("/bin/app", nil)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Stats().ImagesBuilt != 0 {
		t.Fatalf("warm session rebuilt %d images", s2.Stats().ImagesBuilt)
	}
	if s2.Stats().CacheHits == 0 || s2.Stats().WarmLoaded == 0 {
		t.Fatalf("warm stats = %+v", s2.Stats())
	}
	if inst2.Key != inst1.Key || inst2.Entry() != inst1.Entry() {
		t.Fatalf("identity drift: key %s vs %s, entry %#x vs %#x",
			inst2.Key, inst1.Key, inst2.Entry(), inst1.Entry())
	}
	if a1, _ := inst1.Lookup("lib_add"); true {
		if a2, ok := inst2.Lookup("lib_add"); !ok || a2 != a1 {
			t.Fatalf("lib_add bound at %#x, want %#x", a2, a1)
		}
	}
	_, code2 := runInstance(t, s2, inst2, nil)
	if code2 != 42 {
		t.Fatalf("warm exit = %d, want 42", code2)
	}
}

// restampBlobs rewrites the version field of every blob in a store
// directory, behind the store's back.  The envelope checksum covers the
// payload only, so the result is a well-formed blob of another codec
// version — what a daemon from before (or after) this one leaves
// behind.
func restampBlobs(t *testing.T, dir string, version byte) int {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.img"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range paths {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		b[4] = version
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return len(paths)
}

// TestOldCodecBlobsQuarantinedAndRebuilt: exactly one codec version
// decodes.  Blobs stamped with an older one (codec 5, before library
// records kept their shapes) take the path a corrupt blob takes —
// quarantined at attach, rebuilt on demand, re-persisted at the
// current version — and the scrubber flags one it finds at rest.
func TestOldCodecBlobsQuarantinedAndRebuilt(t *testing.T) {
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
	if n := restampBlobs(t, dir, store.Version-1); n != 2 {
		t.Fatalf("restamped %d blobs, want the library's and the program's", n)
	}

	s2 := newTestServer(t)
	st := openStore(t, dir, 0)
	if n := s2.AttachStore(st); n != 0 {
		t.Fatalf("warm-loaded %d images from old-version blobs", n)
	}
	if got := s2.Stats().StoreQuarantined; got != 2 {
		t.Fatalf("StoreQuarantined = %d, want 2", got)
	}
	definePersistWorld(t, s2)
	inst, err := s2.Instantiate("/bin/app", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.Stats(); got.ImagesBuilt != 2 || got.StoreStores != 2 {
		t.Fatalf("built %d, stored %d; want both images rebuilt and re-persisted", got.ImagesBuilt, got.StoreStores)
	}
	if _, code := runInstance(t, s2, inst, nil); code != 42 {
		t.Fatalf("rebuilt image exits %d, want 42", code)
	}
	for _, key := range []string{inst.Key, inst.Libs[0].Key} {
		blob, ok, err := st.Get(key)
		if err != nil || !ok {
			t.Fatalf("re-persisted blob %s: ok=%v err=%v", key, ok, err)
		}
		if blob[4] != store.Version {
			t.Fatalf("re-persisted blob %s has version %d, want %d", key, blob[4], store.Version)
		}
		rec, err := store.Decode(blob)
		if err != nil {
			t.Fatalf("re-persisted blob %s: %v", key, err)
		}
		// The library's record keeps its shape again, the program's none.
		if isLib := key == inst.Libs[0].Key; (rec.Shape != nil) != isLib {
			t.Fatalf("re-persisted blob %s: shape %+v, library %v", key, rec.Shape, isLib)
		}
	}

	// At rest: an old-version blob the running daemon never reads is
	// the scrubber's to find.
	restampBlobs(t, dir, store.Version-1)
	stop := st.StartScrub(time.Millisecond)
	defer stop()
	deadline := time.Now().Add(5 * time.Second)
	for s2.Stats().ScrubQuarantined < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("scrubber quarantined %d old-version blobs, want 2", s2.Stats().ScrubQuarantined)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestCorruptBlobRejectedAndRebuilt(t *testing.T) {
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

	// Scribble over every blob's payload.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := 0
	for _, de := range ents {
		if !strings.HasSuffix(de.Name(), ".img") {
			continue
		}
		path := filepath.Join(dir, de.Name())
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		b[len(b)-1] ^= 0xff
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		corrupted++
	}
	if corrupted == 0 {
		t.Fatal("no blobs to corrupt")
	}

	// Warm boot attaches every entry by its head, which is intact; the
	// first request reads the damaged bodies: every entry must be
	// rejected, none served, and instantiation must transparently
	// rebuild.
	s2 := newTestServer(t)
	s2.AttachStore(openStore(t, dir, 0))
	definePersistWorld(t, s2)
	inst, err := s2.Instantiate("/bin/app", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.Stats().StoreCorrupt; got != uint64(corrupted) {
		t.Fatalf("%d corrupt rejects counted, want %d: %+v", got, corrupted, s2.Stats())
	}
	if got := s2.Stats().ImagesBuilt; got != uint64(corrupted) {
		t.Fatalf("rebuilt %d images, want all %d (a corrupt entry was served)", got, corrupted)
	}
	if _, code := runInstance(t, s2, inst, nil); code != 42 {
		t.Fatal("rebuilt image does not run")
	}
	// The rebuild must have re-persisted fresh blobs.
	if s2.Stats().StoreStores == 0 {
		t.Fatalf("rebuild not re-persisted: %+v", s2.Stats())
	}
}

func TestStoreCapacityEvictionRespectsDependents(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t)
	definePersistWorld(t, s)
	for i, p := range []string{"/bin/solo1", "/bin/solo2", "/bin/solo3"} {
		src := `(merge /lib/crt0.o (source "c" "int main() { return ` +
			string(rune('1'+i)) + `; }"))`
		if err := s.Define(p, src); err != nil {
			t.Fatal(err)
		}
	}
	// Capacity far below the working set forces eviction on every put.
	s.AttachStore(openStore(t, dir, 1024))
	appInst, err := s.Instantiate("/bin/app", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(appInst.Libs) == 0 {
		t.Fatal("/bin/app has no library instances")
	}
	libKey := appInst.Libs[0].Key
	// Pin /bin/app in a live process: its frames (and its library's)
	// gain process references, so mappedLive protects it and the
	// dependency guard protects /lib/tiny even as eviction pressure
	// mounts.
	p := s.Kernel().Spawn()
	if err := s.MapInstance(p, appInst); err != nil {
		t.Fatal(err)
	}
	var soloInsts []*Instance
	for _, path := range []string{"/bin/solo1", "/bin/solo2", "/bin/solo3"} {
		si, err := s.Instantiate(path, nil)
		if err != nil {
			t.Fatal(err)
		}
		soloInsts = append(soloInsts, si)
	}
	if s.Stats().StoreEvictions == 0 {
		t.Fatalf("no evictions despite tiny capacity: %+v", s.Stats())
	}
	s.cacheMu.Lock()
	_, app := s.liveLocked(appInst.Key)
	_, lib := s.liveLocked(libKey)
	s.cacheMu.Unlock()
	if app == nil {
		t.Fatal("live mapped program evicted from the cache")
	}
	if lib == nil {
		t.Fatal("depended-on library evicted from the cache")
	}
	// The oldest unprotected entry (solo1) must have been evicted from
	// the store tier.
	s.cacheMu.Lock()
	st := s.store
	s.cacheMu.Unlock()
	if st.Has(soloInsts[0].Key) {
		t.Fatalf("LRU victim survived: %+v", s.Stats())
	}
	// Evicted standalone programs rebuild transparently on next use.
	before := s.Stats().ImagesBuilt
	if _, err := s.Instantiate("/bin/solo1", nil); err != nil {
		t.Fatal(err)
	}
	if s.Stats().ImagesBuilt == before {
		t.Fatalf("evicted program did not rebuild: %+v", s.Stats())
	}
}

func TestEvictRemovesStoredBlob(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t)
	s.AttachStore(openStore(t, dir, 0))
	definePersistWorld(t, s)
	inst, err := s.Instantiate("/bin/app", nil)
	if err != nil {
		t.Fatal(err)
	}
	s.cacheMu.Lock()
	st := s.store
	s.cacheMu.Unlock()
	if !st.Has(inst.Key) {
		t.Fatal("instance not persisted")
	}
	if n := s.Evict("/bin/app"); n == 0 {
		t.Fatal("nothing evicted")
	}
	if st.Has(inst.Key) {
		t.Fatal("namespace eviction left the blob in the store")
	}
}

// TestSingleflightConcurrentMisses is the singleflight regression
// test: N goroutines instantiate the same uncached key concurrently;
// exactly one build happens and every caller gets the same instance.
// Run under -race in CI.
func TestSingleflightConcurrentMisses(t *testing.T) {
	s := newTestServer(t)
	if err := s.Define("/bin/flight",
		`(merge /lib/crt0.o (source "c" "int main() { return 7; }"))`); err != nil {
		t.Fatal(err)
	}
	const n = 16
	var wg sync.WaitGroup
	start := make(chan struct{})
	insts := make([]*Instance, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			insts[i], errs[i] = s.Instantiate("/bin/flight", nil)
		}(i)
	}
	close(start)
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
	}
	if s.Stats().ImagesBuilt != 1 {
		t.Fatalf("ImagesBuilt = %d, want 1", s.Stats().ImagesBuilt)
	}
	for i := 1; i < n; i++ {
		if insts[i] != insts[0] {
			t.Fatalf("caller %d got a different instance", i)
		}
	}
	if _, code := runInstance(t, s, insts[0], nil); code != 7 {
		t.Fatalf("exit = %d, want 7", code)
	}
}
