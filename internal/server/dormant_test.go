package server

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"omos/internal/fault"
)

// persistedWorld runs a first session that builds /bin/app and its
// library /lib/tiny into a store at a fresh directory, and returns the
// directory and the two cache keys.
func persistedWorld(t *testing.T) (dir, appKey, libKey string) {
	t.Helper()
	dir = t.TempDir()
	s := newTestServer(t)
	s.AttachStore(openStore(t, dir, 0))
	definePersistWorld(t, s)
	inst, err := s.Instantiate("/bin/app", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CloseStore(); err != nil {
		t.Fatal(err)
	}
	return dir, inst.Key, inst.Libs[0].Key
}

// flipBlobByte flips one byte of the blob stored under key, at the
// offset at picks from the blob's length.
func flipBlobByte(t *testing.T, dir, key string, at func(n int) int) {
	t.Helper()
	path := filepath.Join(dir, key+".img")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[at(len(b))] ^= 0xff
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// runApp instantiates /bin/app and checks that it exits 42.
func runApp(t *testing.T, s *Server) *Instance {
	t.Helper()
	inst, err := s.Instantiate("/bin/app", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, code := runInstance(t, s, inst, nil); code != 42 {
		t.Fatalf("exit = %d, want 42", code)
	}
	return inst
}

// TestDormantLibraryReadErrorSparesProgram: a restart whose one read of
// a library's blob fails with an I/O error — not corruption — costs no
// other record.  The program linking against that library is neither
// quarantined nor counted corrupt, and the first request runs it
// without relinking it: only the unreadable library is rebuilt.
func TestDormantLibraryReadErrorSparesProgram(t *testing.T) {
	dir := t.TempDir()
	s1 := newTestServer(t)
	st1 := openStore(t, dir, 0)
	s1.AttachStore(st1)
	definePersistWorld(t, s1)
	inst, err := s1.Instantiate("/bin/app", nil)
	if err != nil {
		t.Fatal(err)
	}
	// The library is the most recently used blob, so a restart reaches
	// the program's record first and the library's second.
	st1.Touch(inst.Libs[0].Key)
	if err := s1.CloseStore(); err != nil {
		t.Fatal(err)
	}

	s2 := newTestServer(t)
	st2 := openStore(t, dir, 0)
	f := fault.New(1)
	f.Enable(fault.Rule{Site: fault.SiteStoreRead, Kind: fault.KindError, EveryN: 2, Count: 1})
	st2.SetFaults(f)
	s2.AttachStore(st2)
	if trips := f.Trips(fault.SiteStoreRead); trips != 1 {
		t.Fatalf("store.read tripped %d times at restart, want 1", trips)
	}
	if got := s2.Stats(); got.StoreQuarantined != 0 || got.StoreCorrupt != 0 {
		t.Fatalf("a library read error cost a record: quarantined %d, corrupt %d", got.StoreQuarantined, got.StoreCorrupt)
	}
	definePersistWorld(t, s2)
	inst2 := runApp(t, s2)
	if got := s2.Stats(); got.ImagesBuilt != 1 || got.StoreQuarantined != 0 {
		t.Fatalf("built %d images, quarantined %d; want the library alone rebuilt", got.ImagesBuilt, got.StoreQuarantined)
	}
	if inst2.Key != inst.Key {
		t.Fatalf("program key %s, want %s", inst2.Key, inst.Key)
	}
}

// TestDormantCorruptHeadQuarantinedAtAttach: a record whose head is
// damaged is caught at attach — quarantined, counted corrupt, not
// attached — and the first request rebuilds it.
func TestDormantCorruptHeadQuarantinedAtAttach(t *testing.T) {
	dir, appKey, _ := persistedWorld(t)
	flipBlobByte(t, dir, appKey, func(int) int { return blobCheckSumHi + 3 })

	s := newTestServer(t)
	if n := s.AttachStore(openStore(t, dir, 0)); n != 1 {
		t.Fatalf("attached %d records, want the library's alone", n)
	}
	if got := s.Stats(); got.WarmLoaded != 1 || got.StoreCorrupt != 1 || got.StoreQuarantined != 1 {
		t.Fatalf("at attach: warm-loaded %d, corrupt %d, quarantined %d; want 1, 1, 1",
			got.WarmLoaded, got.StoreCorrupt, got.StoreQuarantined)
	}
	definePersistWorld(t, s)
	runApp(t, s)
	if got := s.Stats(); got.ImagesBuilt != 1 || got.StoreCorrupt != 1 {
		t.Fatalf("built %d, corrupt %d; want the program rebuilt and nothing else found", got.ImagesBuilt, got.StoreCorrupt)
	}
}

// TestDormantAttachFromIndex: a restart on a store whose blobs all
// predate its index attaches every record from the index's copy of its
// head, keeps none of those copies past the attach, and serves the
// first request from both records without a rebuild.
func TestDormantAttachFromIndex(t *testing.T) {
	dir, appKey, _ := persistedWorld(t)
	AgeBlobs(t, dir)

	s := newTestServer(t)
	st := openStore(t, dir, 0)
	if n := s.AttachStore(st); n != 2 {
		t.Fatalf("attached %d records, want 2", n)
	}
	if got := s.Stats(); got.StoreIndexHeads != got.WarmLoaded {
		t.Fatalf("%d of %d records attached from the index", got.StoreIndexHeads, got.WarmLoaded)
	}
	if _, ok, err := st.GetHead(appKey); !ok || err != nil {
		t.Fatalf("GetHead after attach: ok=%v err=%v", ok, err)
	}
	if got := s.Stats().StoreIndexHeads; got != 2 {
		t.Fatalf("the index served %d heads, want 2: it kept a head past the attach", got)
	}
	definePersistWorld(t, s)
	runApp(t, s)
	if got := s.Stats(); got.ImagesBuilt != 0 || got.StoreLoads != 2 || got.StoreCorrupt != 0 {
		t.Fatalf("built %d, body reads %d, corrupt %d; want both records woken and nothing built",
			got.ImagesBuilt, got.StoreLoads, got.StoreCorrupt)
	}
}

// TestDormantCorruptBodyQuarantinedAtFirstUse: a damaged body passes
// attach — its head is intact — and is caught when the first request
// reads it: quarantined, counted corrupt, rebuilt, and the request
// still exits correctly.
func TestDormantCorruptBodyQuarantinedAtFirstUse(t *testing.T) {
	dir, appKey, _ := persistedWorld(t)
	flipBlobByte(t, dir, appKey, func(n int) int { return n - 1 })

	s := newTestServer(t)
	if n := s.AttachStore(openStore(t, dir, 0)); n != 2 {
		t.Fatalf("attached %d records, want both", n)
	}
	if got := s.Stats(); got.StoreCorrupt != 0 {
		t.Fatalf("attach read a body: corrupt %d", got.StoreCorrupt)
	}
	definePersistWorld(t, s)
	inst := runApp(t, s)
	if got := s.Stats(); got.StoreCorrupt != 1 || got.StoreQuarantined != 1 || got.ImagesBuilt != 1 {
		t.Fatalf("corrupt %d, quarantined %d, built %d; want the program's record quarantined and rebuilt",
			got.StoreCorrupt, got.StoreQuarantined, got.ImagesBuilt)
	}
	if inst.Key != appKey {
		t.Fatalf("rebuilt under key %s, want %s", inst.Key, appKey)
	}
}

// TestDormantConcurrentWake: many goroutines asking a restarted server
// for one dormant program at once read each image's body once and all
// get the one instance.  Run under -race in CI.
func TestDormantConcurrentWake(t *testing.T) {
	dir, appKey, _ := persistedWorld(t)
	s := newTestServer(t)
	s.AttachStore(openStore(t, dir, 0))
	definePersistWorld(t, s)
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
			insts[i], errs[i] = s.Instantiate("/bin/app", nil)
		}(i)
	}
	close(start)
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if insts[i] != insts[0] {
			t.Fatalf("caller %d got a different instance", i)
		}
	}
	if insts[0].Key != appKey {
		t.Fatalf("woke %s, want %s", insts[0].Key, appKey)
	}
	if got := s.Stats(); got.StoreLoads != 2 || got.ImagesBuilt != 0 {
		t.Fatalf("%d body reads, %d builds; want one read per image and no build", got.StoreLoads, got.ImagesBuilt)
	}
	if _, code := runInstance(t, s, insts[0], nil); code != 42 {
		t.Fatalf("exit = %d, want 42", code)
	}
}

// TestDormantEvict: Evict reaches records nothing has woken — the
// named image's blob and the blobs of everything dormant that links
// against it are deleted — and the next request rebuilds.
func TestDormantEvict(t *testing.T) {
	dir, appKey, libKey := persistedWorld(t)
	s := newTestServer(t)
	st := openStore(t, dir, 0)
	s.AttachStore(st)
	if n := s.Evict("/lib/tiny"); n != 2 {
		t.Fatalf("evicted %d images, want the library and the program linking it", n)
	}
	if st.Has(libKey) || st.Has(appKey) {
		t.Fatalf("blobs left behind: library %v, program %v", st.Has(libKey), st.Has(appKey))
	}
	if got := s.Stats().StoreLoads; got != 0 {
		t.Fatalf("Evict read %d bodies", got)
	}
	definePersistWorld(t, s)
	runApp(t, s)
	if got := s.Stats().ImagesBuilt; got != 2 {
		t.Fatalf("rebuilt %d images, want 2", got)
	}
}

// TestDormantCapacityEvictionKeepsNeededLibrary: over its byte budget
// at attach, the store gives up a dormant program before the library
// it links against, even though the library is less recently used.
func TestDormantCapacityEvictionKeepsNeededLibrary(t *testing.T) {
	dir, appKey, libKey := persistedWorld(t)
	st := openStore(t, dir, 0)
	if keys := st.KeysLRU(); len(keys) != 2 || keys[0] != libKey {
		t.Fatalf("LRU order %v, want the library first", keys)
	}
	// One byte too small for both blobs.
	budget := int64(st.Stats().Bytes) - 1
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	s := newTestServer(t)
	st = openStore(t, dir, budget)
	s.AttachStore(st)
	if !st.Has(libKey) || st.Has(appKey) {
		t.Fatalf("after capacity eviction: library kept %v, program kept %v; want the program evicted",
			st.Has(libKey), st.Has(appKey))
	}
	definePersistWorld(t, s)
	runApp(t, s)
	if got := s.Stats(); got.ImagesBuilt != 1 {
		t.Fatalf("rebuilt %d images, want the program alone", got.ImagesBuilt)
	}
}

// TestCloseStoreRetiresDormant: a record attached but never woken
// cannot be woken once its store is closed, so closing the store
// retires it.  Every content key the server still lists must export,
// and the program still runs, rebuilt from source.
func TestCloseStoreRetiresDormant(t *testing.T) {
	dir, _, _ := persistedWorld(t)
	s := newTestServer(t)
	if n := s.AttachStore(openStore(t, dir, 0)); n != 2 {
		t.Fatalf("attached %d records, want 2", n)
	}
	if err := s.CloseStore(); err != nil {
		t.Fatal(err)
	}
	for _, ck := range s.ContentKeys() {
		if _, ok := s.ExportContent(ck); !ok {
			t.Errorf("content key %s listed after CloseStore but not exportable", ck)
		}
	}
	definePersistWorld(t, s)
	runApp(t, s)
}
