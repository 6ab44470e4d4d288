package server

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"omos/internal/fault"
	"omos/internal/image"
	"omos/internal/link"
	"omos/internal/osim"
)

// defineConcurrentWorld installs three shared libraries and nprogs
// programs that all link against them, giving concurrent
// instantiations plenty of overlapping subtrees to collide on.
func defineConcurrentWorld(t *testing.T, s *Server, nprogs int) []string {
	t.Helper()
	libs := []struct{ path, src string }{
		{"/lib/ca", `(constraint-list "T" 0x1000000 "D" 0x41000000)
(source "c" "int ca_val = 10; int ca(int x) { return x + ca_val; }")`},
		{"/lib/cb", `(constraint-list "T" 0x1100000 "D" 0x41100000)
(source "c" "int cb_val = 20; int cb(int x) { return x + cb_val; }")`},
		{"/lib/cc", `(constraint-list "T" 0x1200000 "D" 0x41200000)
(source "c" "int cc_val = 30; int cc(int x) { return x + cc_val; }")`},
	}
	for _, l := range libs {
		if err := s.DefineLibrary(l.path, l.src); err != nil {
			t.Fatal(err)
		}
	}
	var names []string
	for i := 0; i < nprogs; i++ {
		name := fmt.Sprintf("/bin/cprog%d", i)
		src := fmt.Sprintf(`
(merge /lib/crt0.o
  (source "c" "
extern int ca(int x);
extern int cb(int x);
extern int cc(int x);
int main() { return ca(cb(cc(%d))); }
")
  /lib/ca /lib/cb /lib/cc)
`, i)
		if err := s.Define(name, src); err != nil {
			t.Fatal(err)
		}
		names = append(names, name)
	}
	return names
}

// TestConcurrentInstantiateStress hammers one server from many
// goroutines instantiating overlapping programs.  Every winner and
// waiter for a given program must receive the identical cached
// instance (pointer equality ⇒ identical symbol tables), each distinct
// image must be built exactly once, and Stats must stay readable while
// builds are in flight.
func TestConcurrentInstantiateStress(t *testing.T) {
	s := newTestServer(t)
	names := defineConcurrentWorld(t, s, 4)

	const goroutines = 16
	const iters = 8
	results := make([][]*Instance, goroutines)
	errs := make([]error, goroutines)
	stop := make(chan struct{})
	var statsWG sync.WaitGroup
	statsWG.Add(1)
	go func() {
		// Satellite: Stats() must be safe to read mid-build.
		defer statsWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				st := s.Stats()
				if st.CacheMisses > 0 && st.ImagesBuilt == 0 {
					t.Error("stats snapshot inconsistent: misses without builds")
					return
				}
			}
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				name := names[(g+i)%len(names)]
				inst, err := s.Instantiate(name, nil)
				if err != nil {
					errs[g] = err
					return
				}
				results[g] = append(results[g], inst)
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	statsWG.Wait()

	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	canonical := map[string]*Instance{}
	for g := range results {
		for i, inst := range results[g] {
			name := names[(g+i)%len(names)]
			if prev, ok := canonical[name]; ok && prev != inst {
				t.Fatalf("%s: two distinct instances across goroutines", name)
			}
			canonical[name] = inst
		}
	}
	// Exactly one build per cache key: 4 programs + 3 shared libraries.
	st := s.Stats()
	if want := uint64(len(names) + 3); st.ImagesBuilt != want {
		t.Fatalf("ImagesBuilt = %d, want %d (one per distinct key)", st.ImagesBuilt, want)
	}
	// All concurrent requesters of one program share one symbol table.
	for name, inst := range canonical {
		if _, ok := inst.Lookup("main"); !ok {
			t.Fatalf("%s: main missing from shared symbol table", name)
		}
	}
}

// TestConcurrentInstantiateRuns checks the parallel dependency fan-out
// produces instances that actually execute correctly.
func TestConcurrentInstantiateRuns(t *testing.T) {
	s := newTestServer(t)
	names := defineConcurrentWorld(t, s, 2)
	var wg sync.WaitGroup
	insts := make([]*Instance, len(names))
	for i, name := range names {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			inst, err := s.Instantiate(name, nil)
			if err != nil {
				t.Error(err)
				return
			}
			insts[i] = inst
		}(i, name)
	}
	wg.Wait()
	for i, inst := range insts {
		if inst == nil {
			t.Fatal("missing instance")
		}
		_, code := runInstance(t, s, inst, nil)
		if want := uint64(i + 60); code != want {
			t.Fatalf("prog %d: exit = %d, want %d", i, code, want)
		}
	}
}

// TestConcurrentWorkerAblation verifies the serial (workers=1) and
// parallel pipelines produce identical images and identical total
// build work, and that the parallel pipeline charges the requester no
// more than the serial one (the makespan model).
func TestConcurrentWorkerAblation(t *testing.T) {
	serial := newTestServer(t)
	serial.SetBuildWorkers(1)
	parallel := newTestServer(t)
	if parallel.BuildWorkers() != DefaultBuildWorkers {
		t.Fatalf("default workers = %d, want %d", parallel.BuildWorkers(), DefaultBuildWorkers)
	}
	nameS := defineConcurrentWorld(t, serial, 1)[0]
	nameP := defineConcurrentWorld(t, parallel, 1)[0]

	pS := serial.Kernel().Spawn()
	instS, err := serial.Instantiate(nameS, pS)
	if err != nil {
		t.Fatal(err)
	}
	pP := parallel.Kernel().Spawn()
	instP, err := parallel.Instantiate(nameP, pP)
	if err != nil {
		t.Fatal(err)
	}
	if instS.Key != instP.Key {
		t.Fatalf("cache keys diverge between serial and parallel builds:\n%s\n%s", instS.Key, instP.Key)
	}
	sS, sP := serial.Stats(), parallel.Stats()
	if sS.BuildCycles != sP.BuildCycles {
		t.Fatalf("total build work diverged: serial=%d parallel=%d", sS.BuildCycles, sP.BuildCycles)
	}
	if pP.Clock.Server > pS.Clock.Server {
		t.Fatalf("parallel requester charged more than serial: %d > %d",
			pP.Clock.Server, pS.Clock.Server)
	}
}

// TestConcurrentRemoveRedefineRebuilds is the staleness regression for
// hash memoization: after Remove + redefine at the same path, the next
// instantiation must rebuild against the new content, not serve the
// memoized-hash image of the old definition.
func TestConcurrentRemoveRedefineRebuilds(t *testing.T) {
	s := newTestServer(t)
	lib := func(val int) string {
		return fmt.Sprintf(`(constraint-list "T" 0x1000000 "D" 0x41000000)
(source "c" "int rlv = %d; int rl(int x) { return x + rlv; }")`, val)
	}
	if err := s.DefineLibrary("/lib/rl", lib(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Define("/bin/rprog", `
(merge /lib/crt0.o
  (source "c" "extern int rl(int x); int main() { return rl(40); }")
  /lib/rl)
`); err != nil {
		t.Fatal(err)
	}
	inst1, err := s.Instantiate("/bin/rprog", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, code := runInstance(t, s, inst1, nil); code != 41 {
		t.Fatalf("exit = %d, want 41", code)
	}
	h1, err := s.ContentHashOf("/lib/rl")
	if err != nil {
		t.Fatal(err)
	}

	// Removing a live definer trips the rebind guard; the explicit
	// allow flag makes the remove+redefine a deliberate update.
	if err := s.Remove("/lib/rl"); err == nil {
		t.Fatal("Remove of a live definer succeeded without allow")
	}
	if err := s.RemoveAllow("/lib/rl", true); err != nil {
		t.Fatal(err)
	}
	if err := s.DefineLibrary("/lib/rl", lib(2)); err != nil {
		t.Fatal(err)
	}
	h2, err := s.ContentHashOf("/lib/rl")
	if err != nil {
		t.Fatal(err)
	}
	if h1 == h2 {
		t.Fatal("memoized content hash survived Remove + redefine")
	}
	inst2, err := s.Instantiate("/bin/rprog", nil)
	if err != nil {
		t.Fatal(err)
	}
	if inst2 == inst1 {
		t.Fatal("stale cached image served after Remove + redefine")
	}
	if _, code := runInstance(t, s, inst2, nil); code != 42 {
		t.Fatalf("rebuilt exit = %d, want 42 (new library body)", code)
	}
}

// TestConcurrentMountInvalidatesHashes: attaching or detaching a
// remote mount changes what paths can resolve to, so it must bump the
// hash generation like any namespace write.
func TestConcurrentMountInvalidatesHashes(t *testing.T) {
	s := newTestServer(t)
	g0 := s.hashGen.Load()
	s.Mount("/remote", failFetcher{})
	if s.hashGen.Load() == g0 {
		t.Fatal("Mount did not invalidate memoized hashes")
	}
	g1 := s.hashGen.Load()
	s.Unmount("/remote")
	if s.hashGen.Load() == g1 {
		t.Fatal("Unmount did not invalidate memoized hashes")
	}
}

type failFetcher struct{}

func (failFetcher) FetchMeta(string) (string, bool, error) {
	return "", false, fmt.Errorf("unavailable")
}
func (failFetcher) FetchObject(string) ([]byte, error) {
	return nil, fmt.Errorf("unavailable")
}

// TestPublishedInstancesAreComplete: an instance becomes visible — to
// cache hits, to the variants index, to a mesh peer's export — only
// once nothing about it is left to fill in.  Many goroutines miss on
// the same cold program and its cold branch-table library while a
// watcher exports every content key and reads every cached instance;
// whatever any of them sees has its placement and, for the library, its
// branch-table slots.  Run under -race: a field written after
// publication is a reported race even when the values happen to look
// right.
func TestPublishedInstancesAreComplete(t *testing.T) {
	const rounds, goroutines = 12, 8
	check := func(inst *Instance) {
		if inst.place.SolverKey == "" {
			t.Errorf("%s visible without its placement", inst.Name)
		}
		if inst.Name == "lib:/lib/cb" && len(inst.BTSlots) != 1 {
			t.Errorf("%s visible with slots %v, want app_hook's", inst.Name, inst.BTSlots)
		}
	}
	for round := 0; round < rounds; round++ {
		s := newTestServer(t)
		if err := s.DefineLibrary("/lib/cb", `
(constraint-list "T" 0x5000000 "D" 0x45000000)
(source "c" "
extern int app_hook(int x);
int drive(int x) { return app_hook(x) * 10; }
")`); err != nil {
			t.Fatal(err)
		}
		if err := s.Define("/bin/app", `
(merge /lib/crt0.o
  (source "c" "
extern int drive(int);
int app_hook(int x) { return x + 1; }
int main() { return drive(3); }
")
  (specialize "lib-branch-table" /lib/cb))`); err != nil {
			t.Fatal(err)
		}
		stop := make(chan struct{})
		var watcher sync.WaitGroup
		watcher.Add(1)
		go func() {
			defer watcher.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, ck := range s.ContentKeys() {
					if _, _, ok := s.ExportContent(ck, false); !ok {
						t.Errorf("content key %s listed but not exportable", ck)
					}
				}
				s.cacheMu.RLock()
				for _, inst := range s.cache {
					check(inst)
				}
				s.cacheMu.RUnlock()
			}
		}()
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				inst, err := s.Instantiate("/bin/app", nil)
				if err != nil {
					t.Error(err)
					return
				}
				check(inst)
				check(inst.Libs[0])
			}()
		}
		close(start)
		wg.Wait()
		close(stop)
		watcher.Wait()
		if t.Failed() {
			return
		}
	}
}

// TestMaterializeReleasesFramesOnFailure: when a later segment cannot
// be materialized, the frames already made for earlier ones go back to
// the frame table.
func TestMaterializeReleasesFramesOnFailure(t *testing.T) {
	s := newTestServer(t)
	fs := fault.New(1)
	s.Kernel().FT.Faults = fs
	if err := fs.Enable(fault.Rule{Site: fault.SiteFrameMake, Kind: fault.KindError, EveryN: 2, Count: 1}); err != nil {
		t.Fatal(err)
	}
	res := &link.Result{Image: &image.Image{Name: "/bin/two", Segments: []image.Segment{
		{Name: "text", Addr: 0x100000, Data: []byte{1}, MemSize: 3 * osim.PageSize, Perm: image.PermR | image.PermX},
		{Name: "rodata", Addr: 0x200000, Data: []byte{2}, MemSize: osim.PageSize, Perm: image.PermR},
	}}}
	base := s.Kernel().FT.Stats().Frames
	if _, _, err := s.materialize(&plan{name: "/bin/two"}, res, nil); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("err = %v, want the injected frame fault on the second segment", err)
	}
	if got := s.Kernel().FT.Stats().Frames; got != base {
		t.Fatalf("%d frames live after the failed materialize, want the baseline %d", got, base)
	}
}
