package server

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"omos/internal/jigsaw"
	"omos/internal/mgraph"
	"omos/internal/osim"
)

// A library's shape lives on the cache entry of its image: a library
// whose inputs did not change is planned from the shape its cached
// image keeps, without an m-graph evaluation, and the shape leaves the
// cache with the image.  These tests read the plan counters
// (Stats.PlanEvaluations, Stats.ShapeHits).

const (
	shapeLibSrc = `
(constraint-list "T" 0x1000000 "D" 0x41000000)
(specialize "pad" (source "c" "
int lib_val = %d;
int lib_add(int a, int b) { return a + b; }
"))`
	// shapeDepSrc imports /lib/libc, so its content hash follows libc's.
	shapeDepSrc = `
(constraint-list "T" 0x3000000 "D" 0x43000000)
(merge (source "c" "
extern int lib_add(int a, int b);
int dep_add(int a) { return lib_add(a, 1); }
") /lib/libc)`
	shapeProgSrc = `(merge /lib/crt0.o (source "c" "
extern int lib_add(int, int);
extern int lib_val;
int main() { return lib_add(lib_val, %d); }
") /lib/libc)`
)

// shapeServer is a test server with /lib/libc (lib_val = 30) and the
// "pad" specializer it uses, which appends pages of text when pages is
// non-zero.
func shapeServer(t *testing.T, pages *atomic.Int32) *Server {
	t.Helper()
	s := newTestServer(t)
	s.RegisterSpecializer("pad", padSpec(pages))
	if err := s.DefineLibrary("/lib/libc", fmt.Sprintf(shapeLibSrc, 30)); err != nil {
		t.Fatal(err)
	}
	return s
}

func padSpec(pages *atomic.Int32) SpecFunc {
	return func(_ []string, v *mgraph.Value) (*mgraph.Value, error) {
		n := pages.Load()
		if n == 0 {
			return v, nil
		}
		o, err := asmCompile(fmt.Sprintf(".text\npad_fill:\n    .space %d\n    ret\n", n*osim.PageSize))
		if err != nil {
			return nil, err
		}
		m, err := jigsaw.NewModule(o)
		if err != nil {
			return nil, err
		}
		out := *v
		if out.Module, err = jigsaw.Merge(v.Module, m); err != nil {
			return nil, err
		}
		return &out, nil
	}
}

// evals instantiates path and returns the instance and the evaluations
// and shape hits the call made.
func evals(t *testing.T, s *Server, path string) (*Instance, uint64, uint64) {
	t.Helper()
	before := s.Stats()
	inst, err := s.Instantiate(path, nil)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	after := s.Stats()
	return inst, after.PlanEvaluations - before.PlanEvaluations, after.ShapeHits - before.ShapeHits
}

// wantEvals fails the test unless instantiating path makes n
// evaluations.
func wantEvals(t *testing.T, s *Server, path string, n uint64) *Instance {
	t.Helper()
	inst, got, _ := evals(t, s, path)
	if got != n {
		t.Fatalf("%s: %d evaluations, want %d", path, got, n)
	}
	return inst
}

// shapeCount is the number of cached images, live or dormant, that
// keep a shape.
func shapeCount(s *Server) int {
	s.cacheMu.RLock()
	defer s.cacheMu.RUnlock()
	n := 0
	for _, es := range s.byShape {
		n += len(es)
	}
	return n
}

// TestShapeWarmLibraryPlanEvaluatesNothing: once a library's shape is
// known, planning it evaluates nothing — after an unrelated Define too,
// which publishes a new namespace version.  That is build-cold's op:
// each never-seen program is one evaluation, its library none.
func TestShapeWarmLibraryPlanEvaluatesNothing(t *testing.T) {
	s := shapeServer(t, new(atomic.Int32))
	cold := wantEvals(t, s, "/lib/libc", 1)
	warm, n, hits := evals(t, s, "/lib/libc")
	if n != 0 || hits != 1 || warm != cold {
		t.Fatalf("warm plan: %d evaluations, %d shape hits, same instance %v; want 0, 1, true", n, hits, warm == cold)
	}
	if err := s.Define("/bin/unrelated", fmt.Sprintf(shapeProgSrc, 0)); err != nil {
		t.Fatal(err)
	}
	if got := wantEvals(t, s, "/lib/libc", 0); got != cold {
		t.Fatal("a Define elsewhere changed libc's instance")
	}
	for i := 1; i <= 3; i++ {
		p := fmt.Sprintf("/bin/gen%d", i)
		if err := s.Define(p, fmt.Sprintf(shapeProgSrc, i)); err != nil {
			t.Fatal(err)
		}
		inst := wantEvals(t, s, p, 1)
		if _, code := runInstance(t, s, inst, nil); code != uint64(30+i) {
			t.Fatalf("%s exited %d, want %d", p, code, 30+i)
		}
		s.Evict(p)
		if err := s.Remove(p); err != nil {
			t.Fatal(err)
		}
	}
}

// TestShapeInvalidation: each change to an input of libc's evaluation
// costs exactly one fresh evaluation, and the next plan is warm again.
// A Remove and a Define of the same text change no input: libc's
// cached image keeps its shape across them, so that costs none.
func TestShapeInvalidation(t *testing.T) {
	for _, tc := range []struct {
		name   string
		evals  uint64
		change func(t *testing.T, s *Server)
	}{
		{"redefine", 1, func(t *testing.T, s *Server) {
			if err := s.DefineLibraryAllow("/lib/libc", fmt.Sprintf(shapeLibSrc, 31), true); err != nil {
				t.Fatal(err)
			}
		}},
		{"pic", 1, func(t *testing.T, s *Server) { s.PICSource = !s.PICSource }},
		{"specializer", 1, func(t *testing.T, s *Server) {
			s.RegisterSpecializer("pad", padSpec(new(atomic.Int32)))
		}},
		{"remove-define", 0, func(t *testing.T, s *Server) {
			if err := s.Remove("/lib/libc"); err != nil {
				t.Fatal(err)
			}
			if err := s.DefineLibrary("/lib/libc", fmt.Sprintf(shapeLibSrc, 30)); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := shapeServer(t, new(atomic.Int32))
			wantEvals(t, s, "/lib/libc", 1)
			wantEvals(t, s, "/lib/libc", 0)
			tc.change(t, s)
			wantEvals(t, s, "/lib/libc", tc.evals)
			wantEvals(t, s, "/lib/libc", 0)
		})
	}
}

// TestShapeSourceRoundTrip: a library whose source returns to an
// earlier text is planned from the shape its still-cached image keeps.
// Text A, then B, then A again evaluates A once and B once, and the
// third answer is A's first image.  (A Remove and a Define of the same
// text is TestShapeInvalidation's remove-define.)
func TestShapeSourceRoundTrip(t *testing.T) {
	s := shapeServer(t, new(atomic.Int32))
	define := func(v int) {
		t.Helper()
		if err := s.DefineLibraryAllow("/lib/libc", fmt.Sprintf(shapeLibSrc, v), true); err != nil {
			t.Fatal(err)
		}
	}
	a := wantEvals(t, s, "/lib/libc", 1)
	define(31)
	wantEvals(t, s, "/lib/libc", 1)
	define(30)
	if inst, n, hits := evals(t, s, "/lib/libc"); n != 0 || hits != 1 || inst != a {
		t.Fatalf("text A again: %d evaluations, %d shape hits, A's first image %v; want 0, 1, true", n, hits, inst == a)
	}
}

// TestShapeUpgradeCohorts: an epoch's v1 and v2 images each keep their
// own shape, so the two cohorts alternate without evaluating: staging
// v2 costs its one evaluation, and nothing evaluates or links after
// commit or rollback.
func TestShapeUpgradeCohorts(t *testing.T) {
	for _, commit := range []bool{true, false} {
		t.Run(fmt.Sprintf("commit=%v", commit), func(t *testing.T) {
			s := shapeServer(t, new(atomic.Int32))
			dep := mgraph.LibDep{Path: "/lib/libc"}
			meta, err := s.current().LookupMeta("/lib/libc")
			if err != nil {
				t.Fatal(err)
			}
			dep.Spec = meta.DefaultSpec
			v1 := wantEvals(t, s, "/lib/libc", 1)
			if _, err := s.UpgradeStart(0); err != nil {
				t.Fatal(err)
			}
			if err := s.UpgradeStage("/lib/libc", fmt.Sprintf(shapeLibSrc, 32), true); err != nil {
				t.Fatal(err)
			}
			// cohort instantiates libc in the v2 cohort's version.
			cohort := func() *Instance {
				t.Helper()
				ctx := withVersion(context.Background(), s.ns.Load().staged)
				inst, err := s.inNode(ctx, libTarget(dep), true, nil)
				if err != nil {
					t.Fatal(err)
				}
				return inst
			}
			before := s.Stats().PlanEvaluations
			v2 := cohort()
			for i := 0; i < 3; i++ {
				if got := wantEvals(t, s, "/lib/libc", 0); got != v1 {
					t.Fatal("the v1 cohort's libc changed")
				}
				if got := cohort(); got != v2 {
					t.Fatal("the v2 cohort's libc changed")
				}
			}
			if n := s.Stats().PlanEvaluations - before; n != 1 {
				t.Fatalf("the epoch's cohorts made %d evaluations, want v2's one", n)
			}
			want := v1
			if commit {
				want = v2
				if err := s.UpgradeCommit(); err != nil {
					t.Fatal(err)
				}
			} else if err := s.UpgradeRollback("test"); err != nil {
				t.Fatal(err)
			}
			// Either way the surviving version's image is still cached: a
			// rollback releases only what v2 built.
			built := s.Stats().ImagesBuilt
			inst, n, hits := evals(t, s, "/lib/libc")
			if n != 0 || hits != 1 || s.Stats().ImagesBuilt != built {
				t.Fatalf("after the epoch: %d evaluations, %d shape hits, %d images built; want 0, 1, 0",
					n, hits, s.Stats().ImagesBuilt-built)
			}
			if inst != want {
				t.Fatal("after the epoch libc is not the surviving version's cached image")
			}
			wantEvals(t, s, "/lib/libc", 0)
		})
	}
}

// TestShapeStaleGuard: a library planned from its shape is evaluated at
// its link, and linked only if it still has that shape.  Here libc's
// image is built into a store, a restarted server attaches its record
// (and the shape the record keeps) and places a neighbour right after
// it, libc's record body is damaged so that waking it fails, and the
// "pad" specializer grows its output: through re-registration (every
// cached image is retired, its shape with it, and the plan evaluates)
// or silently, while it stays registered (the shape is stale, the
// link's evaluation finds out).  Either way one evaluation is made,
// and libc lands where it fits.
func TestShapeStaleGuard(t *testing.T) {
	for _, reregister := range []bool{true, false} {
		t.Run(fmt.Sprintf("reregister=%v", reregister), func(t *testing.T) {
			dir := t.TempDir()
			first := shapeServer(t, new(atomic.Int32))
			first.AttachStore(openStore(t, dir, 0))
			old := wantEvals(t, first, "/lib/libc", 1)
			if err := first.CloseStore(); err != nil {
				t.Fatal(err)
			}
			flipBlobByte(t, dir, old.Key, func(n int) int { return n - 1 })
			pages := new(atomic.Int32)
			s := newTestServer(t)
			s.RegisterSpecializer("pad", padSpec(pages))
			s.AttachStore(openStore(t, dir, 0))
			if err := s.DefineLibrary("/lib/libc", fmt.Sprintf(shapeLibSrc, 30)); err != nil {
				t.Fatal(err)
			}
			textEnd := old.place.TextBase + osim.PageAlign(old.place.TextSize)
			dataEnd := old.place.DataBase + osim.PageAlign(old.place.DataSize)
			if err := s.DefineLibrary("/lib/nb", fmt.Sprintf(`(constraint-list "T" %#x "D" %#x)
(source "c" "int nb_get() { return 5; }")`, textEnd, dataEnd)); err != nil {
				t.Fatal(err)
			}
			nb := wantEvals(t, s, "/lib/nb", 1)
			if nb.place.TextBase != textEnd {
				t.Fatalf("neighbour placed at %#x, want right after libc at %#x", nb.place.TextBase, textEnd)
			}
			if reregister {
				pages = new(atomic.Int32)
				s.RegisterSpecializer("pad", padSpec(pages))
			}
			pages.Store(2)
			grown, n, hits := evals(t, s, "/lib/libc")
			if n != 1 {
				t.Fatalf("%d evaluations, want 1", n)
			}
			if hits != map[bool]uint64{true: 0, false: 1}[reregister] {
				t.Fatalf("%d shape hits", hits)
			}
			if grown.Res.TextSize < old.Res.TextSize+2*osim.PageSize {
				t.Fatalf("libc text %#x, want the padded size (was %#x)", grown.Res.TextSize, old.Res.TextSize)
			}
			if grown.place.TextSize != grown.Res.TextSize {
				t.Fatalf("libc placed for %#x bytes of text, linked %#x", grown.place.TextSize, grown.Res.TextSize)
			}
			gEnd := grown.Res.TextBase + grown.Res.TextSize
			if grown.Res.TextBase < nb.Res.TextBase+nb.Res.TextSize && nb.Res.TextBase < gEnd {
				t.Fatalf("libc text %#x-%#x overlaps its neighbour's at %#x", grown.Res.TextBase, gEnd, nb.Res.TextBase)
			}
			wantEvals(t, s, "/lib/libc", 0)
		})
	}
}

// TestShapeMemoBound: a library's shapes are bounded by its cached
// images.  A thousand content changes of one library, each evicted with
// the library importing it, leave no shape behind, and the next plan of
// each evaluates again.
func TestShapeMemoBound(t *testing.T) {
	s := shapeServer(t, new(atomic.Int32))
	if err := s.DefineLibrary("/lib/libdep", shapeDepSrc); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if err := s.DefineLibraryAllow("/lib/libc", fmt.Sprintf(shapeLibSrc, i), true); err != nil {
			t.Fatal(err)
		}
		wantEvals(t, s, "/lib/libdep", 2)
		if n := shapeCount(s); n != 2 {
			t.Fatalf("change %d: %d cached images keep a shape, want libc's and libdep's", i, n)
		}
		s.Evict("/lib/libc")
		if n := shapeCount(s); n != 0 {
			t.Fatalf("change %d: %d shapes left after their images were evicted", i, n)
		}
	}
}

// TestShapeRestartEvaluatesNoLibrary: each library record keeps its
// shape, so a server restarted on the store plans libc from the
// record's head: its second session evaluates only the program, once
// per request, and builds nothing.  The store is attached before the
// namespace is defined, as a daemon boots.
func TestShapeRestartEvaluatesNoLibrary(t *testing.T) {
	dir := t.TempDir()
	for session := 0; session < 2; session++ {
		s := newTestServer(t)
		s.RegisterSpecializer("pad", padSpec(new(atomic.Int32)))
		s.AttachStore(openStore(t, dir, 0))
		if err := s.DefineLibrary("/lib/libc", fmt.Sprintf(shapeLibSrc, 30)); err != nil {
			t.Fatal(err)
		}
		if err := s.Define("/bin/app", fmt.Sprintf(shapeProgSrc, 12)); err != nil {
			t.Fatal(err)
		}
		first := map[int]uint64{0: 2, 1: 1}[session] // the program, and libc in the first session
		wantEvals(t, s, "/bin/app", first)
		wantEvals(t, s, "/bin/app", 1)
		if st := s.Stats(); session == 1 && (st.ImagesBuilt != 0 || st.ShapeHits != 2) {
			t.Fatalf("restarted session built %d images with %d shape hits, want 0 and 2", st.ImagesBuilt, st.ShapeHits)
		}
		if err := s.CloseStore(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestShapeMemoConcurrentPlans plans libc from 8 goroutines against one
// server while one of them evicts it and defines and removes
// unrelated programs: run under -race.  An eviction takes libc's shape
// along, so each planner evaluates libc at most once per eviction.
// Then all 8 plan a program and its library at once right after a
// Define, so each computes the fresh version's hashes: they agree on
// one key, and one image is built.
func TestShapeMemoConcurrentPlans(t *testing.T) {
	s := shapeServer(t, new(atomic.Int32))
	want := wantEvals(t, s, "/lib/libc", 1)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if g == 0 {
					s.Evict("/lib/libc")
					p := fmt.Sprintf("/bin/x%d", i)
					if err := s.Define(p, fmt.Sprintf(shapeProgSrc, i)); err != nil {
						errs <- err
						return
					}
					if err := s.Remove(p); err != nil {
						errs <- err
						return
					}
				}
				inst, err := s.Instantiate("/lib/libc", nil)
				if err != nil {
					errs <- err
					return
				}
				if inst.ContentKey != want.ContentKey || inst.Res.TextBase != want.Res.TextBase {
					errs <- fmt.Errorf("goroutine %d: libc at %#x with content %s, want %#x, %s",
						g, inst.Res.TextBase, inst.ContentKey, want.Res.TextBase, want.ContentKey)
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
	if n := shapeCount(s); n != 1 {
		t.Fatalf("%d cached images keep a shape, want libc's one", n)
	}
	if st := s.Stats(); st.PlanEvaluations > 1+8*20 {
		t.Fatalf("%d evaluations for one cold plan and 8 planners across 20 evictions", st.PlanEvaluations)
	}

	if err := s.Define("/bin/fresh", fmt.Sprintf(shapeProgSrc, 99)); err != nil {
		t.Fatal(err)
	}
	built := s.Stats().ImagesBuilt
	keys := make([]string, 8)
	start := make(chan struct{})
	for g := range keys {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			inst, err := s.Instantiate("/bin/fresh", nil)
			if err != nil {
				t.Errorf("goroutine %d: %v", g, err)
				return
			}
			keys[g] = inst.Key
		}(g)
	}
	close(start)
	wg.Wait()
	for g, k := range keys {
		if k != keys[0] {
			t.Fatalf("goroutine %d planned /bin/fresh under key %q, goroutine 0 under %q", g, k, keys[0])
		}
	}
	if n := s.Stats().ImagesBuilt - built; n != 1 {
		t.Fatalf("%d images built for one program on a fresh version, want 1", n)
	}
}
