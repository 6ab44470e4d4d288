package server

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"omos/internal/store"
)

// The history oracle: seeded random sequences of namespace changes,
// specializer registrations, evictions and restarts on one store,
// interleaved with instantiations.  Every memo the server keeps — the
// m-graph hash memo, the image entries live and dormant with the
// library shapes they keep (a dormant one's read from its store record
// after a restart), the binding tables, the solver's placements — is
// an implementation of "evaluate and link it fresh", and after each
// instantiation the answer is compared with that of a fresh server
// given only the current namespace: image bytes, symbol and export
// tables, binding table.  An evaluation that only recomputed the key
// of an image the server already held fails the test: that image's
// entry keeps the shape which plans it without one.

// histDefs is the history's namespace, libraries first: each source
// takes a variant number, so a Define can change a source or repeat
// it.  la goes through the "pad" specializer; lb imports la, pa la and
// pb lb.  Every image has its own placement preference, far from the
// others, so a fresh server places each where the history's does.
var histDefs = [...]struct {
	path, src string
	lib       bool
}{
	{"/lib/la", `(constraint-list "T" 0x1000000 "D" 0x41000000)
(specialize "pad" (source "c" "
int la_val = %d;
int la_add(int a, int b) { return a + b + la_val; }
"))`, true},
	{"/lib/lb", `(constraint-list "T" 0x3000000 "D" 0x43000000)
(merge (source "c" "
extern int la_add(int a, int b);
int lb_val = %d;
int lb_f(int x) { return la_add(x, lb_val); }
") /lib/la)`, true},
	{"/bin/pa", `(constraint-list "T" 0x5000000 "D" 0x45000000)
(merge /lib/crt0.o (source "c" "
extern int la_add(int, int);
int main() { return la_add(%d, 1); }
") /lib/la)`, false},
	{"/bin/pb", `(constraint-list "T" 0x6000000 "D" 0x46000000)
(merge /lib/crt0.o (source "c" "
extern int lb_f(int);
int main() { return lb_f(%d); }
") /lib/lb)`, false},
}

// define defines histDefs[i] in variant v.
func define(s *Server, i, v int) error {
	d := histDefs[i]
	if d.lib {
		return s.DefineLibraryAllow(d.path, fmt.Sprintf(d.src, v), true)
	}
	return s.DefineAllow(d.path, fmt.Sprintf(d.src, v), true)
}

// histNS is the history's namespace as a fresh server is given it: the
// variant of each of histDefs, the code generation mode and the pad
// specializer's growth in pages.
type histNS struct {
	variant [len(histDefs)]int
	pic     bool
	pages   int32
}

// start boots a server on ns as a daemon boots: the specializer
// registered, st attached (when non-nil), then every path defined.
func (ns *histNS) start(t *testing.T, st *store.Store) *Server {
	t.Helper()
	s := newTestServer(t)
	s.PICSource = ns.pic
	pages := new(atomic.Int32)
	pages.Store(ns.pages)
	s.RegisterSpecializer("pad", padSpec(pages))
	if st != nil {
		s.AttachStore(st)
	}
	for i, v := range ns.variant {
		if err := define(s, i, v); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// history is one run: the server under test on its store, the
// namespace it was given, the evaluations it made, and how many of
// those only recomputed the key of an image the server already held.
type history struct {
	t      *testing.T
	dir    string
	s      *Server
	ns     histNS
	checks uint64
	evals  uint64
	excess uint64
	// untabled counts answers served with no binding table describing
	// them.  Each one must follow a Remove of its path: Remove forgets
	// the path's tables, but a same-source redefine serves the cached
	// image again, with none until its next link searches.  removed
	// holds the paths removed since an answer for them last had a table;
	// unremoved counts the untabled answers of any other path.
	untabled, unremoved uint64
	removed             map[string]bool
	ops                 []string // what the history did so far, for a failure to show
}

// step runs one random operation.
func (h *history) step(r *rand.Rand) {
	h.t.Helper()
	s := h.s
	op := r.Intn(10)
	defer func() { h.ops = append(h.ops, fmt.Sprintf("%d:%+v", op, h.ns)) }()
	switch op {
	case 0, 1: // Define a library or a program, changed or identical
		i, v := r.Intn(len(histDefs)), r.Intn(2)
		if err := define(s, i, v); err != nil {
			h.t.Fatal(err)
		}
		h.ns.variant[i] = v
	case 2: // a PICSource flip
		h.ns.pic = !h.ns.pic
		s.PICSource = h.ns.pic
	case 3: // RegisterSpecializer, with the same or another growth
		h.ns.pages = int32(r.Intn(2))
		pages := new(atomic.Int32)
		pages.Store(h.ns.pages)
		s.RegisterSpecializer("pad", padSpec(pages))
	case 4: // Evict
		s.Evict(histDefs[r.Intn(len(histDefs))].path)
	case 5: // Remove + Define
		i, v := r.Intn(len(histDefs)), r.Intn(2)
		if err := s.RemoveAllow(histDefs[i].path, true); err != nil {
			h.t.Fatal(err)
		}
		h.removed[histDefs[i].path] = true
		if err := define(s, i, v); err != nil {
			h.t.Fatal(err)
		}
		h.ns.variant[i] = v
	case 6: // a restart on the same store, every blob older than its index
		if err := s.CloseStore(); err != nil {
			h.t.Fatal(err)
		}
		AgeBlobs(h.t, h.dir)
		h.s = h.ns.start(h.t, openStore(h.t, h.dir, 0))
		// Each head attach read came from the index: it was attached or,
		// failing its checks, rejected.
		if st := h.s.Stats(); st.StoreIndexHeads != st.WarmLoaded+st.StoreCorrupt {
			h.t.Fatalf("restart after %v: %d heads from the index, %d attached, %d rejected",
				h.ops, st.StoreIndexHeads, st.WarmLoaded, st.StoreCorrupt)
		}
	default: // Instantiate
		h.check(histDefs[r.Intn(len(histDefs))].path)
	}
}

// check instantiates path on the history's server and on a fresh one
// given only the current namespace, and fails the test unless the two
// answers are the same image, bound the same way.
func (h *history) check(path string) {
	h.t.Helper()
	h.checks++
	before := h.s.Stats()
	got, err := h.s.Instantiate(path, nil)
	if err != nil {
		h.t.Fatalf("%s: %v", path, err)
	}
	after := h.s.Stats()
	n := after.PlanEvaluations - before.PlanEvaluations
	h.evals += n
	// An answer that built and slid nothing needed no module: past the
	// program's own evaluation, each one it made only recomputed a key.
	if after.ImagesBuilt == before.ImagesBuilt && after.Rebases == before.Rebases {
		if got.Res.Image.Entry != 0 {
			n-- // a program: planning one evaluates it
		}
		h.excess += n
	}

	fresh := h.ns.start(h.t, nil)
	want, err := fresh.Instantiate(path, nil)
	if err != nil {
		h.t.Fatalf("fresh %s: %v", path, err)
	}
	diff, untabled := sameImage(fresh, want, h.s, got)
	if diff != "" {
		h.t.Fatalf("%s differs from a fresh server's after %v: %s", path, h.ops, diff)
	}
	if untabled {
		h.untabled++
		if !h.removed[path] {
			h.unremoved++
			h.t.Errorf("%s after %v: no binding table describes the answer, and the path was not removed since one did", path, h.ops)
		}
	} else {
		delete(h.removed, path)
	}
}

// sameImage compares two instances, each read through its own server:
// the encoded reconstruction record (segments as materialized in
// frames, symbols with their sizes, kinds and segments, entry,
// placement, keys, patch sites, binding table, library pins, shape)
// with the fields that name a session rather than the image cleared —
// the namespace generation of the binding table and the store
// checksums pins carry — and the in-memory symbol and export tables.
// It returns "" when they agree, else the first field that differs.
// A binding table is compared when got's server holds one describing
// got; untabled reports that it holds none.
func sameImage(ws *Server, want *Instance, gs *Server, got *Instance) (diff string, untabled bool) {
	norm := func(s *Server, inst *Instance) *store.Record {
		rec, err := s.recordOf(inst)
		if err != nil {
			return nil
		}
		rec.Gen = 0
		pins := make([]store.LibPin, len(rec.Pins))
		for i, p := range rec.Pins {
			pins[i] = store.LibPin{LibKey: p.LibKey, ContentKey: p.ContentKey}
		}
		rec.Pins = pins
		return rec
	}
	w, g := norm(ws, want), norm(gs, got)
	if w == nil || g == nil {
		return "frames released", false
	}
	if g.Bindings == nil && w.Bindings != nil {
		untabled, w.Bindings = true, nil
	}
	wb, _ := store.Encode(w)
	gb, _ := store.Encode(g)
	if string(wb) != string(gb) {
		wv, gv := reflect.ValueOf(*w), reflect.ValueOf(*g)
		for i := 0; i < wv.NumField(); i++ {
			if !reflect.DeepEqual(wv.Field(i).Interface(), gv.Field(i).Interface()) {
				return fmt.Sprintf("%s:\n got  %.300s\n want %.300s", wv.Type().Field(i).Name,
					fmt.Sprint(gv.Field(i).Interface()), fmt.Sprint(wv.Field(i).Interface())), untabled
			}
		}
		return "encoded record", untabled
	}
	if !reflect.DeepEqual(want.Res.Image.Syms, got.Res.Image.Syms) {
		return "symbol table", untabled
	}
	if !reflect.DeepEqual(want.Res.Exports, got.Res.Exports) {
		return "export table", untabled
	}
	return "", untabled
}

// TestHistoryOracle runs 200 seeded histories of 24 operations each.
// Most of its time is the history servers' store writes.
func TestHistoryOracle(t *testing.T) {
	const histories, steps = 200, 24
	var evals, excess, untabled, unremoved, checks uint64
	for seed := 0; seed < histories; seed++ {
		h := &history{t: t, dir: t.TempDir(), removed: map[string]bool{}}
		h.s = h.ns.start(t, openStore(t, h.dir, 0))
		r := rand.New(rand.NewSource(int64(seed)))
		for i := 0; i < steps; i++ {
			h.step(r)
		}
		if err := h.s.CloseStore(); err != nil {
			t.Fatal(err)
		}
		evals += h.evals
		excess += h.excess
		untabled += h.untabled
		unremoved += h.unremoved
		checks += h.checks
	}
	t.Logf("%d histories, %d answers checked: %d evaluations, %d of them only recomputed the key of an image already held; %d answers had no binding table describing them, %d after a Remove of their path and %d not",
		histories, checks, evals, excess, untabled, untabled-unremoved, unremoved)
	if excess != 0 {
		t.Fatalf("%d evaluations only recomputed the key of an image already held, want 0", excess)
	}
}

// TestPICFlipRebuilds: the history oracle found that image keys left
// out the code generation mode, so after a PICSource flip a program and
// its library were served as compiled in the other mode.  The mode is
// part of an image's identity now: the flip is answered with new
// images, a fresh server's.
func TestPICFlipRebuilds(t *testing.T) {
	var ns histNS
	s := ns.start(t, nil)
	before, err := s.Instantiate("/bin/pa", nil)
	if err != nil {
		t.Fatal(err)
	}
	ns.pic, s.PICSource = true, true
	got, err := s.Instantiate("/bin/pa", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got == before || got.Libs[0] == before.Libs[0] {
		t.Fatalf("after the flip: program rebuilt %v, library rebuilt %v", got != before, got.Libs[0] != before.Libs[0])
	}
	fresh := ns.start(t, nil)
	want, err := fresh.Instantiate("/bin/pa", nil)
	if err != nil {
		t.Fatal(err)
	}
	if diff, _ := sameImage(fresh, want, s, got); diff != "" {
		t.Fatalf("differs from a fresh PIC server's: %s", diff)
	}
}

// TestReregisteredSpecializerRebuilds: the history oracle found that
// replacing the "pad" specializer with one whose output grows was
// answered with the image the replaced function built: la was placed
// again at its preferred bases, so its key did not change.  Replacing
// a kind now retires every cached image.  A kind registered after a
// restart attached the store starts a new generation too, and the
// shapes the store's records keep do not plan under it.
func TestReregisteredSpecializerRebuilds(t *testing.T) {
	var ns histNS
	s := ns.start(t, nil)
	before, err := s.Instantiate("/lib/la", nil)
	if err != nil {
		t.Fatal(err)
	}
	ns.pages = 1
	pages := new(atomic.Int32)
	pages.Store(ns.pages)
	s.RegisterSpecializer("pad", padSpec(pages))
	got, err := s.Instantiate("/lib/la", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.place.TextBase != before.place.TextBase || got.Res.TextSize <= before.Res.TextSize {
		t.Fatalf("la at %#x with %#x bytes of text, was %#x with %#x; want the grown image at the same base",
			got.place.TextBase, got.Res.TextSize, before.place.TextBase, before.Res.TextSize)
	}
	fresh := ns.start(t, nil)
	want, err := fresh.Instantiate("/lib/la", nil)
	if err != nil {
		t.Fatal(err)
	}
	if diff, _ := sameImage(fresh, want, s, got); diff != "" {
		t.Fatalf("differs from a fresh server's: %s", diff)
	}

	// Across a restart: la's store record keeps its shape, which attach
	// keys under the specializer generation of that moment.  Registering
	// "pad" after the store is attached starts a new generation, in
	// which that shape must not plan la, even once the record is woken
	// (here by a mesh export, which plans nothing): the first request
	// evaluates la, whose key is the record's; the entry then holds the
	// shape of that evaluation, which plans the second.
	dir := t.TempDir()
	first := ns.start(t, openStore(t, dir, 0))
	stored, err := first.Instantiate("/lib/la", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := first.CloseStore(); err != nil {
		t.Fatal(err)
	}
	restarted := newTestServer(t)
	restarted.AttachStore(openStore(t, dir, 0))
	restarted.RegisterSpecializer("pad", padSpec(pages))
	for i, v := range ns.variant {
		if err := define(restarted, i, v); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := restarted.ExportContent(stored.ContentKey); !ok {
		t.Fatal("la's record was not woken for export")
	}
	for i := uint64(0); i < 2; i++ {
		before := restarted.Stats()
		got, err := restarted.Instantiate("/lib/la", nil)
		if err != nil {
			t.Fatal(err)
		}
		after := restarted.Stats()
		if evals, hits := after.PlanEvaluations-before.PlanEvaluations, after.ShapeHits-before.ShapeHits; evals != 1-i || hits != i {
			t.Fatalf("restarted request %d: %d evaluations, %d shape hits; want %d, %d", i, evals, hits, 1-i, i)
		}
		if after.ImagesBuilt != 0 || after.StoreLoads != 1 {
			t.Fatalf("restarted request %d: %d images built, %d records read; want the woken record served", i, after.ImagesBuilt, after.StoreLoads)
		}
		restarted.cacheMu.RLock()
		sh := restarted.entries[got.Key].shape
		restarted.cacheMu.RUnlock()
		if gen := restarted.ns.Load().specGen; sh == nil || sh.key.specGen != gen {
			t.Fatalf("restarted request %d: la's entry keeps shape %+v, want one measured under generation %d", i, sh, gen)
		}
		if diff, _ := sameImage(fresh, want, restarted, got); diff != "" {
			t.Fatalf("restarted request %d differs from a fresh server's: %s", i, diff)
		}
	}
}
