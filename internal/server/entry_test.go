package server

import (
	"encoding/hex"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"omos/internal/store"
)

// entryLibSrc is a library the entry-invariant world places at several
// bases, one per constrain in entryProgSrc.
const entryLibSrc = `(source "c" "
int inv_base = 40;
int inv_get() { return inv_base; }
")`

// entryProgSrc returns program i of the entry-invariant world: it links
// /lib/inv at base (text, data) and exits 40+i.  Programs given the same
// base share one library instance.
func entryProgSrc(i int, text, data uint64) string {
	return fmt.Sprintf(`(merge /lib/crt0.o (source "c" "
extern int inv_get();
int main() { return inv_get() + %d; }
") (constrain "T" %#x "D" %#x /lib/inv))`, i, text, data)
}

// entryWorld is the entry-invariant world: four programs placing one
// library at three bases (the first and last share one).
type entryWorld struct{ progs, srcs []string }

func newEntryWorld() entryWorld {
	bases := [][2]uint64{{0x2000000, 0x42000000}, {0x3000000, 0x43000000}, {0x3800000, 0x43800000}, {0x2000000, 0x42000000}}
	var w entryWorld
	for i, b := range bases {
		w.progs = append(w.progs, fmt.Sprintf("/bin/q%d", i))
		w.srcs = append(w.srcs, entryProgSrc(i, b[0], b[1]))
	}
	return w
}

func (w entryWorld) define(t *testing.T, s *Server) {
	t.Helper()
	if err := s.DefineLibrary("/lib/inv", entryLibSrc); err != nil {
		t.Fatal(err)
	}
	for i, p := range w.progs {
		if err := s.Define(p, w.srcs[i]); err != nil {
			t.Fatal(err)
		}
	}
}

// checkEntries checks the cache's one-entry-per-key invariants: every
// entry sits under its own key, and a live one carries its instance's
// key, name, content key, placement and library keys; the content index holds an entry under its content key, and the shape
// index one that keeps a shape under the shape's key, exactly when
// entries holds it; a dormant entry exists only while a store is
// attached; a checksum is that of the blob on disk; and every listed
// content key exports.
func checkEntries(t *testing.T, s *Server, step string) {
	t.Helper()
	var bad []string
	sums := map[string]string{}
	s.cacheMu.RLock()
	st := s.store
	for key, e := range s.entries {
		switch {
		case e.key != key:
			bad = append(bad, fmt.Sprintf("entry under %s carries key %s", key, e.key))
		case e.inst == nil && st == nil:
			bad = append(bad, fmt.Sprintf("dormant entry %s with no store attached", key))
		case e.inst != nil:
			var libs []string
			for _, li := range e.inst.Libs {
				libs = append(libs, li.Key)
			}
			if e.inst.Key != key || e.name != e.inst.Name || e.ckey != e.inst.ContentKey || e.place != e.inst.place || !slices.Equal(e.libs, libs) {
				bad = append(bad, fmt.Sprintf("live entry %s (%s, content %s, %+v, libs %v) is not its instance's (%s %s, content %s, %+v, libs %v)",
					key, e.name, e.ckey, e.place, e.libs, e.inst.Key, e.inst.Name, e.inst.ContentKey, e.inst.place, libs))
			}
		}
		if e.ckey != "" {
			n := 0
			for _, x := range s.byContent[e.ckey] {
				if x == e {
					n++
				}
			}
			if n != 1 {
				bad = append(bad, fmt.Sprintf("entry %s indexed %d times under its content key", key, n))
			}
		}
		if e.shape != nil {
			n := 0
			for _, x := range s.byShape[e.shape.key] {
				if x == e {
					n++
				}
			}
			if n != 1 {
				bad = append(bad, fmt.Sprintf("entry %s indexed %d times under its shape key", key, n))
			}
		}
		if e.sum != "" {
			sums[key] = e.sum
		}
	}
	for k, es := range s.byShape {
		if len(es) == 0 {
			bad = append(bad, fmt.Sprintf("empty shape index list under %+v", k))
		}
		for _, e := range es {
			if e.shape == nil || e.shape.key != k || s.entries[e.key] != e {
				bad = append(bad, fmt.Sprintf("shape index under %+v holds an entry entries does not", k))
			}
		}
	}
	for ck, es := range s.byContent {
		if len(es) == 0 {
			bad = append(bad, fmt.Sprintf("empty index list under %s", ck))
		}
		for _, e := range es {
			if e.ckey != ck || s.entries[e.key] != e {
				bad = append(bad, fmt.Sprintf("index under %s holds an entry entries does not", ck))
			}
		}
	}
	s.cacheMu.RUnlock()
	if st != nil {
		for key, sum := range sums {
			b, ok, err := st.GetHead(key)
			if err != nil || !ok {
				bad = append(bad, fmt.Sprintf("entry %s carries a checksum but its blob is gone (%v)", key, err))
				continue
			}
			h, err := store.DecodeHead(b)
			if err != nil || hex.EncodeToString(h.Sum[:]) != sum {
				bad = append(bad, fmt.Sprintf("entry %s checksum %s is not its blob's (%v)", key, sum, err))
			}
		}
	}
	for _, ck := range s.ContentKeys() {
		if _, ok := s.ExportContent(ck); !ok {
			bad = append(bad, fmt.Sprintf("content key %s listed but not exportable", ck))
		}
	}
	if len(bad) > 0 {
		t.Fatalf("after %s:\n  %s", step, strings.Join(bad, "\n  "))
	}
}

// TestCacheEntryInvariants drives a library placed at several bases by
// several programs, over a store too small for all of their images,
// through seeded random sequences of instantiate-and-run, Evict,
// Remove-then-Define, ExportTable, ExportContent and restarts — in
// place (CloseStore, then AttachStore on the same directory) or as a
// new server on the directory, whose records all begin dormant — and
// checks the entry invariants after every operation.  Each seed starts
// from a store a first session filled.
func TestCacheEntryInvariants(t *testing.T) {
	w := newEntryWorld()
	for seed := int64(1); seed <= 10; seed++ {
		dir := t.TempDir()
		s0 := newTestServer(t)
		s0.AttachStore(openStore(t, dir, 0))
		w.define(t, s0)
		for _, p := range w.progs {
			if _, err := s0.Instantiate(p, nil); err != nil {
				t.Fatal(err)
			}
		}
		budget := int64(s0.Stats().StoreBytes) / 2
		if err := s0.CloseStore(); err != nil {
			t.Fatal(err)
		}

		s := newTestServer(t)
		s.AttachStore(openStore(t, dir, budget))
		w.define(t, s)
		checkEntries(t, s, fmt.Sprintf("seed %d attach", seed))
		rng := rand.New(rand.NewSource(seed))
		for op := 0; op < 200; op++ {
			i := rng.Intn(len(w.progs))
			var step string
			switch rng.Intn(7) {
			case 0:
				step = "run " + w.progs[i]
				inst, err := s.Instantiate(w.progs[i], nil)
				if err != nil {
					t.Fatal(err)
				}
				p, code := runInstance(t, s, inst, nil)
				p.Release()
				if code != uint64(40+i) {
					t.Fatalf("seed %d op %d: %s exit = %d, want %d", seed, op, w.progs[i], code, 40+i)
				}
			case 1:
				target := w.progs[i]
				if rng.Intn(3) == 0 {
					target = "/lib/inv"
				}
				step = "evict " + target
				s.Evict(target)
			case 2:
				step = "remove and define " + w.progs[i]
				if err := s.Remove(w.progs[i]); err != nil {
					t.Fatal(err)
				}
				if err := s.Define(w.progs[i], w.srcs[i]); err != nil {
					t.Fatal(err)
				}
			case 3:
				step = "export table of " + w.progs[i] + "'s library"
				inst, err := s.Instantiate(w.progs[i], nil)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := s.ExportTable(inst.Libs[0]); err != nil {
					t.Fatal(err)
				}
			case 4:
				s.cacheMu.RLock()
				var cks []string
				for ck := range s.byContent {
					cks = append(cks, ck)
				}
				s.cacheMu.RUnlock()
				if len(cks) == 0 {
					continue
				}
				sort.Strings(cks)
				ck := cks[rng.Intn(len(cks))]
				step = "export content " + ck
				has := s.HasVariant(ck)
				if _, ok := s.ExportContent(ck); has && !ok {
					t.Fatalf("seed %d op %d: held variant of %s not exportable", seed, op, ck)
				}
			case 5:
				step = "restart in place"
				if err := s.CloseStore(); err != nil {
					t.Fatal(err)
				}
				s.AttachStore(openStore(t, dir, budget))
			case 6:
				step = "restart as a new server"
				if err := s.CloseStore(); err != nil {
					t.Fatal(err)
				}
				s = newTestServer(t)
				s.AttachStore(openStore(t, dir, budget))
				w.define(t, s)
			}
			checkEntries(t, s, fmt.Sprintf("seed %d op %d (%s)", seed, op, step))
		}
		if err := s.CloseStore(); err != nil {
			t.Fatal(err)
		}
	}
}
