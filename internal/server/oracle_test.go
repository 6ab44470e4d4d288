package server_test

// The fast-path oracle.  Every way an image can come into being other
// than a full link with a fresh symbol search — replaying a recorded
// binding table, sliding a cached variant from other bases (one built
// this session, or one a restart decoded from the store), warm restart
// from the store, installing a mesh peer's blob — is an
// alternative implementation of "link it fresh", and this test holds
// each to that specification: for every program and library of
// internal/workload, the image each path produces is compared byte for
// byte with the one a fresh link produces at the same placement.  The
// test lives outside package server because internal/workload imports
// it.

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"omos/internal/image"
	"omos/internal/server"
	"omos/internal/store"
	"omos/internal/workload"
)

// oracleCG keeps codegen's shape (units, a main, six libraries) at a
// size the race detector gets through quickly.
var oracleCG = workload.CodegenParams{Units: 8, FuncsPerUnit: 8, HotIters: 4}

// The one branch-table library added to the workload world, and the
// application that supplies its upward reference.
const (
	btLibSrc = `
(constraint-list "T" 0x5000000 "D" 0x45000000)
(source "c" "
extern int app_hook(int x);
int drive(int x) { return app_hook(x) * 10; }
")`
	btAppSrc = `
(merge /lib/crt0.o
  (source "c" "
extern int drive(int);
int app_hook(int x) { return x + 1; }
int main() { return drive(3); }
")
  (specialize "lib-branch-table" %s))`
)

// subject is one workload meta-object the oracle follows down every
// path.
type subject struct {
	path, src string
	isLib     bool
}

// otherBases returns the i'th of a run of free placements away from
// every address the workload asks for or defaults to.
func otherBases(i int) (text, data uint64) {
	return 0x1000_0000 + uint64(i)<<24, 0x6000_0000 + uint64(i)<<24
}

// variantOf defines, next to the subject, the same content at other
// bases, and returns the path to instantiate to get it built and a
// function that picks the variant out of the result: a program is
// redefined under a leading constraint-list, a library is pulled in by
// a throwaway client that constrains it (and is itself placed out of
// the way, so the subjects find the default client addresses as free as
// they are in every other world).
func variantOf(t *testing.T, srv *server.Server, sub subject, i int) (string, func(*server.Instance) *server.Instance) {
	t.Helper()
	text, data := otherBases(i)
	if sub.isLib {
		client := "/bin/other-client" + strings.ReplaceAll(sub.path, "/", "-")
		ctext, cdata := otherBases(i + 10)
		src := fmt.Sprintf(`(constraint-list "T" %#x "D" %#x)
(merge /lib/crt0.o (source "c" "int main() { return 0; }") (constrain "T" %#x "D" %#x %s))`,
			ctext, cdata, text, data, sub.path)
		if err := srv.Define(client, src); err != nil {
			t.Fatal(err)
		}
		return client, func(in *server.Instance) *server.Instance { return in.Libs[0] }
	}
	other := sub.path + ".other"
	if err := srv.Define(other, fmt.Sprintf("(constraint-list \"T\" %#x \"D\" %#x)\n%s", text, data, sub.src)); err != nil {
		t.Fatal(err)
	}
	return other, func(in *server.Instance) *server.Instance { return in }
}

// world is a booted workload world with a store attached — every world
// has one, so library pins carry blob checksums on every path.
type world struct {
	*workload.OMOSWorld
	t *testing.T
}

func newWorld(t *testing.T, dir string, hook server.MeshHook) *world {
	t.Helper()
	w, err := workload.SetupOMOS(oracleCG)
	if err != nil {
		t.Fatal(err)
	}
	if hook != nil {
		w.Srv.SetMesh(hook)
	}
	if err := w.Srv.DefineLibrary("/lib/cb", btLibSrc); err != nil {
		t.Fatal(err)
	}
	if err := w.Srv.Define("/bin/btapp", fmt.Sprintf(btAppSrc, "/lib/cb")); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	w.Srv.AttachStore(st)
	t.Cleanup(func() { w.Srv.CloseStore() })
	return &world{OMOSWorld: w, t: t}
}

// subjects lists the world's meta-objects, libraries first so that by
// the time a program is instantiated its libraries are cached and the
// program is the only image the call can produce.
func (w *world) subjects() []subject {
	w.t.Helper()
	var subs []subject
	for _, p := range w.Srv.List("/") {
		if p == "/lib/cb" || p == "/bin/btapp" {
			continue
		}
		src, isLib, err := w.Srv.ExportMeta(p)
		if err != nil {
			continue // an object (crt0), not a meta-object
		}
		subs = append(subs, subject{path: p, src: src, isLib: isLib})
	}
	sort.SliceStable(subs, func(i, j int) bool { return subs[i].isLib && !subs[j].isLib })
	if len(subs) != 8 {
		w.t.Fatalf("workload world defines %d meta-objects, want ls, codegen and six libraries", len(subs))
	}
	return subs
}

// did is what one instantiation did, as counter deltas: images built,
// slid and installed from a peer, and what the call's build-graph nodes
// recorded.
type did struct {
	built, rebased, meshed uint64
	nodes                  nodes
}

// nodes is the NodesBuilt, NodesResumed and NodesCached deltas.  A root
// that was slid or installed records rebased, which Stats does not
// export: it shows here as no count at all.
type nodes struct{ built, resumed, cached uint64 }

// produce instantiates path and reports what the call did.
func (w *world) produce(path string) (*server.Instance, did) {
	w.t.Helper()
	before := w.Srv.Stats()
	inst, err := w.Srv.Instantiate(path, nil)
	if err != nil {
		w.t.Fatalf("%s: %v", path, err)
	}
	after := w.Srv.Stats()
	return inst, did{after.ImagesBuilt - before.ImagesBuilt, after.Rebases - before.Rebases,
		after.MeshBlobInstalls - before.MeshBlobInstalls,
		nodes{after.NodesBuilt - before.NodesBuilt, after.NodesResumed - before.NodesResumed,
			after.NodesCached - before.NodesCached}}
}

// libs is the number of library nodes an instantiation of inst records:
// one per library (the workload's libraries import nothing).
func libs(inst *server.Instance) uint64 { return uint64(len(inst.Libs)) }

// snapshot is what the oracle compares: the encoded reconstruction
// record (segments as materialized in frames with their addresses and
// permissions, exported symbols, entry, placement, patch sites, pins,
// binding table, branch-table slots) and the in-memory image a later
// rebase would slide from.
type snapshot struct {
	rec   *store.Record
	entry uint64
	segs  []image.Segment
}

func (w *world) snap(inst *server.Instance) snapshot {
	w.t.Helper()
	rec := w.Srv.RecordOf(inst)
	// The namespace generation a binding table was last confirmed under
	// is a timestamp, not part of the resolution: worlds that defined
	// extra variants are further along.
	rec.Gen = 0
	sn := snapshot{rec: rec, entry: inst.Entry()}
	for _, seg := range inst.Res.Image.Segments {
		// A restored read-only segment carries its zero fill explicitly.
		seg.Data = bytes.TrimRight(seg.Data, "\x00")
		sn.segs = append(sn.segs, seg)
	}
	return sn
}

// same fails the test, naming each differing part, unless got is byte
// for byte the image want is.
//
// slid marks the two paths that derive the image from a build made
// under another resolution identity (a variant defined at another
// path, a peer's blob).  Their images are bound exactly as the source
// was, but no binding table is recorded under their own identity —
// only a full link records one — so `omos explain` and the rebind
// guard do not see them.  The oracle found this; it is recorded as a
// gap in ROADMAP item 9 and pinned here so that closing it is a
// deliberate change.
func same(t *testing.T, how, path string, want, got snapshot, slid bool) {
	t.Helper()
	if got.entry != want.entry {
		t.Errorf("%s %s: entry %#x, fresh link has %#x", how, path, got.entry, want.entry)
	}
	if !reflect.DeepEqual(got.segs, want.segs) {
		t.Errorf("%s %s: in-memory image segments differ from the fresh link's", how, path)
	}
	wrec, grec := *want.rec, *got.rec
	if slid {
		if grec.Bindings != nil {
			t.Errorf("%s %s: a binding table was recorded; compare it with the fresh link's from now on", how, path)
		}
		wrec.Bindings = nil
	}
	wblob, err := store.Encode(&wrec)
	if err != nil {
		t.Fatal(err)
	}
	gblob, err := store.Encode(&grec)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(gblob, wblob) {
		return
	}
	w, g := reflect.ValueOf(wrec), reflect.ValueOf(grec)
	for i := 0; i < w.NumField(); i++ {
		if !reflect.DeepEqual(w.Field(i).Interface(), g.Field(i).Interface()) {
			t.Errorf("%s %s: %s differs from the fresh link:\n got  %.300s\n want %.300s", how, path,
				w.Type().Field(i).Name, fmt.Sprint(g.Field(i).Interface()), fmt.Sprint(w.Field(i).Interface()))
		}
	}
}

// blobHook is a mesh in which every content key is owned by a peer
// that holds exactly the blobs it was given.
type blobHook struct {
	blobs   map[string][]byte
	fetched []string
}

func (h *blobHook) Owned(string) bool           { return false }
func (h *blobHook) OfferContent(string, []byte) {}
func (h *blobHook) FetchContent(ckey string, _, _ uint64, _ bool) (*server.MeshReply, error) {
	h.fetched = append(h.fetched, ckey)
	blob, ok := h.blobs[ckey]
	return &server.MeshReply{Found: ok, Blob: blob}, nil
}

func TestFastPathOracle(t *testing.T) {
	// The specification: a fresh link of everything at its own
	// placement, in a world that has seen nothing else.
	fresh := newWorld(t, t.TempDir(), nil)
	subs := fresh.subjects()
	want := map[string]snapshot{}
	for _, sub := range subs {
		inst, d := fresh.produce(sub.path)
		if d != (did{built: 1, nodes: nodes{built: 1, cached: libs(inst)}}) {
			t.Fatalf("fresh %s: %+v; want one full link, its libraries cached", sub.path, d)
		}
		want[sub.path] = fresh.snap(inst)
	}
	btApp, _ := fresh.produce("/bin/btapp")
	if len(btApp.Libs[0].BTSlots) != 1 || btApp.Libs[0].ContentKey != "" {
		t.Fatalf("branch-table library: slots %v, content key %q", btApp.Libs[0].BTSlots, btApp.Libs[0].ContentKey)
	}
	wantBT := fresh.snap(btApp.Libs[0])

	// Binding replay: a program evicted and asked for again is linked
	// in full, but bound by replaying its recorded table instead of
	// searching its libraries.
	for _, sub := range subs {
		if sub.isLib {
			continue // the workload's libraries import nothing
		}
		t.Run("replay"+sub.path, func(t *testing.T) {
			if n := fresh.Srv.Evict(sub.path); n != 1 {
				t.Fatalf("evicted %d images, want the program alone", n)
			}
			before := fresh.Srv.Stats()
			inst, d := fresh.produce(sub.path)
			after := fresh.Srv.Stats()
			if d != (did{built: 1, nodes: nodes{built: 1, cached: libs(inst)}}) || after.BindingHits != before.BindingHits+1 || after.SymbolSearches != before.SymbolSearches {
				t.Fatalf("%+v, binding hits +%d, symbol searches +%d; want one link bound by replay", d,
					after.BindingHits-before.BindingHits, after.SymbolSearches-before.SymbolSearches)
			}
			same(t, "replay-bound", sub.path, want[sub.path], fresh.snap(inst), false)
		})
	}

	// Rebase: each image is first built at other bases, then asked for
	// at its own placement.  The other-bases blobs feed the mesh world.
	rebDir := t.TempDir()
	reb := newWorld(t, rebDir, nil)
	hook := &blobHook{blobs: map[string][]byte{}}
	for i, sub := range subs {
		t.Run("rebase"+sub.path, func(t *testing.T) {
			vpath, pick := variantOf(t, reb.Srv, sub, i)
			vinst, _ := reb.produce(vpath)
			variant := pick(vinst)
			if variant.Res.TextBase == want[sub.path].rec.ResTextBase {
				t.Fatalf("variant landed on the subject's own text base %#x", variant.Res.TextBase)
			}
			blob, _, ok := reb.Srv.ExportContent(variant.ContentKey, false)
			if !ok {
				t.Fatal("variant not exportable")
			}
			hook.blobs[variant.ContentKey] = blob
			inst, d := reb.produce(sub.path)
			if d != (did{rebased: 1, nodes: nodes{cached: libs(inst)}}) {
				t.Fatalf("%+v; want one slide and no link", d)
			}
			same(t, "rebased", sub.path, want[sub.path], reb.snap(inst), true)
		})
	}

	// Rebase from a warm-restarted variant: the rebase world's store
	// holds every other-bases build.  A session restarted on it without
	// the subjects' own images slides each from a record that came back
	// through store.Decode — the one path where a decoding mistake would
	// surface as wrong code rather than as a rejected blob.  A program's
	// variant links against the libraries at their own placement, so the
	// two kinds take a restart each: first without the programs' own
	// blobs, then without the libraries' (which takes everything linked
	// against them out as stale, and leaves their variants).
	for _, isLib := range []bool{false, true} {
		if err := reb.Srv.CloseStore(); err != nil {
			t.Fatal(err)
		}
		st, err := store.Open(rebDir, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, sub := range subs {
			if sub.isLib == isLib {
				st.Delete(want[sub.path].rec.Key)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		reb = newWorld(t, rebDir, nil)
		// A library's record resumes in the first node that asks for it.
		asked := map[string]bool{}
		for _, sub := range subs {
			if sub.isLib != isLib {
				continue
			}
			t.Run("warm-rebase"+sub.path, func(t *testing.T) {
				inst, d := reb.produce(sub.path)
				var first uint64
				for _, li := range inst.Libs {
					if !asked[li.Key] {
						asked[li.Key] = true
						first++
					}
				}
				if d != (did{rebased: 1, nodes: nodes{resumed: first, cached: libs(inst) - first}}) {
					t.Fatalf("%+v; want one slide from the restored variant and no link, %d libraries resumed", d, first)
				}
				same(t, "rebased from a warm-restarted variant", sub.path, want[sub.path], reb.snap(inst), true)
			})
		}
	}

	// Warm restart: a second session on the first one's store.
	dir := t.TempDir()
	first := newWorld(t, dir, nil)
	for _, sub := range subs {
		first.produce(sub.path)
	}
	first.produce("/bin/btapp")
	if err := first.Srv.CloseStore(); err != nil {
		t.Fatal(err)
	}
	warm := newWorld(t, dir, nil)
	for _, sub := range subs {
		t.Run("warm"+sub.path, func(t *testing.T) {
			inst, d := warm.produce(sub.path)
			if d != (did{nodes: nodes{resumed: 1, cached: libs(inst)}}) {
				t.Fatalf("%+v; want the restored image, resumed once, its libraries cached", d)
			}
			same(t, "warm-restarted", sub.path, want[sub.path], warm.snap(inst), false)
		})
	}
	t.Run("warm/lib/cb", func(t *testing.T) {
		inst, d := warm.produce("/bin/btapp")
		if d != (did{nodes: nodes{resumed: 2}}) {
			t.Fatalf("%+v; want the restored branch-table library and its client, each resumed", d)
		}
		same(t, "warm-restarted", "/lib/cb", wantBT, warm.snap(inst.Libs[0]), false)
	})

	// Mesh from a dormant variant: a peer restarted on that store, which
	// never requests an image, serves each subject's blob fetch by waking
	// the record it attached at boot — and a daemon installing that blob
	// gets the fresh link.
	if err := warm.Srv.CloseStore(); err != nil {
		t.Fatal(err)
	}
	peer := newWorld(t, dir, nil)
	dormant := &blobHook{blobs: map[string][]byte{}}
	for _, sub := range subs {
		ckey := want[sub.path].rec.ContentKey
		blob, _, ok := peer.Srv.ExportContent(ckey, false)
		if !ok {
			t.Fatalf("peer cannot export the dormant variant of %s", sub.path)
		}
		dormant.blobs[ckey] = blob
	}
	if st := peer.Srv.Stats(); st.ImagesBuilt != 0 || st.CacheHits != 0 || st.StoreLoads != uint64(len(subs)) {
		t.Fatalf("peer built %d, hit %d, read %d bodies; want each subject's record woken and nothing else",
			st.ImagesBuilt, st.CacheHits, st.StoreLoads)
	}
	fromDormant := newWorld(t, t.TempDir(), dormant)
	for _, sub := range subs {
		t.Run("mesh-dormant"+sub.path, func(t *testing.T) {
			inst, d := fromDormant.produce(sub.path)
			if d != (did{meshed: 1, nodes: nodes{cached: libs(inst)}}) {
				t.Fatalf("%+v; want one blob install and nothing else", d)
			}
			same(t, "mesh-installed from a dormant variant", sub.path, want[sub.path], fromDormant.snap(inst), true)
		})
	}

	// Mesh: every content key is a peer's, and the peer holds the
	// other-bases build.
	mesh := newWorld(t, t.TempDir(), hook)
	for _, sub := range subs {
		t.Run("mesh"+sub.path, func(t *testing.T) {
			inst, d := mesh.produce(sub.path)
			if d != (did{meshed: 1, nodes: nodes{cached: libs(inst)}}) {
				t.Fatalf("%+v; want one blob install and nothing else", d)
			}
			same(t, "mesh-installed", sub.path, want[sub.path], mesh.snap(inst), true)
		})
	}

	// Branch-table libraries stay off both paths: placed at two bases in
	// the mesh world, each is linked, neither is slid, and no peer is
	// asked about them (their clients are: two consults, both answered
	// "not found").
	t.Run("branch-table-skips", func(t *testing.T) {
		text, data := otherBases(len(subs))
		moved := fmt.Sprintf(`(constrain "T" %#x "D" %#x /lib/cb)`, text, data)
		if err := mesh.Srv.Define("/bin/btapp2", fmt.Sprintf(btAppSrc, moved)); err != nil {
			t.Fatal(err)
		}
		hook.fetched = nil
		a, da := mesh.produce("/bin/btapp")
		b, db := mesh.produce("/bin/btapp2")
		if linked := (did{built: 2, nodes: nodes{built: 2}}); da != linked || db != linked {
			t.Fatalf("%+v then %+v; want client and library linked each time, no slide, no install", da, db)
		}
		la, lb := a.Libs[0], b.Libs[0]
		if la.ContentKey != "" || lb.ContentKey != "" || la.Res.TextBase == lb.Res.TextBase {
			t.Fatalf("content keys %q %q, text bases %#x %#x", la.ContentKey, lb.ContentKey, la.Res.TextBase, lb.Res.TextBase)
		}
		if !reflect.DeepEqual(hook.fetched, []string{a.ContentKey, b.ContentKey}) {
			t.Fatalf("peer consulted for %q, want only the two clients %q %q", hook.fetched, a.ContentKey, b.ContentKey)
		}
	})
}
