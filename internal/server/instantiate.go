package server

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"

	"omos/internal/asm"
	"omos/internal/blueprint"
	"omos/internal/buildgraph"
	"omos/internal/constraint"
	"omos/internal/fault"
	"omos/internal/image"
	"omos/internal/jigsaw"
	"omos/internal/link"
	"omos/internal/mgraph"
	"omos/internal/obj"
	"omos/internal/osim"
)

// Default client placement (matches the paper's Figure 1 defaults:
// clients at low text addresses, data high).
const (
	DefaultClientText = uint64(0x0010_0000)
	DefaultClientData = uint64(0x4000_0000)
)

func asmCompile(text string) (*obj.Object, error) {
	return asm.Assemble("source.s", text)
}

// Instantiate returns the (possibly cached) instance of the named
// program meta-object.  If p is non-nil, server-side lookup costs are
// charged to it; image construction costs are charged to the first
// requester only — later requests hit the cache, which is the paper's
// central performance mechanism.
func (s *Server) Instantiate(name string, p *osim.Process) (*Instance, error) {
	return s.InstantiateCtx(context.Background(), name, p)
}

// InstantiateCtx is Instantiate under a context: cancellation and
// deadlines propagate through the library fan-out and into the
// singleflight layer, where a canceled waiter detaches without
// disturbing the build it was sharing.  Every call records one
// build-graph run: the requested image is the root node and each
// library dependency branch a child node (graph.go).
func (s *Server) InstantiateCtx(ctx context.Context, name string, p *osim.Process) (*Instance, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// The admission gate wraps only this public entry point; nested
	// library instantiations run under the caller's admission.
	release, err := s.admit.Acquire(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	// The request reads this one namespace version until it replies.
	c := s.current()
	meta, err := c.LookupMeta(name)
	if err != nil {
		return nil, err
	}
	if meta == nil {
		return nil, fmt.Errorf("server: %s is not a meta-object", name)
	}
	// Canary placement (upgrade.go): during an upgrade epoch a
	// deterministic fraction of top-level instantiations joins the v2
	// cohort — they read the epoch's staged version, and their outcomes
	// feed the health gate.
	cohort := s.canaryPick(c.v, meta)
	if cohort {
		c.v = c.v.staged
		s.stats.canaryInstantiations.Add(1)
		if m2, err2 := c.LookupMeta(name); err2 == nil && m2 != nil {
			meta = m2
		}
	}
	t := target{name: name, prog: meta}
	if meta.IsLibrary {
		t = libTarget(mgraph.LibDep{Path: name, Spec: meta.DefaultSpec})
	}
	inst, err := s.inNode(withVersion(ctx, c.v), t, true, asCharger(p))
	// Feed the health gate: the server-wide failure baseline always,
	// the canary cohort's verdict during an epoch.  A regression here
	// triggers the automatic rollback (synchronously, so the caller
	// that tripped the gate observes the post-rollback namespace).
	s.observeInstantiation(cohort, err)
	return inst, err
}

// InstantiateBlueprint evaluates an anonymous blueprint (§5: "the
// meta-object specification may ... be an arbitrary blueprint").  The
// result is cached under the blueprint's content hash like any named
// instantiation.
func (s *Server) InstantiateBlueprint(src string, p *osim.Process) (*Instance, error) {
	release, err := s.admit.Acquire(context.Background())
	if err != nil {
		return nil, err
	}
	defer release()
	expr, err := blueprint.Parse(src)
	if err != nil {
		return nil, err
	}
	root, err := mgraph.Build(expr)
	if err != nil {
		return nil, err
	}
	meta := &mgraph.Meta{Path: "(anonymous)", Root: root, SrcHash: mgraph.Digest(src)}
	name := "(anonymous:" + meta.SrcHash + ")"
	return s.inNode(withVersion(context.Background(), s.ns.Load()), target{name: name, prog: meta}, true, asCharger(p))
}

func (s *Server) chargeLookup(c charger) {
	if c != nil {
		c.ChargeServer(s.kern.Cost.ServerCacheLookup)
	}
}

// buildCost estimates the server cycles spent constructing an image.
func (s *Server) buildCost(res *link.Result) uint64 {
	return uint64(res.NumRelocs)*s.kern.Cost.ServerBuildReloc +
		uint64(res.Records)*s.kern.Cost.ServerBuildRecord
}

// evaluate is the build pipeline's one m-graph evaluation: the
// build.eval fault site, then the meta-object's root in the request's
// namespace version.  A plan runs it at stage 2, except a library plan
// made from a cached image's shape, whose link runs it at stage 9.
func (s *Server) evaluate(ctx context.Context, meta *mgraph.Meta) (*mgraph.Value, error) {
	if err := s.faults.Fire(fault.SiteBuildEval); err != nil {
		return nil, fmt.Errorf("server: evaluating %s: %w", meta.Path, err)
	}
	v, err := s.ectx(ctx).eval(meta)
	if err != nil {
		return nil, fmt.Errorf("server: evaluating %s: %w", meta.Path, err)
	}
	return v, nil
}

// externsOf unions the exported symbols of library instances (first
// definition wins, matching link search order).  Programs and plain
// libraries resolve through the stable resolution cache instead
// (resolve.go); this remains the branch-table resolver, where the slot
// symbols make the undefined set an unreliable guide.
func externsOf(libs []*Instance) map[string]uint64 {
	ext := map[string]uint64{}
	for _, li := range libs {
		for name, addr := range li.Res.Image.Syms {
			if _, dup := ext[name]; !dup {
				ext[name] = addr
			}
		}
	}
	return ext
}

// place runs a constraint-solver request under the solver lock.
func (s *Server) place(req constraint.Request) (constraint.Placement, error) {
	s.solverMu.Lock()
	defer s.solverMu.Unlock()
	return s.solver.Place(req)
}

// plan is everything the server must know to find or build one image:
// what it is called, what it is made of, where it goes and under which
// identities it is cached.  planFor fills one from the namespace (hash,
// evaluate, measure, place, key); build consumes it.  Nothing in it
// changes once the planner returns.
type plan struct {
	// name is the instance name: cache entries, frame-segment names and
	// store records carry it.  image is the link image name; label is
	// how errors refer to the build ("/bin/ls", "library /lib/libc").
	name, image, label string
	module             *jigsaw.Module
	// shape is a library's shape (nil for programs and branch-table
	// libraries): the instance carries it into its cache entry and
	// its store record.  A library plan made from a cached image's
	// shape has meta instead of a module: the link evaluates meta and
	// holds the result to shape (evalShaped).
	meta  *mgraph.Meta
	shape *libShape
	libs  []*Instance
	place placeRec
	// key is the cache key (content + placement); ckey the
	// placement-independent content identity shared by rebase variants
	// and mesh peers; bkey the resolution identity the binding table
	// lives under.  ckey and bkey are empty for branch-table libraries,
	// which keeps them off the mesh, rebase and binding-replay paths.
	key, ckey, bkey string
	// entry is the entry symbol ("" for libraries).
	entry string
	// upward lists the client-supplied procedures a branch-table
	// library reaches through per-process slots, and bound its externs,
	// which that kind of library binds while planning (branchtable.go).
	// Every other image leaves bound nil and resolves at link time,
	// through the binding table (resolve.go).
	upward []string
	bound  map[string]uint64
}

// libID names a library as a plan requests it: path and spec hash.
type libID struct{ path, spec string }

// shapeKey is everything a library's evaluation depends on: the
// library, its content hash (which covers everything it references),
// the code generation mode and the specializer generation.  A store
// record keeps all but the generation, a count of this process's
// RegisterSpecializer calls: a shape read from the store is keyed
// under the generation current when the record is attached.
type shapeKey struct {
	libID
	content string
	pic     bool
	specGen uint64
}

// libShape is what planning a library needs from its evaluation: the
// extents link.Measure gives its module and the libraries it imports.
// It lives on the cache entry of the image it was measured for
// (entry.shape, indexed in Server.byShape), so a library whose inputs
// did not change is planned without being evaluated — and, above all,
// without its sources being compiled again — while that image is
// cached; it leaves the cache with the image.  It holds keys, sizes
// and a dependency list, never a module.  Each library image's store
// record keeps its shape, which attach puts on the dormant entry.
type libShape struct {
	key                shapeKey
	textSize, dataSize uint64
	libs               []mgraph.LibDep
}

// shapeOf returns the shape under k a cached image, live or dormant,
// keeps.
func (s *Server) shapeOf(k shapeKey) (libShape, bool) {
	s.cacheMu.RLock()
	defer s.cacheMu.RUnlock()
	if es := s.byShape[k]; len(es) > 0 {
		return *es[0].shape, true
	}
	return libShape{}, false
}

// staleShapeError is what the link of a library planned from its shape
// returns when the evaluation it deferred no longer has that shape (a
// specializer whose output changed while it stayed registered): the
// cached images drop that shape, and the library is planned from v.
type staleShapeError struct {
	path string
	v    *mgraph.Value
}

func (e *staleShapeError) Error() string {
	return fmt.Sprintf("server: library %s changed shape since it was planned", e.path)
}

// evalShaped is the evaluation a library plan made from its shape
// defers to the link: it returns the library's module if the module
// still has the plan's shape, and a *staleShapeError otherwise, so an
// image is never linked at a placement computed from stale sizes.
func (s *Server) evalShaped(ctx context.Context, pl *plan) (*jigsaw.Module, error) {
	v, err := s.evaluate(ctx, pl.meta)
	if err != nil {
		return nil, err
	}
	if v.Module != nil {
		text, data := link.Measure(v.Module)
		if text == pl.shape.textSize && data == pl.shape.dataSize && slices.EqualFunc(v.Libs, pl.shape.libs,
			func(a, b mgraph.LibDep) bool { return a.Path == b.Path && a.Spec.Hash() == b.Spec.Hash() }) {
			return v.Module, nil
		}
	}
	s.cacheMu.Lock()
	for _, e := range s.byShape[pl.shape.key] {
		e.shape = nil
	}
	delete(s.byShape, pl.shape.key)
	s.cacheMu.Unlock()
	return nil, &staleShapeError{path: pl.meta.Path, v: v}
}

// settle places the plan's extents with the constraint solver,
// returning the placement rendered as cache-key material.
func (s *Server) settle(pl *plan, solverKey string, prefs []constraint.Pref, textSize, dataSize uint64) (string, error) {
	at, err := s.place(constraint.Request{
		Key:      solverKey,
		TextSize: textSize,
		DataSize: dataSize,
		Prefs:    prefs,
	})
	if err != nil {
		return "", err
	}
	pl.place = placeRec{
		SolverKey: solverKey,
		TextBase:  at.TextBase, TextSize: textSize,
		DataBase: at.DataBase, DataSize: dataSize,
	}
	return fmt.Sprintf("%#x/%#x", at.TextBase, at.DataBase), nil
}

// target is what a request finds or builds: a library dependency, or a
// program whose meta-object its entry point already looked up (prog).
// name is the program's name or the library's path.
type target struct {
	name string
	prog *mgraph.Meta
	dep  mgraph.LibDep
}

func libTarget(dep mgraph.LibDep) target { return target{name: dep.Path, dep: dep} }

// kind is the build-graph node kind of t's build, and the planner's
// role for it.
func (t target) kind() buildgraph.Kind {
	switch {
	case t.prog != nil:
		return buildgraph.KindProgram
	case t.dep.Spec.Kind == "lib-branch-table":
		return buildgraph.KindBranchTable
	}
	return buildgraph.KindLibrary
}

// planFor is the one planner: look t up, hash it, evaluate it, build its
// dependencies, place it and key it.  A library with a cached image
// whose shape was measured under its current inputs is not evaluated:
// its plan carries the meta-object and the shape instead of a module.
// Every other step runs either way.  v, when non-nil, is an evaluation
// of the library made already (a stale shape's), planned from instead
// of a shape.  Programs always evaluate, and so do branch-table
// libraries, which bind while planning.
func (s *Server) planFor(ctx context.Context, t target, c charger, v *mgraph.Value) (*plan, error) {
	cx := s.ectx(ctx)
	kind := t.kind()
	meta, lib, bt := t.prog, kind != buildgraph.KindProgram, kind == buildgraph.KindBranchTable
	var hash string
	var err error
	if lib {
		if meta, err = cx.LookupMeta(t.name); err != nil {
			return nil, err
		}
		if meta == nil || !meta.IsLibrary {
			return nil, fmt.Errorf("server: %s is not a library meta-object", t.name)
		}
		hash, err = cx.ContentHash(t.name)
	} else {
		hash, err = cx.treeHash(meta)
	}
	if err != nil {
		return nil, err
	}
	s.chargeLookup(c)

	// The code generation mode changes every compiled byte, so it is
	// part of the image's identity as much as the content is.
	pic, code := s.PICSource, hash
	if pic {
		code += picMark
	}
	var sh libShape
	hit := false
	if lib {
		key := shapeKey{libID: libID{t.name, t.dep.Spec.Hash()}, content: hash, pic: pic, specGen: cx.v.specGen}
		if v == nil && !bt {
			sh, hit = s.shapeOf(key)
		}
		sh.key = key
	}
	pl := &plan{name: t.name, image: t.name, label: t.name, entry: "_start"}
	if lib {
		pl.image, pl.label, pl.entry = "lib:"+t.name, "library "+t.name, ""
	}
	if hit {
		s.stats.shapeHits.Add(1)
		pl.meta = meta
	} else {
		if v == nil {
			if v, err = s.evaluate(ctx, meta); err != nil {
				return nil, err
			}
		}
		if v.Module == nil {
			return nil, fmt.Errorf("server: %s produced no fragments", pl.label)
		}
		sh.libs, pl.module = v.Libs, v.Module
	}
	if pl.libs, err = s.instantiateDeps(ctx, sh.libs, c); err != nil {
		return nil, err
	}
	if bt {
		pl.name, pl.label = pl.image, "branch-table "+pl.label
		if err := pl.routeUpward(t.name); err != nil {
			return nil, err
		}
	}
	if !hit {
		sh.textSize, sh.dataSize = link.Measure(pl.module)
	}
	if lib && !bt {
		shape := sh
		pl.shape = &shape
	}

	prefs := t.dep.Spec.Prefs
	if !lib {
		prefs = v.Prefs
	}
	if len(prefs) == 0 {
		// A leading (constraint-list ...) in the blueprint gives default
		// preferences (Figure 1).  It is not part of a program's
		// construction subgraph, so programs differing only in placement
		// share a content key and can rebase.
		prefs = meta.DefaultSpec.Prefs
	}
	if len(prefs) == 0 && !lib {
		prefs = []constraint.Pref{
			{Seg: 'T', Addr: DefaultClientText},
			{Seg: 'D', Addr: DefaultClientData},
		}
	}
	var solverKey string
	var id [3]string // the image key's leading parts
	switch {
	case !lib:
		solverKey, id = "prog:"+t.name, [3]string{"prog", meta.SrcHash, code}
		pl.ckey, pl.bkey = contentKeyProg(code, pl.libs), bindKeyProg(meta)
	case bt:
		solverKey, id = "lib:"+t.name+"|"+sh.key.spec, [3]string{"lib-bt", code, sh.key.spec}
	default:
		solverKey, id = "lib:"+t.name+"|"+sh.key.spec, [3]string{"lib", code, sh.key.spec}
		pl.ckey, pl.bkey = contentKeyLib(code, t.dep.Spec.Kind, pl.libs), bindKeyLib(t.dep, meta)
	}
	at, err := s.settle(pl, solverKey, prefs, sh.textSize, sh.dataSize)
	if err != nil {
		return nil, err
	}
	pl.key = mgraph.Digest(id[0], id[1], id[2], at, libKeys(pl.libs))
	// An image cached under the key this evaluation gives takes its
	// shape (one not cached yet takes it when it is published): an
	// older specializer generation's or a stale one plans no more.
	if pl.shape != nil && !hit {
		s.cacheMu.Lock()
		if e := s.entries[pl.key]; e != nil {
			s.unindexLocked(e)
			e.shape = pl.shape
			s.indexLocked(e)
		}
		s.cacheMu.Unlock()
	}
	return pl, nil
}

// picMark marks the content identity of an image compiled as
// position-independent code (Server.PICSource).
const picMark = "/pic"

// image is the one way into the pipeline: plan t, then find or build
// its image.  A library whose link found the shape it was planned from
// stale is planned and built once more, from the evaluation that found
// it.
func (s *Server) image(ctx context.Context, t target, c charger) (*Instance, error) {
	pl, err := s.planFor(ctx, t, c, nil)
	if err != nil {
		return nil, err
	}
	inst, err := s.build(ctx, pl, c)
	if err == nil {
		return inst, nil
	}
	var stale *staleShapeError
	if !errors.As(err, &stale) {
		return nil, err
	}
	if pl, err = s.planFor(ctx, t, c, stale.v); err != nil {
		return nil, err
	}
	return s.build(ctx, pl, c)
}

// build resolves a plan to its instance: through the cache or a build
// already in flight (buildShared), else — for exactly one caller — by
// the cheapest way the image can come into being: woken from the
// record a previous session stored under the same key (persist.go),
// slid from a cached or dormant variant at other bases (rebase.go),
// fetched from the mesh peer that owns its content (meshhook.go), or
// linked.  This is the only place cached images are linked.  Whichever way produced it, the
// instance is complete before publish makes it visible; it is then
// checkpointed to the store, and a fresh link of content another
// daemon owns is offered to that owner.  The stage that produced the
// image sets the node's outcome; a node whose flight another node led
// sets none and finishes cached.
func (s *Server) build(ctx context.Context, pl *plan, c charger) (*Instance, error) {
	node := buildgraph.NodeFrom(ctx)
	node.SetKeys(pl.key, pl.ckey)
	return s.buildShared(ctx, pl.key, func() (*Instance, error) {
		// A prior session's record of this very image, attached at boot
		// and read now: it counts as the cache hit it stands for — the
		// node resumes, nothing is checkpointed or offered.
		if inst := s.wake(pl.key); inst != nil {
			s.stats.cacheHits.Add(1)
			node.Produced(buildgraph.OutcomeResumed)
			return inst, nil
		}
		inst, ok := s.tryRebase(pl, c)
		if !ok {
			inst, ok = s.tryMeshFetch(pl, c)
		}
		outcome := buildgraph.OutcomeRebased // a mesh install slides the peer's bytes
		if !ok {
			var err error
			if inst, err = s.linkImage(ctx, pl, c); err != nil {
				return nil, err
			}
			outcome = buildgraph.OutcomeBuilt
		}
		node.Produced(outcome)
		inst = s.publish(inst, pl.shape)
		s.checkpointInstance(node, inst)
		if !ok { // linked here, not fetched or slid
			s.offerMesh(pl.ckey, inst)
		}
		return inst, nil
	})
}

// linkImage is the full-link stage of build.  Build cost is charged to
// the requesting process (the only one that ever pays it).  A library
// planned from its shape is evaluated here first.
func (s *Server) linkImage(ctx context.Context, pl *plan, c charger) (*Instance, error) {
	mod := pl.module
	if mod == nil {
		var err error
		if mod, err = s.evalShaped(ctx, pl); err != nil {
			return nil, err
		}
	}
	if pl.ckey != "" {
		s.stats.rebaseMiss.Add(1)
	}
	if s.ectx(ctx).v.epoch != nil { // a canary build: it reads a staged version
		if err := s.faults.Fire(fault.SiteUpgradeCanary); err != nil {
			return nil, fmt.Errorf("server: canary build of %s: %w", pl.label, err)
		}
	}
	if err := s.faults.Fire(fault.SiteBuildLink); err != nil {
		return nil, fmt.Errorf("server: linking %s: %w", pl.label, err)
	}
	externs := pl.bound
	if externs == nil {
		externs = s.resolveExterns(pl, mod.Undefined(), c)
	}
	res, err := link.Link(mod, link.Options{
		Name:     pl.image,
		TextBase: pl.place.TextBase,
		DataBase: pl.place.DataBase,
		Entry:    pl.entry,
		Externs:  externs,
	})
	if err != nil {
		return nil, fmt.Errorf("server: linking %s: %w", pl.label, err)
	}
	slots, err := pl.slotsIn(res)
	if err != nil {
		return nil, err
	}
	inst, _, err := s.materialize(pl, res, nil)
	if err != nil {
		return nil, err
	}
	inst.BTSlots = slots
	cost := s.buildCost(res)
	if c != nil {
		c.ChargeServer(cost)
	}
	// Built before missed: Stats reads the misses first, so no snapshot
	// shows this miss without its build.
	s.stats.imagesBuilt.Add(1)
	s.stats.cacheMisses.Add(1)
	s.stats.builtBytes.Add(res.TextSize + res.DataSize + res.BSSSize)
	s.stats.relocsApplied.Add(uint64(res.NumRelocs))
	s.stats.externBinds.Add(uint64(res.ExternBinds))
	s.stats.buildCycles.Add(cost)
	return inst, nil
}

func libKeys(libs []*Instance) string {
	out := ""
	for _, li := range libs {
		out += li.Key + ";"
	}
	return out
}

// ReleaseInstance drops the frames materialized for an instance (and
// its export table).  The cache releases an instance it holds when it
// retires the entry; any other instance is its holder's to release:
// with DisableCache every instance a caller gets, and in the server one
// that lost its key to an earlier one or failed its pins (publish, wake).
func (s *Server) ReleaseInstance(inst *Instance) {
	for _, seg := range inst.ROSegs {
		s.kern.FT.Release(seg)
	}
	if t := inst.table.Load(); t != nil {
		s.kern.FT.Release(t)
	}
}

// materialize turns an image into an instance that is complete but not
// yet visible: read-only segments become shared frames, writable
// segments stay as pristine bytes for per-client copying, and the
// plan's identities, placement and library pins are attached.  The
// frames are the image's one copy of its read-only bytes: the result
// keeps those segments' metadata and lets their bytes go.  When the
// image was slid from src, every page the slide left clean shares
// src's physical frame; shared counts them.  Frames already made are
// released if a later segment fails.
func (s *Server) materialize(pl *plan, res *link.Result, src *Instance) (inst *Instance, shared int, err error) {
	inst = &Instance{Key: pl.key, ContentKey: pl.ckey, Name: pl.name, Res: res, Libs: pl.libs,
		Pins: s.pinsOf(pl.libs), bindKey: pl.bkey, place: pl.place}
	for i := range res.Image.Segments {
		seg := &res.Image.Segments[i]
		if seg.Perm&image.PermW != 0 {
			inst.RWSegs = append(inst.RWSegs, *seg)
			continue
		}
		var from *osim.FrameSeg
		if src != nil {
			from = src.roSeg(seg.Name)
		}
		fs, n, err := s.kern.FT.MakeFrameSegDelta(pl.name+"/"+seg.Name, seg.Addr, seg.Data, seg.MemSize, uint8(seg.Perm), from)
		if err != nil {
			s.ReleaseInstance(inst)
			return nil, 0, err
		}
		seg.Data = nil
		shared += n
		inst.ROSegs = append(inst.ROSegs, fs)
	}
	return inst, shared, nil
}

// roSeg returns the frames of the instance's read-only image segment
// name ("text"), or nil.
func (inst *Instance) roSeg(name string) *osim.FrameSeg {
	for _, fs := range inst.ROSegs {
		if segBaseName(fs.Name) == name {
			return fs
		}
	}
	return nil
}

// liveLocked returns the entry under key and its instance while the
// entry is live, else nil, nil.  Caller holds cacheMu.
func (s *Server) liveLocked(key string) (*entry, *Instance) {
	if e := s.entries[key]; e != nil && e.inst != nil {
		return e, e.inst
	}
	return nil, nil
}

// publish makes a complete instance visible to cache hits, rebases and
// mesh exports.  It is the only way an entry becomes live, and nothing
// about the instance but its lazily built export table changes
// afterwards.  A new entry takes the instance's identity and sh, the
// shape its plan measured (nil for programs and branch-table
// libraries).  A dormant entry under the same key becomes live in place
// and keeps its identity, blob checksum and shape: the instance is its
// wake, or a rebuild of the same image that supersedes it until the
// checkpoint rewrites the blob.  If another build published the key
// first (a watchdog-abandoned build finishing late) the prior instance
// wins and this one's frames are released.
func (s *Server) publish(inst *Instance, sh *libShape) *Instance {
	if s.DisableCache {
		return inst
	}
	s.cacheMu.Lock()
	e := s.entries[inst.Key]
	if e != nil && e.inst != nil {
		prior := e.inst
		s.cacheMu.Unlock()
		s.ReleaseInstance(inst)
		return prior
	}
	if e == nil {
		e = &entry{key: inst.Key, name: inst.Name, ckey: inst.ContentKey, place: inst.place, shape: sh}
		for _, li := range inst.Libs {
			e.libs = append(e.libs, li.Key)
		}
		if sh != nil {
			e.content = sh.key.content
		}
		s.entries[inst.Key] = e
		s.indexLocked(e)
	}
	e.inst = inst
	st := s.store
	s.cacheMu.Unlock()
	s.touch(inst.Key, e, st)
	return inst
}

// indexLocked adds e to the content index under its content key and
// to the shape index under its shape's key, and unindexLocked removes
// it from both.  Caller holds cacheMu.
func (s *Server) indexLocked(e *entry) {
	if e.ckey != "" {
		s.byContent[e.ckey] = append(s.byContent[e.ckey], e)
	}
	if e.shape != nil {
		s.byShape[e.shape.key] = append(s.byShape[e.shape.key], e)
	}
}

func (s *Server) unindexLocked(e *entry) {
	unindex(s.byContent, e.ckey, e)
	if e.shape != nil {
		unindex(s.byShape, e.shape.key, e)
	}
}

// unindex removes e from index m under k.
func unindex[K comparable](m map[K][]*entry, k K, e *entry) {
	if es := slices.DeleteFunc(m[k], func(x *entry) bool { return x == e }); len(es) > 0 {
		m[k] = es
	} else {
		delete(m, k)
	}
}

// retireLocked removes the entry under key (its shape with it) and, in
// the same step, the key's blob: a live image's frames and export table
// are released (frames a running process maps stay alive through the
// process's own references), and the attached store deletes the blob — or
// quarantines it, when the image's own bytes or pins failed.  With no
// store attached the blob stays for the next session.  The main solver
// placement is deliberately kept so a rebuild lands at the same
// addresses.  Caller holds cacheMu.
func (s *Server) retireLocked(key string, quarantine bool) {
	if e := s.entries[key]; e != nil {
		delete(s.entries, key)
		s.unindexLocked(e)
		if e.inst != nil {
			s.ReleaseInstance(e.inst)
			if e.inst.table.Load() != nil {
				s.solverMu.Lock()
				s.solver.Release("table:" + key)
				s.solverMu.Unlock()
			}
		}
	}
	if s.store != nil && quarantine {
		s.store.Quarantine(key)
	} else if s.store != nil {
		s.store.Delete(key)
	}
}

// Evict removes every cached instance derived from the named
// meta-object — and, transitively, every cached instance that links
// against one — and releases their address-space placements, forcing
// the next instantiation to rebuild.  This is the module-unlinking ability
// the paper notes dld has and OMOS could add (§9): the server retains
// all the information needed to reconstruct, so eviction is safe at
// any time — processes already running keep their mapped frames alive
// through the frame refcounts.
func (s *Server) Evict(name string) int {
	name = cleanPath(name)
	s.cacheMu.Lock()
	defer s.cacheMu.Unlock()
	victims := map[string]bool{}
	for key, e := range s.entries {
		if e.name == name || e.name == "lib:"+name {
			victims[key] = true
		}
	}
	// Close over dependents: a cached image linking against a victim
	// would keep mapping the released frames (the capacity evictor
	// refuses such victims for exactly this reason) — explicit
	// eviction instead takes the dependents along, so they rebuild
	// against whatever the namespace says next.
	s.addDependentsLocked(victims)
	for key := range victims {
		s.retireLocked(key, false)
	}
	s.solverMu.Lock()
	s.solver.Release("prog:" + name)
	for _, k := range s.solver.Keys() {
		if strings.HasPrefix(k, "lib:"+name+"|") {
			s.solver.Release(k)
		}
	}
	s.solverMu.Unlock()
	return len(victims)
}

// addDependentsLocked adds to victims, transitively, every entry that
// links against one.  Caller holds cacheMu.
func (s *Server) addDependentsLocked(victims map[string]bool) {
	for changed := true; changed; {
		changed = false
		for key, e := range s.entries {
			for _, lk := range e.libs {
				if !victims[key] && victims[lk] {
					victims[key], changed = true, true
				}
			}
		}
	}
}

// MapInstance maps the instance and all its libraries into a process,
// charging server-side mapping costs (this is the vm_map work of §5).
// Library images that are already mapped (shared text pages) are
// detected via the page table and skipped.
func (s *Server) MapInstance(p *osim.Process, inst *Instance) error {
	// Hijack defense: a pinned image only maps while its library
	// identities still match what it was linked against.  A violation
	// (or an injected definer swap at the namespace.hijack site)
	// rejects and quarantines the image; the caller's retry rebuilds
	// and re-pins from source.
	if err := s.verifyPinned(inst); err != nil {
		return err
	}
	mapped := map[string]bool{}
	var mapOne func(in *Instance) error
	mapOne = func(in *Instance) error {
		if mapped[in.Key] {
			return nil
		}
		mapped[in.Key] = true
		for _, li := range in.Libs {
			if err := mapOne(li); err != nil {
				return err
			}
		}
		if err := p.MapSharedSegs(in.ROSegs, true); err != nil {
			return err
		}
		if t := in.table.Load(); t != nil {
			if err := p.MapSharedSegs([]*osim.FrameSeg{t}, true); err != nil {
				return err
			}
		}
		for i := range in.RWSegs {
			seg := &in.RWSegs[i]
			if err := p.MapPrivateBytes(seg.Addr, seg.Data, seg.MemSize, seg.Perm, true); err != nil {
				return err
			}
		}
		return nil
	}
	if err := mapOne(inst); err != nil {
		return err
	}
	// Branch-table libraries (§4.1) get their upward slots bound to
	// this client's procedures, in this process only.
	return s.patchBranchTables(p, inst)
}

// Entry returns the instance's entry point.
func (inst *Instance) Entry() uint64 { return inst.Res.Image.Entry }

// SymbolAt resolves an address back to the nearest containing
// exported symbol in the instance or its libraries — the seed of the
// gdb integration §4.1 plans ("enhance gdb to interface directly with
// OMOS").  Returns the symbol name, the offset into it, and the image
// that owns it.
func (inst *Instance) SymbolAt(addr uint64) (name string, off uint64, owner string, ok bool) {
	best := uint64(0)
	for sym, a := range inst.Res.Image.Syms {
		size := max(inst.Res.Exports[sym].Size, 1)
		// The innermost symbol wins; among aliases at one address, the
		// smallest name, so the answer does not depend on map order.
		if addr >= a && addr < a+size && (name == "" || a > best || a == best && sym < name) {
			name, off, owner, ok = sym, addr-a, inst.Name, true
			best = a
		}
	}
	for _, li := range inst.Libs {
		if n, o, own, found := li.SymbolAt(addr); found {
			return n, o, own, true
		}
	}
	return name, off, owner, ok
}

// Lookup returns the bound address of an exported symbol in the
// instance or any of its libraries.
func (inst *Instance) Lookup(name string) (uint64, bool) {
	if a, ok := inst.Res.Image.Syms[name]; ok {
		return a, true
	}
	for _, li := range inst.Libs {
		if a, ok := li.Lookup(name); ok {
			return a, true
		}
	}
	return 0, false
}
