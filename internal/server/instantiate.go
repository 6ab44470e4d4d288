package server

import (
	"context"
	"fmt"
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
	c := evalCtx{s: s}
	meta, err := c.LookupMeta(name)
	if err != nil {
		return nil, err
	}
	if meta == nil {
		return nil, fmt.Errorf("server: %s is not a meta-object", name)
	}
	// Canary placement (upgrade.go): during an upgrade epoch a
	// deterministic fraction of top-level instantiations joins the v2
	// cohort — their evaluations see the staged definitions, and their
	// outcomes feed the health gate.
	cohort := s.canaryPick(name, meta)
	if cohort {
		ctx = withCanary(ctx)
		c = evalCtx{s: s, v2: true}
		s.stats.canaryInstantiations.Add(1)
		if m2, err2 := c.LookupMeta(name); err2 == nil && m2 != nil {
			meta = m2
		}
	}
	kind := buildgraph.KindProgram
	if meta.IsLibrary {
		kind = buildgraph.KindLibrary
	}
	inst, err := s.inNode(ctx, name, kind, true, asCharger(p), func(ctx context.Context, c charger) (*Instance, error) {
		if meta.IsLibrary {
			return s.libraryImage(ctx, mgraph.LibDep{Path: name, Spec: meta.DefaultSpec}, c)
		}
		return s.programImage(ctx, name, meta, c)
	})
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
	meta := &mgraph.Meta{Path: "(anonymous)", Root: root, SrcHash: digestStr(src)}
	name := "(anonymous:" + meta.SrcHash + ")"
	return s.inNode(context.Background(), name, buildgraph.KindProgram, true, asCharger(p),
		func(ctx context.Context, c charger) (*Instance, error) { return s.programImage(ctx, name, meta, c) })
}

func (s *Server) chargeLookup(c charger) {
	if c != nil {
		c.ChargeServer(s.kern.Cost.ServerCacheLookup)
	}
}

// buildCost estimates the server cycles spent constructing an image.
func (s *Server) buildCost(res *link.Result) uint64 {
	cost := uint64(res.NumRelocs) * s.kern.Cost.ServerBuildReloc
	for _, pl := range res.Placements {
		cost += uint64(pl.Obj.RecordCount()) * s.kern.Cost.ServerBuildRecord
	}
	return cost
}

// evalValue evaluates a meta-object root and resolves its library
// dependencies into instances (deduplicated by path+spec).  Distinct
// dependencies build concurrently on the worker pool; the join is in
// dependency order, so downstream consumers (externsOf, libKeys) see
// exactly the serial ordering.
func (s *Server) evalValue(ctx context.Context, meta *mgraph.Meta, c charger) (*mgraph.Value, []*Instance, error) {
	if err := s.faults.Fire(fault.SiteBuildEval); err != nil {
		return nil, nil, fmt.Errorf("server: evaluating %s: %w", meta.Path, err)
	}
	v, err := meta.Root.Eval(s.ectx(ctx))
	if err != nil {
		return nil, nil, fmt.Errorf("server: evaluating %s: %w", meta.Path, err)
	}
	insts, err := s.instantiateDeps(ctx, v.Libs, c)
	if err != nil {
		return nil, nil, err
	}
	return v, insts, nil
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
// identities it is cached.  planProgram and planLibrary fill one from
// the namespace (hash, evaluate, measure, place, key); build consumes
// it.  Nothing in it changes once the planner returns.
type plan struct {
	// name is the instance name: cache entries, frame-segment names and
	// store records carry it.  image is the link image name; label is
	// how errors refer to the build ("/bin/ls", "library /lib/libc").
	name, image, label string
	module             *jigsaw.Module
	libs               []*Instance
	place              placeRec
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

// settle measures the plan's module and places it with the constraint
// solver, returning the placement rendered as cache-key material.
func (s *Server) settle(pl *plan, solverKey string, prefs []constraint.Pref) (string, error) {
	textSize, dataSize := link.Measure(pl.module)
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

func (s *Server) planLibrary(ctx context.Context, dep mgraph.LibDep, c charger) (*plan, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cx := s.ectx(ctx)
	meta, err := cx.LookupMeta(dep.Path)
	if err != nil {
		return nil, err
	}
	if meta == nil || !meta.IsLibrary {
		return nil, fmt.Errorf("server: %s is not a library meta-object", dep.Path)
	}
	ch, err := cx.ContentHash(dep.Path)
	if err != nil {
		return nil, err
	}
	s.chargeLookup(c)

	v, libs, err := s.evalValue(ctx, meta, c)
	if err != nil {
		return nil, err
	}
	if v.Module == nil {
		return nil, fmt.Errorf("server: library %s produced no fragments", dep.Path)
	}
	prefs := dep.Spec.Prefs
	if len(prefs) == 0 {
		prefs = meta.DefaultSpec.Prefs
	}
	pl := &plan{name: dep.Path, image: "lib:" + dep.Path, label: "library " + dep.Path,
		module: v.Module, libs: libs}
	kind := "lib"
	if dep.Spec.Kind == "lib-branch-table" {
		kind = "lib-bt"
		pl.name, pl.label = pl.image, "branch-table "+pl.label
		if err := pl.routeUpward(dep.Path); err != nil {
			return nil, err
		}
	} else {
		pl.ckey = contentKeyLib(ch, dep.Spec.Kind, libs)
		pl.bkey = bindKeyLib(dep, meta)
	}
	at, err := s.settle(pl, "lib:"+dep.Path+"|"+dep.Spec.Hash(), prefs)
	if err != nil {
		return nil, err
	}
	pl.key = digestStr(kind, ch, dep.Spec.Hash(), at, libKeys(libs))
	return pl, nil
}

func (s *Server) planProgram(ctx context.Context, name string, meta *mgraph.Meta, c charger) (*plan, error) {
	s.chargeLookup(c)
	subHash, err := meta.Root.Hash(s.ectx(ctx))
	if err != nil {
		return nil, err
	}
	v, libs, err := s.evalValue(ctx, meta, c)
	if err != nil {
		return nil, err
	}
	if v.Module == nil {
		return nil, fmt.Errorf("server: program %s produced no fragments", name)
	}
	prefs := v.Prefs
	if len(prefs) == 0 {
		// A leading (constraint-list ...) in the program's blueprint
		// gives default preferences, like a library's (Figure 1).  It is
		// not part of the construction subgraph, so programs differing
		// only in placement share a content key and can rebase.
		prefs = meta.DefaultSpec.Prefs
	}
	if len(prefs) == 0 {
		prefs = []constraint.Pref{
			{Seg: 'T', Addr: DefaultClientText},
			{Seg: 'D', Addr: DefaultClientData},
		}
	}
	pl := &plan{name: name, image: name, label: name, module: v.Module, libs: libs, entry: "_start",
		ckey: contentKeyProg(subHash, libs), bkey: bindKeyProg(meta)}
	at, err := s.settle(pl, "prog:"+name, prefs)
	if err != nil {
		return nil, err
	}
	pl.key = digestStr("prog", meta.SrcHash, subHash, at, libKeys(libs))
	return pl, nil
}

// libraryImage and programImage are the two ways into the pipeline:
// fill the plan, then find or build its image.
func (s *Server) libraryImage(ctx context.Context, dep mgraph.LibDep, c charger) (*Instance, error) {
	pl, err := s.planLibrary(ctx, dep, c)
	if err != nil {
		return nil, err
	}
	return s.build(ctx, pl, c)
}

func (s *Server) programImage(ctx context.Context, name string, meta *mgraph.Meta, c charger) (*Instance, error) {
	pl, err := s.planProgram(ctx, name, meta, c)
	if err != nil {
		return nil, err
	}
	return s.build(ctx, pl, c)
}

// build resolves a plan to its instance: through the cache or a build
// already in flight (buildShared), else — for exactly one caller — by
// the cheapest way the image can come into being: woken from the
// record a previous session stored under the same key (persist.go),
// fetched from the mesh peer that owns its content (meshhook.go), slid
// from a cached variant at other bases (rebase.go), or linked.  This is the only
// place cached images are linked.  Whichever way produced it, the
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
		inst, ok := s.tryMeshFetch(pl, c)
		if !ok {
			inst, ok = s.tryRebase(pl, c)
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
		inst = s.publish(inst)
		s.checkpointInstance(node, inst)
		if !ok { // linked here, not fetched or slid
			s.offerMesh(pl.ckey, inst)
		}
		return inst, nil
	})
}

// linkImage is the full-link stage of build.  Build cost is charged to
// the requesting process (the only one that ever pays it).
func (s *Server) linkImage(ctx context.Context, pl *plan, c charger) (*Instance, error) {
	if pl.ckey != "" {
		s.stats.rebaseMiss.Add(1)
	}
	if canaryFrom(ctx) {
		if err := s.faults.Fire(fault.SiteUpgradeCanary); err != nil {
			return nil, fmt.Errorf("server: canary build of %s: %w", pl.label, err)
		}
	}
	if err := s.faults.Fire(fault.SiteBuildLink); err != nil {
		return nil, fmt.Errorf("server: linking %s: %w", pl.label, err)
	}
	externs := pl.bound
	if externs == nil {
		externs = s.resolveExterns(pl, c)
	}
	res, err := link.Link(pl.module, link.Options{
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
	s.stats.cacheMisses.Add(1)
	s.stats.imagesBuilt.Add(1)
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
// its table).  Only needed when the server runs with DisableCache;
// cached instances are owned by the cache and released via Evict.
func (s *Server) ReleaseInstance(inst *Instance) {
	for _, seg := range inst.ROSegs {
		s.kern.FT.Release(seg)
	}
	if inst.Table != nil {
		s.kern.FT.Release(inst.Table)
	}
}

// materialize turns an image into an instance that is complete but not
// yet visible: read-only segments become shared frames, writable
// segments stay as pristine bytes for per-client copying, and the
// plan's identities, placement and library pins are attached.  When the
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
			for _, fs := range src.ROSegs {
				if segBaseName(fs.Name) == seg.Name {
					from = fs
					break
				}
			}
		}
		fs, n, err := s.kern.FT.MakeFrameSegDelta(pl.name+"/"+seg.Name, seg.Addr, seg.Data, seg.MemSize, uint8(seg.Perm), from)
		if err != nil {
			s.ReleaseInstance(inst)
			return nil, 0, err
		}
		shared += n
		inst.ROSegs = append(inst.ROSegs, fs)
	}
	return inst, shared, nil
}

// publish makes a complete instance visible to cache hits, rebases and
// mesh exports.  It is the only writer of the cache and the variants
// index, and nothing about the instance but its LRU stamp and lazily
// built export table changes afterwards.  A dormant record of the same
// key is retired: the instance is its wake, or a rebuild that
// supersedes it.  If another build published
// the key first (a watchdog-abandoned build finishing late) the prior
// instance wins and this one's frames are released.
func (s *Server) publish(inst *Instance) *Instance {
	if s.DisableCache {
		return inst
	}
	s.cacheMu.Lock()
	if prior := s.cache[inst.Key]; prior != nil {
		s.cacheMu.Unlock()
		s.ReleaseInstance(inst)
		return prior
	}
	s.cache[inst.Key] = inst
	s.dropDormantLocked(inst.Key)
	if inst.ContentKey != "" {
		s.variants[inst.ContentKey] = append(s.variants[inst.ContentKey], inst)
	}
	st := s.store
	s.cacheMu.Unlock()
	s.touch(inst.Key, inst, st)
	return inst
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
	named := func(n string) bool { return n == name || n == "lib:"+name }
	s.cacheMu.Lock()
	defer s.cacheMu.Unlock()
	victims := map[string]bool{}
	for key, inst := range s.cache {
		if named(inst.Name) {
			victims[key] = true
		}
	}
	for key, h := range s.dormant {
		if named(h.Name) {
			victims[key] = true
		}
	}
	// Close over dependents: a cached image linking against a victim
	// would keep mapping the released frames (the capacity evictor
	// refuses such victims for exactly this reason) — explicit
	// eviction instead takes the dependents along, so they rebuild
	// against whatever the namespace says next.  A dormant record's
	// libraries are its head's LibKeys.
	for changed := true; changed; {
		changed = false
		for key, inst := range s.cache {
			for _, li := range inst.Libs {
				if !victims[key] && victims[li.Key] {
					victims[key], changed = true, true
				}
			}
		}
		for key, h := range s.dormant {
			for _, lk := range h.LibKeys {
				if !victims[key] && victims[lk] {
					victims[key], changed = true, true
				}
			}
		}
	}
	evicted := 0
	for key := range victims {
		if inst := s.cache[key]; inst != nil {
			s.evictEntryLocked(inst)
		}
		s.dropDormantLocked(key)
		if s.store != nil {
			s.store.Delete(key)
			s.dropBlobSum(key)
		}
		evicted++
	}
	s.solverMu.Lock()
	s.solver.Release("prog:" + name)
	for _, k := range s.solver.Keys() {
		if strings.HasPrefix(k, "lib:"+name+"|") {
			s.solver.Release(k)
		}
	}
	s.solverMu.Unlock()
	return evicted
}

// evictEntryLocked drops one cached instance from the in-memory
// tier: its shared frames (and export table) are released and the
// cache entry removed.  Frames a running process maps stay alive
// through the process's own references.  The main solver placement is
// deliberately kept so a rebuild lands at the same addresses.  Caller
// holds cacheMu.
func (s *Server) evictEntryLocked(inst *Instance) {
	for _, seg := range inst.ROSegs {
		s.kern.FT.Release(seg)
	}
	if inst.Table != nil {
		s.kern.FT.Release(inst.Table)
		s.solverMu.Lock()
		s.solver.Release("table:" + inst.Key)
		s.solverMu.Unlock()
	}
	s.dropVariantLocked(inst)
	delete(s.cache, inst.Key)
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
		if in.Table != nil {
			if err := p.MapSharedSegs([]*osim.FrameSeg{in.Table}, true); err != nil {
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
		size := inst.Res.SymSizes[sym]
		if size == 0 {
			size = 1
		}
		if addr >= a && addr < a+size && (name == "" || a > best) {
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
