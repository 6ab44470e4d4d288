// Package server implements OMOS itself: the persistent
// object/meta-object server (§3).
//
// The server manages a hierarchical namespace of meta-objects
// (blueprints) and code fragments, evaluates m-graphs to construct
// executable images, places them with the constraint solver, and —
// crucially — caches the bound, relocated results so that repeated
// instantiations cost a lookup and a mapping rather than a relink.
// Because cached read-only segments are materialized as shared
// physical frames, the cache *is* the shared-library mechanism: every
// client of /lib/libc maps the same frames.
//
// # Concurrency
//
// The server is safe for concurrent use and built to scale with it:
// many clients instantiate at once, and one instantiation fans its
// library dependencies out across a bounded worker pool (parallel.go).
// Instead of a single global mutex, state is split into independent
// locks so cache hits never contend with builds:
//
//   - nsMu (RWMutex): namespace bindings, mounts, specializers.
//   - solverMu: the constraint solver's address-space bookkeeping.
//   - cacheMu (RWMutex): the image cache, in-flight build table, and
//     persistent store attachment.
//   - hashMu (RWMutex): the per-path content-hash memo.
//   - Stats counters are atomics; read them via the Stats method.
//
// Lock order: cacheMu may be taken before solverMu (eviction releases
// placements); no other pair nests.  None of these locks is ever held
// across an m-graph evaluation, a link, or store I/O.
package server

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"path"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"omos/internal/blueprint"
	"omos/internal/buildgraph"
	"omos/internal/constraint"
	"omos/internal/fault"
	"omos/internal/image"
	"omos/internal/link"
	"omos/internal/mgraph"
	"omos/internal/minic"
	"omos/internal/obj"
	"omos/internal/osim"
	"omos/internal/store"
)

// SpecFunc is a server-registered specialization transformation
// (e.g. "monitor", "reorder").
type SpecFunc func(args []string, v *mgraph.Value) (*mgraph.Value, error)

// Stats is a point-in-time snapshot of server activity (see the
// Server.Stats method).  It is safe to take while builds are in
// flight: the counters behind it are atomics.
type Stats struct {
	CacheHits     uint64
	CacheMisses   uint64
	ImagesBuilt   uint64
	RelocsApplied uint64
	ExternBinds   uint64
	// BuildCycles is the simulated server time spent constructing
	// images (charged to the first requester).
	BuildCycles uint64

	// Rebases counts placement misses served by sliding a cached
	// variant of the same content to the new bases (the rebase fast
	// path); RebaseMiss counts placement misses that had no usable
	// variant and fell back to a full relink.
	Rebases    uint64
	RebaseMiss uint64
	// RebasePatches counts 8-byte sites rewritten by rebases, and
	// RebaseDirtyPages the pages those rewrites dirtied; pages not
	// counted stay physically shared with the source variant
	// (RebaseSharedPages counts those avoided allocations).
	RebasePatches     uint64
	RebaseDirtyPages  uint64
	RebaseSharedPages uint64

	// The Store* fields mirror the persistent image store's counters
	// (zero when the server runs without a store): blobs read back,
	// blobs written, capacity/namespace evictions, corrupt or stale
	// entries rejected, and current on-disk bytes.
	StoreLoads     uint64
	StoreStores    uint64
	StoreEvictions uint64
	StoreCorrupt   uint64
	StoreBytes     uint64
	// WarmLoaded counts store records attached at boot (AttachStore):
	// images a request, rebase or mesh peer is served on first use
	// without a rebuild, unless the record's body turns out corrupt then.
	WarmLoaded uint64
	// StoreQuarantined counts blobs moved to the store's quarantine
	// directory after failing validation (including those found there
	// at boot).
	StoreQuarantined uint64

	// Recovered counts panics recovered inside build workers and the
	// singleflight leader — failures that were converted into one
	// failed request instead of a dead daemon.
	Recovered uint64

	// Shed counts requests rejected at the admission gate (zero when
	// the server runs ungated); BuildTimeouts counts builds cancelled
	// by the per-build watchdog.
	Shed          uint64
	BuildTimeouts uint64

	// The Scrub* fields mirror the store's background scrubber: blobs
	// re-verified, blobs quarantined by the scrubber, and orphaned
	// .tmp files swept.
	ScrubChecked     uint64
	ScrubQuarantined uint64
	ScrubOrphans     uint64

	// The Nodes* fields count how the build-graph nodes of every
	// recorded instantiation resolved (graph.go).  NodesResumed counts
	// nodes woken from a previous session's checkpoint inside their
	// own build flight (each record wakes once);
	// NodesCheckpointed and CheckpointBytes account the per-node
	// write-through that makes resuming possible, CheckpointsFailed
	// the best-effort writes that were lost (the build still
	// succeeded).
	NodesBuilt        uint64
	NodesCached       uint64
	NodesResumed      uint64
	NodesFailed       uint64
	NodesCheckpointed uint64
	CheckpointsFailed uint64
	CheckpointBytes   uint64

	// The resolution-cache counters (resolve.go).  SymbolSearches
	// counts symbols resolved by searching the library list (the cold
	// path); a warm build replaying a valid binding table performs
	// zero.  BindingHits/Misses/Invalidations account the table
	// lookups: an invalidation is a table found but no longer matching
	// the live library identities (a definer changed), which forces a
	// re-search.
	SymbolSearches       uint64
	BindingHits          uint64
	BindingMisses        uint64
	BindingInvalidations uint64
	// PinViolations counts pinned images rejected (and quarantined)
	// because a library identity no longer matched its pin — the
	// hijack defense firing.  RebindsBlocked/RebindsAllowed count
	// namespace mutations that would have re-bound a live program's
	// symbol: blocked without the allow flag, permitted with it.
	PinViolations  uint64
	RebindsBlocked uint64
	RebindsAllowed uint64

	// The live-upgrade counters (upgrade.go).  UpgradesStarted counts
	// epochs opened; every epoch ends in exactly one of
	// UpgradesCommitted or UpgradesRolledBack (a warm-restart recovery
	// of an interrupted epoch counts there too).  CanaryInstantiations
	// counts top-level instantiations routed to the canary (v2) cohort;
	// OptionalStubsServed counts optional imports that resolved to
	// their fallback stub because the definer was absent or
	// mid-rollback.
	UpgradesStarted      uint64
	UpgradesCommitted    uint64
	UpgradesRolledBack   uint64
	CanaryInstantiations uint64
	OptionalStubsServed  uint64

	// BuiltBytes totals the image bytes produced by full links
	// (text + data + bss extents at materialize time).  Rebases and
	// mesh-fetched installs deliberately do not count: avoiding those
	// bytes is what both fast paths buy.
	BuiltBytes uint64

	// The Mesh* counters account the federated-mesh hook (meshhook.go;
	// all zero on an unmeshed server): placement misses that consulted
	// a remote shard owner, split by how they were served — a
	// metadata-only reply rebased against a local variant, a streamed
	// blob installed — and consults that fell back to the local build
	// path (owner down or shedding, content unknown, validation
	// failed).
	MeshFetches      uint64
	MeshMetaRebases  uint64
	MeshBlobInstalls uint64
	MeshFallbacks    uint64
}

// statsCounters are the live counters behind the Stats snapshot.
type statsCounters struct {
	cacheHits     atomic.Uint64
	cacheMisses   atomic.Uint64
	imagesBuilt   atomic.Uint64
	relocsApplied atomic.Uint64
	externBinds   atomic.Uint64
	buildCycles   atomic.Uint64
	warmLoaded    atomic.Uint64
	recovered     atomic.Uint64
	buildTimeouts atomic.Uint64

	rebases           atomic.Uint64
	rebaseMiss        atomic.Uint64
	rebasePatches     atomic.Uint64
	rebaseDirtyPages  atomic.Uint64
	rebaseSharedPages atomic.Uint64

	symbolSearches       atomic.Uint64
	bindingHits          atomic.Uint64
	bindingMisses        atomic.Uint64
	bindingInvalidations atomic.Uint64
	pinViolations        atomic.Uint64
	rebindsBlocked       atomic.Uint64
	rebindsAllowed       atomic.Uint64

	upgradesStarted      atomic.Uint64
	upgradesCommitted    atomic.Uint64
	upgradesRolledBack   atomic.Uint64
	canaryInstantiations atomic.Uint64
	optionalStubsServed  atomic.Uint64

	builtBytes       atomic.Uint64
	meshFetches      atomic.Uint64
	meshMetaRebases  atomic.Uint64
	meshBlobInstalls atomic.Uint64
	meshFallbacks    atomic.Uint64

	// nodes counts finished build-graph nodes, one counter per outcome
	// (indexed by buildgraph.Outcome).
	nodes             [buildgraph.OutcomeFailed + 1]atomic.Uint64
	nodesCheckpointed atomic.Uint64
	checkpointsFailed atomic.Uint64
	checkpointBytes   atomic.Uint64
}

// Stats returns a consistent-enough snapshot of the activity counters.
// Safe to call at any time, including while builds are in flight.
func (s *Server) Stats() Stats {
	st := Stats{
		CacheHits:     s.stats.cacheHits.Load(),
		CacheMisses:   s.stats.cacheMisses.Load(),
		ImagesBuilt:   s.stats.imagesBuilt.Load(),
		RelocsApplied: s.stats.relocsApplied.Load(),
		ExternBinds:   s.stats.externBinds.Load(),
		BuildCycles:   s.stats.buildCycles.Load(),
		WarmLoaded:    s.stats.warmLoaded.Load(),
		Recovered:     s.stats.recovered.Load(),
		BuildTimeouts: s.stats.buildTimeouts.Load(),
		Shed:          s.admit.Shed(),

		Rebases:           s.stats.rebases.Load(),
		RebaseMiss:        s.stats.rebaseMiss.Load(),
		RebasePatches:     s.stats.rebasePatches.Load(),
		RebaseDirtyPages:  s.stats.rebaseDirtyPages.Load(),
		RebaseSharedPages: s.stats.rebaseSharedPages.Load(),

		SymbolSearches:       s.stats.symbolSearches.Load(),
		BindingHits:          s.stats.bindingHits.Load(),
		BindingMisses:        s.stats.bindingMisses.Load(),
		BindingInvalidations: s.stats.bindingInvalidations.Load(),
		PinViolations:        s.stats.pinViolations.Load(),
		RebindsBlocked:       s.stats.rebindsBlocked.Load(),
		RebindsAllowed:       s.stats.rebindsAllowed.Load(),

		UpgradesStarted:      s.stats.upgradesStarted.Load(),
		UpgradesCommitted:    s.stats.upgradesCommitted.Load(),
		UpgradesRolledBack:   s.stats.upgradesRolledBack.Load(),
		CanaryInstantiations: s.stats.canaryInstantiations.Load(),
		OptionalStubsServed:  s.stats.optionalStubsServed.Load(),

		BuiltBytes:       s.stats.builtBytes.Load(),
		MeshFetches:      s.stats.meshFetches.Load(),
		MeshMetaRebases:  s.stats.meshMetaRebases.Load(),
		MeshBlobInstalls: s.stats.meshBlobInstalls.Load(),
		MeshFallbacks:    s.stats.meshFallbacks.Load(),

		NodesBuilt:        s.stats.nodes[buildgraph.OutcomeBuilt].Load(),
		NodesCached:       s.stats.nodes[buildgraph.OutcomeCached].Load(),
		NodesResumed:      s.stats.nodes[buildgraph.OutcomeResumed].Load(),
		NodesFailed:       s.stats.nodes[buildgraph.OutcomeFailed].Load(),
		NodesCheckpointed: s.stats.nodesCheckpointed.Load(),
		CheckpointsFailed: s.stats.checkpointsFailed.Load(),
		CheckpointBytes:   s.stats.checkpointBytes.Load(),
	}
	s.cacheMu.RLock()
	stor := s.store
	s.cacheMu.RUnlock()
	if stor != nil {
		sst := stor.Stats()
		st.StoreLoads = sst.Loads
		st.StoreStores = sst.Stores
		st.StoreEvictions = sst.Evictions
		st.StoreCorrupt = sst.CorruptRejects
		st.StoreQuarantined = sst.Quarantined
		st.StoreBytes = sst.Bytes
		st.ScrubChecked = sst.ScrubChecked
		st.ScrubQuarantined = sst.ScrubQuarantined
		st.ScrubOrphans = sst.ScrubOrphans
	}
	return st
}

// InflightBuilds reports how many image builds are currently in
// flight (the singleflight table's population) — a health signal: a
// stuck build shows up here.
func (s *Server) InflightBuilds() int {
	s.cacheMu.RLock()
	defer s.cacheMu.RUnlock()
	return len(s.inflight)
}

// nsEntry is one namespace binding.
type nsEntry struct {
	meta    *mgraph.Meta
	object  *obj.Object
	objHash string
}

// Instance is a cached, materialized executable image: the unit the
// server hands to loaders.  Read-only segments are shared frames;
// writable segments are pristine bytes copied per client.
type Instance struct {
	Key  string
	Name string
	// ContentKey is the placement-independent identity of the image:
	// content hash + specialization kind + library identities, but no
	// addresses.  Instances sharing a ContentKey are placement variants
	// of the same bytes, and any of them can be slid to a new base by
	// the rebase fast path.  Empty when the instance cannot serve as a
	// rebase source (branch-table libraries).
	ContentKey string
	Res        *link.Result
	ROSegs     []*osim.FrameSeg
	RWSegs     []image.Segment
	// Libs are the library instances this image was linked against;
	// they must be mapped alongside it.
	Libs []*Instance
	// Table is the partial-image function hash table segment (nil
	// unless built via BuildExportTable).
	Table *osim.FrameSeg
	// TableAddr is the table's base address when present.
	TableAddr uint64
	// BTSlots maps upward-reference symbol names to branch-table slot
	// addresses, for libraries built with the "lib-branch-table"
	// specialization (§4.1): the slots live in the library's private
	// data and are patched per process at map time, so the library's
	// text stays shared even though it references client procedures.
	BTSlots map[string]uint64

	// Pins are the pinned identities of the libraries this image was
	// linked against (content keys + store checksums), recorded at
	// first link and verified whenever the image is mapped or woken
	// from the store (resolve.go).  Empty for images without libraries.
	Pins []Pin
	// bindKey is the image's resolution identity: the key its binding
	// table is recorded under (empty when resolution is not cached,
	// e.g. branch-table libraries).
	bindKey string

	// place records the constraint-solver request this instance was
	// placed under, so the persistent store can re-reserve the same
	// addresses on warm boot.
	place placeRec

	// lastUse is the LRU stamp (Server.useSeq at last touch), updated
	// atomically so cache hits need no write lock.
	lastUse atomic.Uint64
}

// placeRec is the solver placement an instance occupies.
type placeRec struct {
	SolverKey string
	TextBase  uint64
	TextSize  uint64
	DataBase  uint64
	DataSize  uint64
}

// memoHash is one cached per-path content hash, valid while the
// namespace generation is unchanged.
type memoHash struct {
	gen uint64
	val string
}

// Server is an OMOS instance.  It is safe for concurrent use.
type Server struct {
	kern *osim.Kernel

	// nsMu guards the namespace: ns, mounts, specs.
	nsMu   sync.RWMutex
	ns     map[string]nsEntry
	mounts []mount
	specs  map[string]SpecFunc

	// solverMu guards the constraint solver.
	solverMu sync.Mutex
	solver   *constraint.Solver

	// cacheMu guards the image cache tier: cache, the in-flight build
	// table (singleflight), and the persistent store attachment.
	cacheMu  sync.RWMutex
	cache    map[string]*Instance
	inflight map[string]*flight
	store    *store.Store
	// variants indexes cached instances by ContentKey: the placement
	// variants of one content identity, i.e. the candidate sources for
	// the rebase fast path (rebase.go).
	variants map[string][]*Instance
	// dormant holds the store records attached by their heads and not
	// yet woken, by cache key, and dormantCK the same heads by content
	// key, oldest first: the variants a wake can still produce
	// (persist.go).
	dormant   map[string]*store.Head
	dormantCK map[string][]*store.Head

	// useSeq is the monotone LRU clock; each Instance stamps itself on
	// use.
	useSeq atomic.Uint64

	// hashGen versions the namespace contents for hash memoization:
	// every mutation (define, put-object, remove, mount change) bumps
	// it, invalidating all memoized content and subtree hashes at once.
	// While it is unchanged the warm path does zero re-hashing.
	hashGen atomic.Uint64
	// hashMu guards hashMemo, the per-path content-hash memo.
	hashMu   sync.RWMutex
	hashMemo map[string]memoHash

	// bindMu guards the stable-resolution state (resolve.go): the
	// binding tables keyed by resolution identity and the store-blob
	// checksums pins verify against.  Lock order: bindMu may be taken
	// before nsMu (the rebind guard consults the namespace), never the
	// reverse; and under cacheMu (a checksum is dropped beside the store
	// delete it belongs to), never the reverse.
	bindMu   sync.RWMutex
	bindings map[string]*BindingTable
	blobSums map[string]string

	// upMu guards the live-upgrade epoch (upgrade.go): the staged v2
	// definitions, the canary cohort's health accounting, and the
	// pre-upgrade baseline.  Lock order: upMu is a leaf for namespace
	// purposes — it is never held across a define, an evaluation, or
	// store I/O (the commit/rollback paths copy what they need out
	// first).
	upMu sync.Mutex
	// epoch is the active upgrade epoch, nil when none is open.
	epoch *upgradeEpoch
	// epochSeq numbers epochs within this process (epoch IDs also fold
	// in the namespace generation so restarts do not collide).
	epochSeq atomic.Uint64
	// lastAborted retains the terminal verdict of the most recent
	// automatic rollback so the status/commit path can surface a typed
	// UpgradeAbortedError after the epoch itself is gone.
	lastAborted atomic.Pointer[UpgradeAbortedError]
	// baseFailEWMA is the server-wide instantiation-failure EWMA: the
	// pre-upgrade baseline a canary cohort is judged against.  Guarded
	// by upMu.
	baseFailEWMA float64
	// upgradeLog is the bounded upgrade audit trail surfaced through
	// Explain and the upgrade status report.  Guarded by upMu.
	upgradeLog []upgradeEvent

	stats statsCounters

	// exec is the build graph's bounded worker pool: the dependency
	// fan-out submits one task per node (see parallel.go).
	exec *buildgraph.Executor
	// graph records every instantiation as an explicit build DAG with
	// per-node outcomes, costs and checkpoints (graph.go).
	graph *buildgraph.Log

	// faults, when non-nil, arms the build.eval / build.link injection
	// sites.  Install with SetFaults before serving traffic.
	faults *fault.Set

	// admit, when non-nil, gates the public instantiation entry points
	// (admission.go).  Install with SetAdmission before serving
	// traffic.
	admit *Admission

	// mesh, when non-nil, federates this server into a daemon mesh
	// (meshhook.go): placement misses for remotely owned content
	// consult the shard owner before building locally.  Install with
	// SetMesh before serving traffic.
	mesh MeshHook

	// buildTimeout, when positive, bounds each singleflight build
	// (watchdog.go).  Set with SetBuildTimeout before serving traffic.
	buildTimeout time.Duration

	// degraded is the supervisor's verdict (supervisor.go): a
	// *degradedState or nil.
	degraded atomic.Pointer[degradedState]

	// PICSource selects PIC code generation for the source operator
	// (the OMOS path does not need PIC; see §4.1).
	PICSource bool
	// DisableCache turns off image caching: every instantiation
	// rebuilds from the m-graph.  This exists for the cache-ablation
	// benchmark — it isolates exactly what the paper's central
	// mechanism buys.  Callers are responsible for releasing uncached
	// instances with ReleaseInstance.  Set before serving traffic.
	DisableCache bool
}

// New creates a server attached to a simulated kernel (whose frame
// table backs the image cache).
func New(kern *osim.Kernel) *Server {
	s := &Server{
		kern:      kern,
		ns:        map[string]nsEntry{},
		solver:    constraint.NewSolver(),
		cache:     map[string]*Instance{},
		variants:  map[string][]*Instance{},
		dormant:   map[string]*store.Head{},
		dormantCK: map[string][]*store.Head{},
		specs:     map[string]SpecFunc{},
		inflight:  map[string]*flight{},
		hashMemo:  map[string]memoHash{},
		bindings:  map[string]*BindingTable{},
		blobSums:  map[string]string{},
		exec:      buildgraph.NewExecutor(DefaultBuildWorkers),
		graph:     buildgraph.NewLog(),
	}
	return s
}

// Kernel returns the kernel this server is attached to.
func (s *Server) Kernel() *osim.Kernel { return s.kern }

// SetFaults installs a fault-injection set for the build pipeline's
// sites.  Must be called before the server sees traffic (only the
// rules inside the set may change while requests are in flight).
func (s *Server) SetFaults(f *fault.Set) { s.faults = f }

// Solver exposes the constraint solver (for inspection in tests and
// benchmarks).
func (s *Server) Solver() *constraint.Solver { return s.solver }

// RegisterSpecializer installs a custom specialization kind.
func (s *Server) RegisterSpecializer(kind string, fn SpecFunc) {
	s.nsMu.Lock()
	defer s.nsMu.Unlock()
	s.specs[kind] = fn
}

func cleanPath(p string) string { return path.Clean("/" + p) }

// invalidateHashes bumps the namespace generation, invalidating every
// memoized content hash and m-graph subtree hash.  Called on any
// mutation that can change what a path resolves to.
func (s *Server) invalidateHashes() {
	s.hashGen.Add(1)
}

// PutObject stores a relocatable object at a namespace path.
func (s *Server) PutObject(p string, o *obj.Object) error {
	if err := o.Validate(); err != nil {
		return fmt.Errorf("server: put %s: %w", p, err)
	}
	enc, err := obj.Encode(o)
	if err != nil {
		return err
	}
	h := sha256.Sum256(enc)
	s.nsMu.Lock()
	s.ns[cleanPath(p)] = nsEntry{object: o, objHash: hex.EncodeToString(h[:8])}
	s.nsMu.Unlock()
	s.invalidateHashes()
	return nil
}

// Define stores a program meta-object from blueprint source.  It is
// rejected with a typed *RebindError when the path currently defines
// a symbol some live program's resolution binds through it and the
// new source differs — use DefineAllow to make the re-bind explicit.
func (s *Server) Define(p, src string) error { return s.define(p, src, false, false) }

// DefineAllow is Define with an explicit rebind-allow flag.
func (s *Server) DefineAllow(p, src string, allow bool) error {
	return s.define(p, src, false, allow)
}

// DefineLibrary stores a library-class meta-object.  Its source may
// begin with a (constraint-list ...) expression giving default address
// preferences (paper Figure 1); the remaining expression is the
// construction blueprint.  Like Define, a content-changing redefine
// of a live definer is rejected without the allow flag.
func (s *Server) DefineLibrary(p, src string) error { return s.define(p, src, true, false) }

// DefineLibraryAllow is DefineLibrary with an explicit rebind-allow
// flag.
func (s *Server) DefineLibraryAllow(p, src string, allow bool) error {
	return s.define(p, src, true, allow)
}

func (s *Server) define(p, src string, isLib, allow bool) error {
	// The rebind guard fires only on a content-changing redefine of an
	// existing entry.  A redefine with identical source is idempotent —
	// no resolution can change.  A define with no prior entry is
	// namespace population, not mutation: after a warm restart the
	// namespace is empty while binding tables are warm-loaded, and the
	// bootstrap re-defines must not need allow flags.  (A bootstrap
	// define that does change content is still caught: its programs'
	// warm bindings fail replay and are counted as invalidations —
	// audited, never silent.)
	newHash := digestStr(src, fmt.Sprintf("lib=%v", isLib))
	s.nsMu.RLock()
	prior, hadPrior := s.ns[cleanPath(p)]
	s.nsMu.RUnlock()
	identical := prior.meta != nil && prior.meta.SrcHash == newHash
	if hadPrior && !identical {
		if err := s.guardRebind("define", p, allow); err != nil {
			return err
		}
	}
	meta, err := parseMeta(p, src, isLib)
	if err != nil {
		return err
	}
	s.nsMu.Lock()
	s.ns[meta.Path] = nsEntry{meta: meta}
	s.nsMu.Unlock()
	s.invalidateHashes()
	return nil
}

// parseMeta parses a blueprint into a meta-object without installing
// it — shared by define and the upgrade engine's staging path, which
// must validate v2 sources before they ever touch the namespace.
func parseMeta(p, src string, isLib bool) (*mgraph.Meta, error) {
	exprs, err := blueprint.ParseAll(src)
	if err != nil {
		return nil, fmt.Errorf("server: define %s: %w", p, err)
	}
	if len(exprs) == 0 {
		return nil, fmt.Errorf("server: define %s: empty blueprint", p)
	}
	meta := &mgraph.Meta{
		Path:      cleanPath(p),
		IsLibrary: isLib,
		SrcHash:   digestStr(src, fmt.Sprintf("lib=%v", isLib)),
		Src:       src,
	}
	meta.DefaultSpec = mgraph.Spec{Kind: "lib-static"}
	idx := 0
	if exprs[0].Op() == "constraint-list" {
		prefs, err := mgraph.ParseConstraintList(exprs[0])
		if err != nil {
			return nil, fmt.Errorf("server: define %s: %w", p, err)
		}
		meta.DefaultSpec.Prefs = prefs
		idx = 1
	}
	if len(exprs) != idx+1 {
		return nil, fmt.Errorf("server: define %s: want one construction expression, got %d", p, len(exprs)-idx)
	}
	root, err := mgraph.Build(exprs[idx])
	if err != nil {
		return nil, fmt.Errorf("server: define %s: %w", p, err)
	}
	meta.Root = root
	return meta, nil
}

// GetObject returns the relocatable object stored at a namespace path.
func (s *Server) GetObject(p string) (*obj.Object, error) {
	return evalCtx{s: s}.LookupObject(p)
}

// Remove deletes a namespace entry.  Memoized hashes are invalidated,
// so a later redefine at the same path yields new cache keys rather
// than serving a stale image.  Removing a path some live program's
// resolution binds a symbol through is rejected with a typed
// *RebindError — use RemoveAllow to make it explicit.
func (s *Server) Remove(p string) error { return s.RemoveAllow(p, false) }

// RemoveAllow is Remove with an explicit rebind-allow flag.
func (s *Server) RemoveAllow(p string, allow bool) error {
	// Removing a path with no entry is a no-op; only a real removal
	// can re-bind anything.
	s.nsMu.RLock()
	_, present := s.ns[cleanPath(p)]
	s.nsMu.RUnlock()
	if !present {
		return nil
	}
	if err := s.guardRebind("remove", p, allow); err != nil {
		return err
	}
	s.nsMu.Lock()
	delete(s.ns, cleanPath(p))
	s.nsMu.Unlock()
	s.dropBindingsOf(cleanPath(p))
	s.invalidateHashes()
	return nil
}

// List returns namespace paths under a prefix, sorted.
func (s *Server) List(prefix string) []string {
	prefix = cleanPath(prefix)
	s.nsMu.RLock()
	defer s.nsMu.RUnlock()
	var out []string
	for p := range s.ns {
		if prefix == "/" || p == prefix || strings.HasPrefix(p, prefix+"/") {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

func digestStr(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))[:24]
}

// ---- mgraph.Context implementation ----

// evalCtx wraps the server for an evaluation; evaluation runs without
// any server lock held (the context methods take the fine-grained
// locks they need), which is what lets many evaluations proceed in
// parallel.
//
// v2 marks a canary-cohort evaluation during a live upgrade epoch:
// namespace lookups see the epoch's staged definitions layered over
// the committed namespace, and every hash generation carries the
// canaryGenBit so v1 and v2 evaluations never share a memo slot (the
// single-slot per-node memos in mgraph would otherwise alternate
// between cohorts and, worse, serve one cohort the other's hash).
type evalCtx struct {
	s  *Server
	v2 bool
}

var _ mgraph.Context = evalCtx{}
var _ mgraph.HashGenerator = evalCtx{}
var _ mgraph.OptionalResolver = evalCtx{}
var _ mgraph.StubRecorder = evalCtx{}

// canaryGenBit segregates canary-cohort hash generations from
// baseline ones.  hashGen is a mutation counter that will never reach
// 2^63 in practice, so the top bit is free to carry the cohort.
const canaryGenBit = uint64(1) << 63

// gen returns the namespace generation for this evaluation's cohort.
func (c evalCtx) gen() uint64 {
	g := c.s.hashGen.Load()
	if c.v2 {
		g |= canaryGenBit
	}
	return g
}

// HashGeneration implements mgraph.HashGenerator: m-graph subtree
// hashes memoized under this generation stay valid until the next
// namespace mutation (and are cohort-segregated during an upgrade).
func (c evalCtx) HashGeneration() uint64 { return c.gen() }

// entry resolves a namespace path for this evaluation's cohort: a
// canary evaluation sees the upgrade epoch's staged definitions
// layered over the committed namespace.
func (c evalCtx) entry(p string) (nsEntry, bool, error) {
	if c.v2 {
		if e, ok := c.s.stagedEntry(p); ok {
			return e, true, nil
		}
	}
	return c.s.lookupEntry(p)
}

// OptionalAvailable implements mgraph.OptionalResolver: an optional
// import resolves to its definer only while the definer exists and is
// not mid-rollback (a path whose staged upgrade is being unwound must
// degrade, not bind to a version about to disappear).
func (c evalCtx) OptionalAvailable(p string) bool {
	if c.s.optionalUnavailable(p, c.v2) {
		return false
	}
	e, ok, err := c.entry(p)
	return err == nil && ok && (e.meta != nil || e.object != nil)
}

// RecordOptionalStub implements mgraph.StubRecorder.
func (c evalCtx) RecordOptionalStub(p string) {
	c.s.stats.optionalStubsServed.Add(1)
}

// LookupObject implements mgraph.Context.
func (c evalCtx) LookupObject(p string) (*obj.Object, error) {
	e, ok, err := c.entry(p)
	if err != nil {
		return nil, err
	}
	if !ok || e.object == nil {
		return nil, fmt.Errorf("server: no object at %s", p)
	}
	return e.object, nil
}

// LookupMeta implements mgraph.Context.
func (c evalCtx) LookupMeta(p string) (*mgraph.Meta, error) {
	e, ok, err := c.entry(p)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("server: nothing at %s", p)
	}
	return e.meta, nil // nil for raw objects
}

// ContentHash implements mgraph.Context.  Results are memoized per
// path for the current namespace generation: the warm path costs one
// read-locked map lookup instead of a transitive re-hash.
func (c evalCtx) ContentHash(p string) (string, error) {
	p = cleanPath(p)
	gen := c.gen()
	c.s.hashMu.RLock()
	m, ok := c.s.hashMemo[p]
	c.s.hashMu.RUnlock()
	if ok && m.gen == gen {
		return m.val, nil
	}
	e, ok, err := c.entry(p)
	if err != nil {
		return "", err
	}
	if !ok {
		return "", fmt.Errorf("server: nothing at %s", p)
	}
	var h string
	if e.object != nil {
		h = e.objHash
	} else {
		// Meta: include the blueprint hash; the transitive content of
		// its references is folded in by hashing the root graph.
		sub, err := e.meta.Root.Hash(c)
		if err != nil {
			return "", err
		}
		h = digestStr(e.meta.SrcHash, sub)
	}
	// Store under the generation read before the lookup: if a mutation
	// raced with the computation the entry is already stale and will
	// be recomputed on the next call.
	c.s.hashMu.Lock()
	c.s.hashMemo[p] = memoHash{gen: gen, val: h}
	c.s.hashMu.Unlock()
	return h, nil
}

// Compile implements mgraph.Context (the `source` operator).
func (c evalCtx) Compile(lang, text string) ([]*obj.Object, error) {
	switch lang {
	case "c":
		return minic.Compile(text, minic.Options{Unit: "source", PIC: c.s.PICSource})
	case "asm", "s":
		o, err := asmCompile(text)
		if err != nil {
			return nil, err
		}
		return []*obj.Object{o}, nil
	default:
		return nil, fmt.Errorf("server: unsupported source language %q", lang)
	}
}

// Specialize implements mgraph.Context.
func (c evalCtx) Specialize(kind string, args []string, v *mgraph.Value) (*mgraph.Value, error) {
	c.s.nsMu.RLock()
	fn, ok := c.s.specs[kind]
	c.s.nsMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("server: unknown specialization %q", kind)
	}
	return fn(args, v)
}
