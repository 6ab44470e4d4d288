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
// library dependencies (parallel.go) and its operands' evaluation out
// onto the processors no other request holds (buildgraph.Executor).
// Instead of a single global mutex, state is split into independent
// locks so cache hits never contend with builds:
//
//   - The namespace is an immutable version (nsVersion) behind an
//     atomic pointer.  A request reads one version from its root to its
//     reply without a lock; writers publish a changed copy (writeNS).
//   - solverMu: the constraint solver's address-space bookkeeping.
//   - cacheMu (RWMutex): the image cache, in-flight build table, and
//     persistent store attachment.
//   - bindMu (RWMutex): binding tables and store-blob checksums.
//   - upMu: the upgrade epoch; it also serializes namespace writers.
//   - Stats counters are atomics; read them via the Stats method.
//
// Lock order: cacheMu may be taken before solverMu (eviction releases
// placements) and before bindMu (a checksum is dropped beside its
// store delete); upMu is a leaf.  None of these locks is ever held
// across an m-graph evaluation, a link, or store I/O.
package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"maps"
	"path"
	"reflect"
	"sort"
	"strconv"
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
	"omos/internal/refusal"
	"omos/internal/store"
)

// SpecFunc is a server-registered specialization transformation
// (e.g. "monitor", "reorder").
type SpecFunc func(args []string, v *mgraph.Value) (*mgraph.Value, error)

// Stats is a point-in-time snapshot of server activity (see the
// Server.Stats method).  It is safe to take while builds are in
// flight: the counters behind it are atomics.  It is the daemon's one
// counter record: each field's `stat:"group name"` tag places it in
// the stats text, and Format prints every field exactly once.
type Stats struct {
	CacheHits     uint64 `stat:"cache hits"`
	CacheMisses   uint64 `stat:"cache misses"`
	ImagesBuilt   uint64 `stat:"cache images"`
	RelocsApplied uint64 `stat:"cache relocs"`
	ExternBinds   uint64 `stat:"cache extern-binds"`
	// BuildCycles is the simulated server time spent constructing
	// images (charged to the first requester).
	BuildCycles uint64 `stat:"cache buildcycles"`
	// BuiltBytes totals the image bytes produced by full links
	// (text + data + bss extents at materialize time).  Rebases and
	// mesh-fetched installs deliberately do not count: avoiding those
	// bytes is what both fast paths buy.
	BuiltBytes uint64 `stat:"cache built-bytes"`

	// Rebases counts placement misses served by sliding a cached
	// variant of the same content to the new bases (the rebase fast
	// path); RebaseMiss counts placement misses that had no usable
	// variant and fell back to a full relink.
	Rebases    uint64 `stat:"rebase slides"`
	RebaseMiss uint64 `stat:"rebase misses"`
	// RebasePatches counts 8-byte sites rewritten by rebases, and
	// RebaseDirtyPages the pages those rewrites dirtied; pages not
	// counted stay physically shared with the source variant
	// (RebaseSharedPages counts those avoided allocations).
	RebasePatches     uint64 `stat:"rebase patches"`
	RebaseDirtyPages  uint64 `stat:"rebase dirty-pages"`
	RebaseSharedPages uint64 `stat:"rebase shared-pages"`

	// WarmLoaded counts store records attached at boot (AttachStore):
	// images a request, rebase or mesh peer is served on first use
	// without a rebuild, unless the record's body turns out corrupt then.
	WarmLoaded uint64 `stat:"store warm-loaded"`
	// The Store* fields mirror the persistent image store's counters
	// (zero when the server runs without a store): blobs read back,
	// blobs written, capacity/namespace evictions, corrupt or stale
	// entries rejected, and current on-disk bytes.
	StoreLoads     uint64 `stat:"store loads"`
	StoreStores    uint64 `stat:"store stores"`
	StoreEvictions uint64 `stat:"store evictions"`
	StoreCorrupt   uint64 `stat:"store corrupt"`
	StoreBytes     uint64 `stat:"store bytes"`
	// StoreQuarantined counts blobs moved to the store's quarantine
	// directory after failing validation (including those found there
	// at boot).
	StoreQuarantined uint64 `stat:"store quarantined"`

	// The Scrub* fields mirror the store's background scrubber: blobs
	// re-verified, blobs quarantined by the scrubber, and orphaned
	// .tmp files swept.
	ScrubChecked     uint64 `stat:"scrub checked"`
	ScrubQuarantined uint64 `stat:"scrub quarantined"`
	ScrubOrphans     uint64 `stat:"scrub orphans"`

	// Recovered counts panics recovered inside build workers and the
	// singleflight leader — failures that were converted into one
	// failed request instead of a dead daemon.
	Recovered uint64 `stat:"robustness recovered"`
	// Shed counts requests rejected at the admission gate (zero when
	// the server runs ungated); BuildTimeouts counts builds cancelled
	// by the per-build watchdog.
	Shed          uint64 `stat:"robustness shed"`
	BuildTimeouts uint64 `stat:"robustness build-timeouts"`

	// The Nodes* fields count how the build-graph nodes of every
	// recorded instantiation resolved (graph.go).  NodesResumed counts
	// nodes woken from a previous session's checkpoint inside their
	// own build flight (each record wakes once);
	// NodesCheckpointed and CheckpointBytes account the per-node
	// write-through that makes resuming possible, CheckpointsFailed
	// the best-effort writes that were lost (the build still
	// succeeded).
	NodesBuilt        uint64 `stat:"graph built"`
	NodesRebased      uint64 `stat:"graph rebased"`
	NodesCached       uint64 `stat:"graph cached"`
	NodesResumed      uint64 `stat:"graph resumed"`
	NodesFailed       uint64 `stat:"graph failed"`
	NodesCheckpointed uint64 `stat:"graph checkpoints"`
	CheckpointsFailed uint64 `stat:"graph ckpt-failed"`
	CheckpointBytes   uint64 `stat:"graph ckpt-bytes"`

	// The resolution-cache counters (resolve.go).  SymbolSearches
	// counts symbols resolved by searching the library list (the cold
	// path); a warm build replaying a valid binding table performs
	// zero.  BindingHits/Misses/Invalidations account the table
	// lookups: an invalidation is a table found but no longer matching
	// the live library identities (a definer changed), which forces a
	// re-search.
	SymbolSearches       uint64 `stat:"resolve searches"`
	BindingHits          uint64 `stat:"resolve hits"`
	BindingMisses        uint64 `stat:"resolve misses"`
	BindingInvalidations uint64 `stat:"resolve invalidations"`
	// PinViolations counts pinned images rejected (and quarantined)
	// because a library identity no longer matched its pin — the
	// hijack defense firing.  RebindsBlocked/RebindsAllowed count
	// namespace mutations that would have re-bound a live program's
	// symbol: blocked without the allow flag, permitted with it.
	PinViolations  uint64 `stat:"resolve pin-violations"`
	RebindsBlocked uint64 `stat:"resolve rebinds-blocked"`
	RebindsAllowed uint64 `stat:"resolve rebinds-allowed"`

	// The live-upgrade counters (upgrade.go).  UpgradesStarted counts
	// epochs opened; every epoch ends in exactly one of
	// UpgradesCommitted or UpgradesRolledBack (a warm-restart recovery
	// of an interrupted epoch counts there too).  CanaryInstantiations
	// counts top-level instantiations routed to the canary (v2) cohort;
	// OptionalStubsServed counts optional imports that resolved to
	// their fallback stub because the definer was absent or
	// mid-rollback.
	UpgradesStarted      uint64 `stat:"upgrades started"`
	UpgradesCommitted    uint64 `stat:"upgrades committed"`
	UpgradesRolledBack   uint64 `stat:"upgrades rolled-back"`
	CanaryInstantiations uint64 `stat:"upgrades canary-instantiations"`
	OptionalStubsServed  uint64 `stat:"upgrades optional-stubs"`

	// The Mesh* counters account the federated-mesh hook (meshhook.go;
	// all zero on an unmeshed server): placement misses with no local
	// variant that consulted a remote shard owner, split into the
	// owner's blobs installed and consults that fell back to the local
	// build path (owner down or shedding, content unknown, validation
	// failed).
	MeshFetches      uint64 `stat:"mesh-hook fetches"`
	MeshBlobInstalls uint64 `stat:"mesh-hook blob-installs"`
	MeshFallbacks    uint64 `stat:"mesh-hook fallbacks"`
}

// statField is one value of the stats text: the Stats field index and
// the label printed before it.
type statField struct {
	label string
	index int
}

// statPlan is Stats' tags read once, in the order Format prints them:
// groups in the order they first appear, each group's fields in
// declaration order.  A label is " name=", led by "group:" on a
// group's first field and by a newline on every group but the first.
// statTextMax bounds the rendered text, so Format allocates once.  An
// untagged field is left out (TestStatsFormatCoversEveryField refuses
// one).
var statPlan, statTextMax = func() (plan []statField, size int) {
	var groups []string
	fields := map[string][]statField{}
	t := reflect.TypeOf(Stats{})
	for i := 0; i < t.NumField(); i++ {
		group, name, ok := strings.Cut(t.Field(i).Tag.Get("stat"), " ")
		if !ok {
			continue
		}
		if fields[group] == nil {
			groups = append(groups, group)
		}
		fields[group] = append(fields[group], statField{label: " " + name + "=", index: i})
	}
	for i, group := range groups {
		fs := fields[group]
		fs[0].label = group + ":" + fs[0].label
		if i > 0 {
			fs[0].label = "\n" + fs[0].label
		}
		for _, f := range fs {
			plan = append(plan, f)
			size += len(f.label) + 20 // the longest uint64
		}
	}
	return plan, size + 1
}()

// Format renders the snapshot as the counter lines of `omos stats`,
// one "group: name=value …" line per group.
func (st *Stats) Format() string {
	v := reflect.ValueOf(st).Elem()
	var b strings.Builder
	b.Grow(statTextMax)
	var num [20]byte
	for _, f := range statPlan {
		b.WriteString(f.label)
		b.Write(strconv.AppendUint(num[:0], v.Field(f.index).Uint(), 10))
	}
	b.WriteByte('\n')
	return b.String()
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
		MeshBlobInstalls: s.stats.meshBlobInstalls.Load(),
		MeshFallbacks:    s.stats.meshFallbacks.Load(),

		NodesBuilt:        s.stats.nodes[buildgraph.OutcomeBuilt].Load(),
		NodesRebased:      s.stats.nodes[buildgraph.OutcomeRebased].Load(),
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
	Pins []store.LibPin
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

// nsVersion is one immutable version of the namespace: the entries,
// remote mounts and specializers one request reads from its root to its
// reply.  A published version never changes; a writer publishes a
// changed copy (writeNS).  num numbers it in one monotone sequence
// shared by every version the server publishes, committed or staged:
// it is the m-graph memo generation, the binding tables' Gen and the
// epoch-id salt.
type nsVersion struct {
	num     uint64
	entries map[string]nsEntry
	mounts  []mount
	specs   map[string]SpecFunc
	// staged is the open upgrade epoch's version, the one the canary
	// cohort reads: these entries with the staged definitions layered
	// over them (nil when no epoch is open or while it rolls back).
	// epoch is set on a staged version only.
	staged *nsVersion
	epoch  *upgradeEpoch
	// unwinding holds the staged paths of an epoch rolling back: an
	// optional import of one degrades to its stub, since a version about
	// to disappear must not earn new bindings.
	unwinding map[string]bool
	// memo caches content hashes by path.  It stays valid for the
	// version's lifetime: the entries it hashes never change.
	memoMu sync.RWMutex
	memo   map[string]string
}

// copy returns an unpublished copy of v's entries, mounts and
// specializers for a writer to change.  Mounts and specializers are
// shared: a writer replaces them, never changes them in place.
func (v *nsVersion) copy() *nsVersion {
	return &nsVersion{entries: maps.Clone(v.entries), mounts: v.mounts, specs: v.specs, memo: map[string]string{}}
}

// Server is an OMOS instance.  It is safe for concurrent use.
type Server struct {
	kern *osim.Kernel

	// ns is the published committed namespace version.
	ns atomic.Pointer[nsVersion]

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

	// bindMu guards the stable-resolution state (resolve.go): the
	// binding tables keyed by resolution identity and the store-blob
	// checksums pins verify against.  Lock order: bindMu may be taken
	// under cacheMu (a checksum is dropped beside the store delete it
	// belongs to), never the reverse.
	bindMu   sync.RWMutex
	bindings map[string]*BindingTable
	blobSums map[string]string

	// upMu guards the live-upgrade epoch (upgrade.go): the staged v2
	// definitions, the canary cohort's health accounting, and the
	// pre-upgrade baseline.  It also serializes namespace writers
	// (writeNS), so a published version and the epoch it layers always
	// agree.  upMu is a leaf: it is never held across another lock, an
	// evaluation, or store I/O.
	upMu sync.Mutex
	// epoch is the active upgrade epoch, nil when none is open.
	epoch *upgradeEpoch
	// epochSeq numbers epochs within this process (epoch IDs also fold
	// in the namespace version number so restarts do not collide).
	epochSeq atomic.Uint64
	// lastAborted retains the terminal verdict of the most recent
	// automatic rollback so the status/commit path can surface a typed
	// *refusal.UpgradeAbortedError after the epoch itself is gone.
	lastAborted atomic.Pointer[refusal.UpgradeAbortedError]
	// baseFailEWMA is the server-wide instantiation-failure EWMA: the
	// pre-upgrade baseline a canary cohort is judged against.  Guarded
	// by upMu.
	baseFailEWMA float64
	// upgradeLog is the bounded upgrade audit trail surfaced through
	// Explain and the upgrade status report.  Guarded by upMu.
	upgradeLog []upgradeEvent

	stats statsCounters

	// exec is the build graph's worker pool: the dependency fan-out
	// submits one task per node (see parallel.go), evaluation one per
	// operand (evalCtx.RunAll); its processor gate counts the roots
	// in flight (inNode).
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
	// (meshhook.go): placement misses for remotely owned content that
	// no local variant can serve ask the shard owner for its bytes
	// before linking locally.  Install with
	// SetMesh before serving traffic.
	mesh MeshHook

	// buildTimeout, when positive, bounds each singleflight build
	// (watchdog.go).  Set with SetBuildTimeout before serving traffic.
	buildTimeout time.Duration

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
		solver:    constraint.NewSolver(),
		cache:     map[string]*Instance{},
		variants:  map[string][]*Instance{},
		dormant:   map[string]*store.Head{},
		dormantCK: map[string][]*store.Head{},
		inflight:  map[string]*flight{},
		bindings:  map[string]*BindingTable{},
		blobSums:  map[string]string{},
		exec:      buildgraph.NewExecutor(DefaultBuildWorkers),
		graph:     buildgraph.NewLog(),
	}
	s.ns.Store(&nsVersion{entries: map[string]nsEntry{}, specs: map[string]SpecFunc{}, memo: map[string]string{}})
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
	s.writeNS(func(v *nsVersion) {
		v.specs = maps.Clone(v.specs)
		v.specs[kind] = fn
	})
}

func cleanPath(p string) string { return path.Clean("/" + p) }

// writeNS is the namespace's one write path: it copies the committed
// version, lets edit change the copy, layers the open epoch over it and
// publishes both with one pointer swap.  A request already holding an
// older version keeps reading it whole.
func (s *Server) writeNS(edit func(v *nsVersion)) {
	s.upMu.Lock()
	defer s.upMu.Unlock()
	s.writeNSLocked(edit)
}

// writeNSLocked is writeNS for a caller holding upMu; edit may be nil
// when only the epoch changed.  The committed version and its staged
// view each take the next number of the sequence.
func (s *Server) writeNSLocked(edit func(v *nsVersion)) {
	old := s.ns.Load()
	v := old.copy()
	if edit != nil {
		edit(v)
	}
	v.num = old.num + 1
	if old.staged != nil {
		v.num = old.staged.num + 1
	}
	if ep := s.epoch; ep != nil && ep.rollingBack {
		v.unwinding = make(map[string]bool, len(ep.libs))
		for p := range ep.libs {
			v.unwinding[p] = true
		}
	} else if ep != nil {
		v.staged = v.copy()
		v.staged.num, v.staged.epoch = v.num+1, ep
		for p, el := range ep.libs {
			v.staged.entries[p] = el.entry
		}
	}
	s.ns.Store(v)
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
	s.writeNS(func(v *nsVersion) { v.entries[cleanPath(p)] = nsEntry{object: o, objHash: hex.EncodeToString(h[:8])} })
	return nil
}

// Define stores a program meta-object from blueprint source.  It is
// rejected with a typed *refusal.RebindError when the path currently
// defines a symbol some live program's resolution binds through it and
// the new source differs — use DefineAllow to make the re-bind
// explicit.
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
	if err := s.guardDefine(p, digestStr(src, fmt.Sprintf("lib=%v", isLib)), allow); err != nil {
		return err
	}
	meta, err := parseMeta(p, src, isLib)
	if err != nil {
		return err
	}
	s.writeNS(func(v *nsVersion) { v.entries[meta.Path] = nsEntry{meta: meta} })
	return nil
}

// guardDefine runs the rebind guard for defining p with the given
// source hash.  It fires only on a content-changing redefine of an
// existing entry.  A redefine with identical source is idempotent — no
// resolution can change.  A define with no prior entry is namespace
// population, not mutation: after a warm restart the namespace is empty
// while binding tables are warm-loaded, and the bootstrap re-defines
// must not need allow flags.  (A bootstrap define that does change
// content is still caught: its programs' warm bindings fail replay and
// are counted as invalidations — audited, never silent.)
func (s *Server) guardDefine(p, srcHash string, allow bool) error {
	prior, hadPrior := s.ns.Load().entries[cleanPath(p)]
	if !hadPrior || (prior.meta != nil && prior.meta.SrcHash == srcHash) {
		return nil
	}
	return s.guardRebind("define", p, allow)
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
	return s.current().LookupObject(p)
}

// Remove deletes a namespace entry.  Memoized hashes are invalidated,
// so a later redefine at the same path yields new cache keys rather
// than serving a stale image.  Removing a path some live program's
// resolution binds a symbol through is rejected with a typed
// *refusal.RebindError — use RemoveAllow to make it explicit.
func (s *Server) Remove(p string) error { return s.RemoveAllow(p, false) }

// RemoveAllow is Remove with an explicit rebind-allow flag.
func (s *Server) RemoveAllow(p string, allow bool) error {
	// Removing a path with no entry is a no-op; only a real removal
	// can re-bind anything.
	p = cleanPath(p)
	if _, present := s.ns.Load().entries[p]; !present {
		return nil
	}
	if err := s.guardRebind("remove", p, allow); err != nil {
		return err
	}
	s.writeNS(func(v *nsVersion) { delete(v.entries, p) })
	s.dropBindingsOf(p)
	return nil
}

// List returns namespace paths under a prefix, sorted.
func (s *Server) List(prefix string) []string {
	prefix = cleanPath(prefix)
	var out []string
	for p := range s.ns.Load().entries {
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

// evalCtx is one evaluation's view of the server: the namespace
// version v it reads, whole, from its root to its reply.  Evaluation
// takes no server lock (the cache and solver paths take their own),
// which is what lets many evaluations proceed in parallel.
type evalCtx struct {
	s *Server
	v *nsVersion
}

var _ mgraph.Context = evalCtx{}
var _ mgraph.HashGenerator = evalCtx{}
var _ mgraph.OptionalResolver = evalCtx{}
var _ mgraph.StubRecorder = evalCtx{}
var _ mgraph.Fanout = evalCtx{}

// current returns an evaluation context on the published committed
// version.
func (s *Server) current() evalCtx { return evalCtx{s: s, v: s.ns.Load()} }

type versionCtxKey struct{}

// withVersion carries the version a request took at its root through
// its library fan-out.
func withVersion(ctx context.Context, v *nsVersion) context.Context {
	return context.WithValue(ctx, versionCtxKey{}, v)
}

// ectx derives the evaluation context for a request from the version
// its root put in ctx.
func (s *Server) ectx(ctx context.Context) evalCtx {
	return evalCtx{s: s, v: ctx.Value(versionCtxKey{}).(*nsVersion)}
}

// HashGeneration implements mgraph.HashGenerator: m-graph subtree
// hashes memoized under one version number stay valid for that version.
func (c evalCtx) HashGeneration() uint64 { return c.v.num }

// entry resolves a namespace path in this evaluation's version,
// consulting its mounts on a miss.
func (c evalCtx) entry(p string) (nsEntry, bool, error) {
	p = cleanPath(p)
	if e, ok := c.v.entries[p]; ok {
		return e, true, nil
	}
	return c.s.fetchRemote(c.v, p)
}

// OptionalAvailable implements mgraph.OptionalResolver: an optional
// import resolves to its definer only while the definer exists and is
// not mid-rollback.
func (c evalCtx) OptionalAvailable(p string) bool {
	if c.v.unwinding[cleanPath(p)] {
		return false
	}
	e, ok, err := c.entry(p)
	return err == nil && ok && (e.meta != nil || e.object != nil)
}

// RecordOptionalStub implements mgraph.StubRecorder.
func (c evalCtx) RecordOptionalStub(p string) {
	c.s.stats.optionalStubsServed.Add(1)
}

// RunAll implements mgraph.Fanout: a node's operands evaluate on the
// build executor, so they spread onto processors no other request
// holds (SetBuildWorkers(1) keeps them serial).
func (c evalCtx) RunAll(tasks []func()) { c.s.exec.Run(tasks) }

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
// path in the version: the warm path costs one read-locked map lookup
// instead of a transitive re-hash.
func (c evalCtx) ContentHash(p string) (string, error) {
	p = cleanPath(p)
	c.v.memoMu.RLock()
	h, ok := c.v.memo[p]
	c.v.memoMu.RUnlock()
	if ok {
		return h, nil
	}
	e, ok, err := c.entry(p)
	if err != nil {
		return "", err
	}
	if !ok {
		return "", fmt.Errorf("server: nothing at %s", p)
	}
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
	c.v.memoMu.Lock()
	c.v.memo[p] = h
	c.v.memoMu.Unlock()
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
	fn, ok := c.v.specs[kind]
	if !ok {
		return nil, fmt.Errorf("server: unknown specialization %q", kind)
	}
	return fn(args, v)
}
