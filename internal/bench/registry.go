package bench

// Entry is one registered experiment.
type Entry struct {
	ID   string
	Desc string
	Run  func(Config) (*Table, error)
	// Exact says the table's Format() output repeats to the digit on
	// any host, at any GOMAXPROCS, under the race detector: every cell
	// is a simulated charge or a count that no goroutine schedule can
	// move.  It is a fact about the table, not a setting; the exact
	// tables are pinned byte for byte by testdata/quick.golden, the
	// others by the shape test that names them.
	Exact bool
}

// Registry lists every experiment, in print order.  cmd/omosbench, the
// tests and the golden all read this one list.
var Registry = []Entry{
	{"1a", "Table 1a: ls in a one-entry directory (HP-UX)", Table1a, true},
	{"1b", "Table 1b: ls -laF in a populated directory (HP-UX)", Table1b, true},
	{"1c", "Table 1c: codegen compute workload (HP-UX)", Table1c, true},
	{"1d", "Table 1d: Mach 3.0 cost model, bootstrap vs integrated exec", Table1d, true},
	{"reorder", "procedure reordering: fault counts and touched pages (§4.1)", Reorder, true},
	{"memory", "physical memory sharing across concurrent clients", Memory, true},
	{"linktime", "link-time comparison: static vs dynamic vs OMOS (§2.1)", LinkTime, true},
	{"cache", "image cache: cold build vs warm hit", CacheWarmCold, true},
	{"schemes", "linkage schemes: direct vs branch-table vs PIC", Schemes, true},
	{"cacheoff", "cache ablation: every instantiation relinks", CacheAblation, true},
	{"monitor", "monitoring instrumentation overhead (§4.1)", MonitorOverhead, true},
	{"clients", "server throughput under concurrent clients", Clients, true},
	{"binding", "eager vs lazy binding ablation", BindAblation, true},
	{"constraints", "constraint system: conflicting placement requests (§3.5)", Constraints, true},
	{"warmrestart", "persistent store: cold boot vs warm restart", WarmRestart, true},
	// Not exact: the cold rows race N clients into one singleflight, and
	// where each loser joins decides what it is charged (sum-cycles
	// moves run to run).  The warm and ablation rows do repeat.
	{"concurrency", "concurrent clients: singleflight, lock decomposition, parallel builds", Concurrency, false},
	{"degraded", "degraded store: warm-hit latency under 1% injected read faults", Degraded, true},
	{"rebase", "rebase fast path: full relink vs slide at 1/4/16 distinct bases", Rebase, true},
	{"buildgraph", "checkpointed build graph: cold build vs crash-resume at 25/50/75%", Buildgraph, true},
	{"resolution", "stable resolution cache: symbol search vs binding replay vs invalidation", Resolution, true},
	{"upgrade", "live upgrade: warm instantiation stream while flipping 6 libraries", Upgrade, true},
	// Not exact: the ring hashes the daemons' ephemeral listen
	// addresses, so which content keys a daemon owns — and with it how
	// many bytes the fleet links and fetches — differs from run to run.
	{"mesh", "federated mesh: 4-daemon fleet vs 4 independent daemons, bytes built and remote misses served", Mesh, false},
}
