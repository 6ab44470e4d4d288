// Command omosbench regenerates the paper's evaluation: every
// sub-table of Table 1, the reordering and memory experiments, the
// link-time comparison, the cache behaviour, and the constraint-system
// demonstration.  EXPERIMENTS.md records the expected shapes.
//
// Usage:
//
//	omosbench [-quick] [-table id[,id...]] [-iters n] [-json path] [-list]
//
// Table ids: 1a 1b 1c 1d reorder memory linktime cache constraints
// schemes binding cacheoff monitor clients warmrestart concurrency
// degraded rebase buildgraph resolution upgrade soak mesh all.
// -list prints
// every table id with a
// one-line description and exits.  -json additionally writes every
// table that ran to the given path as JSON (table -> rows -> metric
// map), for CI artifacts and offline comparison.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"omos/internal/bench"
)

func main() {
	quick := flag.Bool("quick", false, "small workloads and few iterations")
	tables := flag.String("table", "all", "comma-separated table ids")
	iters := flag.Int("iters", 0, "override iteration count")
	jsonPath := flag.String("json", "", "also write the tables that ran to this path as JSON")
	list := flag.Bool("list", false, "print the table ids and exit")
	flag.Parse()

	cfg := bench.DefaultConfig()
	if *quick {
		cfg = bench.QuickConfig()
	}
	if *iters > 0 {
		cfg.ItersHPUX = *iters
		cfg.ItersMach = *iters
	}

	type exp struct {
		id   string
		desc string
		run  func(bench.Config) (*bench.Table, error)
	}
	all := []exp{
		{"1a", "Table 1a: ls in a one-entry directory (HP-UX)", bench.Table1a},
		{"1b", "Table 1b: ls -laF in a populated directory (HP-UX)", bench.Table1b},
		{"1c", "Table 1c: codegen compute workload (HP-UX)", bench.Table1c},
		{"1d", "Table 1d: Mach 3.0 cost model, bootstrap vs integrated exec", bench.Table1d},
		{"reorder", "procedure reordering: fault counts and touched pages (§4.1)", bench.Reorder},
		{"memory", "physical memory sharing across concurrent clients", bench.Memory},
		{"linktime", "link-time comparison: static vs dynamic vs OMOS (§2.1)", bench.LinkTime},
		{"cache", "image cache: cold build vs warm hit", bench.CacheWarmCold},
		{"schemes", "linkage schemes: direct vs branch-table vs PIC", bench.Schemes},
		{"cacheoff", "cache ablation: every instantiation relinks", bench.CacheAblation},
		{"monitor", "monitoring instrumentation overhead (§4.1)", bench.MonitorOverhead},
		{"clients", "server throughput under concurrent clients", bench.Clients},
		{"binding", "eager vs lazy binding ablation", bench.BindAblation},
		{"constraints", "constraint system: conflicting placement requests (§3.5)", bench.Constraints},
		{"warmrestart", "persistent store: cold boot vs warm restart", bench.WarmRestart},
		{"concurrency", "concurrent clients: singleflight, lock decomposition, parallel builds", bench.Concurrency},
		{"degraded", "degraded store: warm-hit latency under 1% injected read faults", bench.Degraded},
		{"rebase", "rebase fast path: full relink vs slide at 1/4/16 distinct bases", bench.Rebase},
		{"buildgraph", "checkpointed build graph: cold build vs crash-resume at 25/50/75%", bench.Buildgraph},
		{"resolution", "stable resolution cache: symbol search vs binding replay vs invalidation", bench.Resolution},
		{"upgrade", "live upgrade: warm instantiation stream while flipping 6 libraries", bench.Upgrade},
		{"soak", "overload soak: shed rate and latency at 1x/4x/16x saturation (wall clock)", bench.Soak},
		{"mesh", "federated mesh: 4-daemon fleet vs 4 independent daemons, bytes built and warm ops/sec", bench.Mesh},
	}
	if *list {
		for _, e := range all {
			fmt.Printf("%-12s %s\n", e.id, e.desc)
		}
		return
	}
	want := map[string]bool{}
	for _, id := range strings.Split(*tables, ",") {
		want[strings.TrimSpace(id)] = true
	}
	var ran []*bench.Table
	for _, e := range all {
		if !want["all"] && !want[e.id] {
			continue
		}
		t, err := e.run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "omosbench: %s: %v\n", e.id, err)
			os.Exit(1)
		}
		fmt.Println(t.Format())
		ran = append(ran, t)
	}
	if len(ran) == 0 {
		fmt.Fprintln(os.Stderr, "omosbench: no matching tables (use -list to see the ids, or -table all)")
		os.Exit(2)
	}
	if *jsonPath != "" {
		blob, err := bench.TablesJSON(ran)
		if err != nil {
			fmt.Fprintf(os.Stderr, "omosbench: encoding json: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonPath, blob, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "omosbench: writing %s: %v\n", *jsonPath, err)
			os.Exit(1)
		}
	}
}
