// Command omosbench regenerates the paper's evaluation on the
// simulated clock: every sub-table of Table 1, the reordering and
// memory experiments, the link-time comparison, the cache behaviour,
// and the rest of bench.Registry.  EXPERIMENTS.md records the expected
// shapes.  Wall time is the other harness's job (benchmark/).
//
// Usage:
//
//	omosbench [-quick] [-table id[,id...]] [-iters n] [-list]
//
// -list prints every table id with a one-line description and exits;
// -table all (the default) runs them all.
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

	if *list {
		for _, e := range bench.Registry {
			fmt.Printf("%-12s %s\n", e.ID, e.Desc)
		}
		return
	}
	want := map[string]bool{}
	for _, id := range strings.Split(*tables, ",") {
		want[strings.TrimSpace(id)] = true
	}
	ran := 0
	for _, e := range bench.Registry {
		if !want["all"] && !want[e.ID] {
			continue
		}
		t, err := e.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "omosbench: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Println(t.Format())
		ran++
	}
	if ran == 0 {
		fmt.Fprintln(os.Stderr, "omosbench: no matching tables (use -list to see the ids, or -table all)")
		os.Exit(2)
	}
}
