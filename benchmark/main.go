// Command benchmark is the repository's benchmark: four closed-loop
// workloads driven against an in-process OMOS daemon over loopback TCP,
// reported on two clocks (Go wall/CPU time and the simulated-cycle
// model), with a traced mode that breaks the time down by layer.  See
// README.md beside this file for why each workload and metric exists.
//
//	go run ./benchmark                          # the suite, untraced
//	go run ./benchmark -trace trace.json        # ... then traced runs and layer probes
//	go run ./benchmark -repeat 3 -json a.json   # three interleaved suites, with spreads
//	go run ./benchmark -compare a.json b.json   # judge two sets by the bounds
//
// The acceptance driver's form runs one workload and ends its output
// with one JSON line:
//
//	... -workload exec-warm -seed 3 -seconds 24 -trace 0|1
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// benchProcs pins GOMAXPROCS: the workloads are sized for two cores
// (two clients plus the server's worker pool), and a wider machine must
// not silently change what is measured.
const benchProcs = 2

func main() {
	var (
		only    = flag.String("workload", "", "run only this workload and end with the driver's JSON line")
		seed    = flag.Int64("seed", 1, "workload seed: shuffles every block and picks the generated programs' constants")
		window  = flag.Duration("window", 30*time.Second, "measured window per workload (ends at the next block boundary)")
		seconds = flag.Int("seconds", 0, "the window in whole seconds (the driver's spelling of -window)")
		trace   = flag.String("trace", "0", "0: untraced; 1: traced run and layer probes; any other value: the same, spans written to that file")
		repeat  = flag.Int("repeat", 1, "run the whole suite this many times, workloads interleaved, and print the spread")
		jsonOut = flag.String("json", "", "write every run to this file (what -compare reads)")
		compare = flag.Bool("compare", false, "compare two -json files given as arguments and exit")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two report files"))
		}
		worse, err := printCompare(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse > 0 {
			os.Exit(1)
		}
		return
	}
	if *seconds > 0 {
		*window = time.Duration(*seconds) * time.Second
	}
	runtime.GOMAXPROCS(benchProcs)

	ws := suite
	if *only != "" {
		w := findWorkload(*only)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *only))
		}
		ws = []*spec{w}
	}
	ref, err := loadReference()
	if err != nil {
		fatal(err)
	}
	cfg := config{seed: *seed, window: *window, ref: ref}
	rep := &report{Header: newHeader(*seed, *window)}
	rep.Header.print(os.Stdout)
	traced := *trace != "0" && *trace != ""
	var bad error

	// The driver's traced form measures layers only; every other form
	// takes the end-to-end numbers first, always with tracing off.
	if !(traced && *only != "") {
		for i := 0; i < *repeat; i++ {
			for _, w := range ws {
				res, err := runWorkload(w, cfg)
				if err != nil {
					fatal(err)
				}
				printResult(os.Stdout, res)
				rep.Runs = append(rep.Runs, res)
				if err := res.verdict(); err != nil && bad == nil {
					bad = err
				}
			}
		}
		if *repeat > 1 {
			printRepeat(os.Stdout, rep.Runs)
		}
	}
	if traced {
		var spans []*traceReport
		tcfg := cfg
		tcfg.window = traceWindowOf(cfg.window)
		for _, w := range ws {
			res, traces, reps, err := traceRun(w, tcfg)
			if err != nil {
				fatal(err)
			}
			printLayers(os.Stdout, res)
			rep.Layers = append(rep.Layers, res)
			spans = append(spans, traces...)
			rep.Reps = reps
			if res.Failed > 0 && bad == nil {
				bad = res.verdict()
			}
		}
		if *trace != "1" {
			tf := struct {
				Header header         `json:"header"`
				Traces []*traceReport `json:"traces"`
			}{rep.Header, spans}
			if err := writeJSON(*trace, tf); err != nil {
				fatal(err)
			}
		}
	}
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, rep); err != nil {
			fatal(err)
		}
	}
	if *only != "" {
		if traced {
			fmt.Println(contractLine(rep.Layers[0], perLayerDefs, rep.Layers[0].Layers))
		} else {
			fmt.Println(contractLine(rep.Runs[0], endToEndDefs, rep.Runs[0].Metrics))
		}
	}
	if bad != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", bad)
		os.Exit(1)
	}
}

// traceRun is one traced run of a workload plus every layer probe.  The
// probes do not depend on the workload; they run on daemons and systems
// of their own, after the traced window, so that every traced run
// reports every per-layer metric.
func traceRun(w *spec, cfg config) (*result, []*traceReport, map[string]int, error) {
	// restart-warm's set-up leaves the filled store the probes need.
	filled := w.name == "restart-warm"
	res, rep, storeDir, err := traceWorkload(w, cfg, filled)
	if err != nil {
		return nil, nil, nil, err
	}
	if !filled {
		if storeDir, err = os.MkdirTemp("", "omos-bench-fill-"); err != nil {
			return nil, nil, nil, err
		}
		if _, err := setUpRestart(&env{ref: cfg.ref, seed: cfg.seed}, storeDir); err != nil {
			os.RemoveAll(storeDir)
			return nil, nil, nil, fmt.Errorf("filling the probe store: %w", err)
		}
	}
	defer os.RemoveAll(storeDir)
	p, err := directProbes(cfg.ref, cfg.seed, storeDir)
	if err != nil {
		return nil, nil, nil, err
	}
	stack, err := stackProbes(cfg.ref, cfg.seed, p)
	if err != nil {
		return nil, nil, nil, err
	}
	for k, v := range p.out {
		res.Layers[k] = v
	}
	return res, []*traceReport{rep, stack}, p.reps, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}
