package main

import (
	"fmt"
	"os"
	"runtime"
	"time"
)

// setupCalBurst is how many kernel timings are taken on each side of a
// set-up repetition.
const setupCalBurst = 15

// config is what one invocation was asked to do.
type config struct {
	seed   int64
	window time.Duration
	ref    *reference
}

// setUpTimed repeats the workload's whole set-up script, each time on a
// fresh directory after a collection, tearing the previous repetition
// down outside the timer.  It returns the last repetition live, and
// every repetition's duration in seconds, as read (raw) and at reference
// host speed (the calibration kernel is timed just before and just after
// each repetition).
func setUpTimed(w *spec, e *env, reps int) (live, string, []float64, []float64, error) {
	var times, raw []float64
	for i := 0; ; i++ {
		dir, err := os.MkdirTemp("", "omos-bench-"+w.name+"-")
		if err != nil {
			return nil, "", nil, nil, err
		}
		runtime.GC()
		kernel := calBurst(setupCalBurst)
		start := time.Now()
		l, err := w.setUp(e, dir)
		took := time.Since(start).Seconds()
		kernel = append(kernel, calBurst(setupCalBurst)...)
		raw = append(raw, took)
		times = append(times, took/slowdown(kernel, calNominalIdle))
		if err != nil {
			os.RemoveAll(dir)
			return nil, "", nil, nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		if i == reps-1 {
			return l, dir, times, raw, nil
		}
		err = l.close()
		os.RemoveAll(dir)
		if err != nil {
			return nil, "", nil, nil, fmt.Errorf("%s set-up teardown: %w", w.name, err)
		}
	}
}

// runWorkload is one untraced run of a workload: timed set-up, window,
// and the measurements taken after it while the daemon is still alive.
func runWorkload(w *spec, cfg config) (*result, error) {
	res := newResult(w, cfg.seed)
	e := &env{ref: cfg.ref, seed: cfg.seed}
	l, dir, times, raw, err := setUpTimed(w, e, w.setupReps)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	res.SetupReps = times
	res.Metrics["setup_s"] = median(times)
	res.Raw["setup_s"] = median(raw)

	win, heap, err := runWindow(w, l, cfg.seed, cfg.window, nil)
	if err != nil {
		l.close()
		return nil, err
	}
	res.WindowS = win.wall.Seconds()
	res.Metrics["heap_live_mb"] = heap
	summarize(res, win)
	if _, ok := res.Metrics["sim_cycles_op"]; !ok {
		sim, err := l.probeSim()
		if err != nil {
			l.close()
			return nil, fmt.Errorf("%s probe run: %w", w.name, err)
		}
		res.Metrics["sim_cycles_op"] = float64(sim)
	}
	if err := l.close(); err != nil {
		return nil, fmt.Errorf("%s teardown: %w", w.name, err)
	}
	return res, nil
}
