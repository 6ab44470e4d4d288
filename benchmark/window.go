package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"omos/internal/server"
)

// sample is one completed op.  It holds no pointer, so a window of a
// million samples costs the collector nothing to scan.
type sample struct {
	start, end int64 // ns since the window began
	sim        uint64
	class      uint8
	ok         bool
	// phase: tracing was off for the whole op (0), on for the whole op
	// (1), or switched while it ran (2).  Always 0 in an untraced run.
	phase uint8
}

// cpuPoint is the process's CPU time (user+system) at a moment of the
// window, taken by the sampler so that a slice's CPU can be read off
// between any two moments.
type cpuPoint struct{ t, cpu int64 }

// window is everything measured while a workload ran.
type window struct {
	samples []sample // in completion order
	cpu     []cpuPoint
	cal     []calPoint // the calibration kernel's timings
	// the server's counters when the window began and ended
	statsBefore, statsAfter server.Stats
	wall                    time.Duration
	before, after           runtime.MemStats
	loadStart               string
	loadEnd                 string
	errs                    []string // the first few failures
}

// samplerTick is how often the sampler reads getrusage; tracePhase is
// how long tracing stays on, then off, in a traced window.
const (
	samplerTick = 20 * time.Millisecond
	tracePhase  = time.Second
)

func processCPU() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

func loadAvg() string {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "?"
	}
	if f := strings.Fields(string(b)); len(f) > 0 {
		return f[0]
	}
	return "?"
}

// runWindow drives a live workload: warm-up blocks, the live-heap
// sample, then every client loops over its seeded blocks until the first
// block boundary after dur.  With tr set, tracing alternates on and off
// every tracePhase for the length of the window.
//
// heapMB is sampled between warm-up and window, where every run of a
// workload has done exactly the same ops: the daemon is up, its caches
// are hot, its clients are connected and idle.  (After the window the
// heap also holds whatever the server retains per op, times however
// many ops this run happened to fit — see go.heap_growth_kb_op.)
func runWindow(w *spec, l live, seed int64, dur time.Duration, tr *tracer) (win *window, heapMB float64, err error) {
	ops := make([]opFunc, w.clients)
	streams := make([]*blockStream, w.clients)
	for i := range ops {
		ops[i] = l.client(i)
		streams[i] = newBlockStream(w.classes, seed, i)
	}

	var emu sync.Mutex
	win = &window{}
	fail := func(err error) {
		emu.Lock()
		if len(win.errs) < 5 {
			win.errs = append(win.errs, err.Error())
		}
		emu.Unlock()
	}

	// drive runs every client until stop says its block was the last.
	drive := func(t0 time.Time, record bool, stop func(client, blocks int, now time.Duration) bool) [][]sample {
		out := make([][]sample, w.clients)
		var wg sync.WaitGroup
		for i := range ops {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				var mine []sample
				if record {
					mine = make([]sample, 0, 4096)
				}
				for blocks := 1; ; blocks++ {
					for _, class := range streams[i].next() {
						on := tr.enabled()
						var began int64
						if on {
							began = tr.now()
						}
						s := sample{class: uint8(class), start: int64(time.Since(t0))}
						sim, err := ops[i](class)
						s.end = int64(time.Since(t0))
						s.sim, s.ok = sim, err == nil
						if err != nil {
							fail(fmt.Errorf("%s client %d op %s: %w", w.name, i, w.classes[class].name, err))
						}
						switch {
						case on != tr.enabled():
							s.phase = 2
						case on:
							s.phase = 1
							tr.add(span{Name: "op", Sig: w.classes[class].name, Start: began, End: tr.now(), Parent: -1, Req: -1, Client: int8(i)})
						}
						if record {
							mine = append(mine, s)
						}
					}
					if stop(i, blocks, time.Since(t0)) {
						break
					}
				}
				out[i] = mine
			}(i)
		}
		wg.Wait()
		return out
	}

	drive(time.Now(), false, func(_, blocks int, _ time.Duration) bool { return blocks >= w.warmBlocks })
	if len(win.errs) > 0 {
		return nil, 0, fmt.Errorf("warm-up failed: %s", win.errs[0])
	}
	release, err := l.settle()
	if err != nil {
		return nil, 0, fmt.Errorf("%s settle: %w", w.name, err)
	}
	heapMB = heapLiveMB() // ends with a collection, so the window starts on a clean heap
	if err := release(); err != nil {
		return nil, 0, fmt.Errorf("%s settle: %w", w.name, err)
	}

	win.loadStart = loadAvg()
	win.statsBefore = l.stats()
	runtime.ReadMemStats(&win.before)
	t0 := time.Now()
	win.cpu = append(make([]cpuPoint, 0, int(dur/samplerTick)+64), cpuPoint{0, processCPU()})

	stopSampler := make(chan struct{})
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		tick := time.NewTicker(samplerTick)
		defer tick.Stop()
		var nextCal time.Duration
		for {
			select {
			case <-stopSampler:
				return
			case <-tick.C:
				now := time.Since(t0)
				win.cpu = append(win.cpu, cpuPoint{int64(now), processCPU()})
				if now >= nextCal {
					nextCal = now + calTick
					win.cal = append(win.cal, calPoint{int64(now), int64(calKernel())})
				}
				if tr != nil {
					tr.on.Store((now/tracePhase)%2 == 1)
				}
			}
		}
	}()
	per := drive(t0, true, func(_, _ int, now time.Duration) bool { return now >= dur })
	close(stopSampler)
	<-samplerDone
	if tr != nil {
		tr.on.Store(false)
	}
	win.wall = time.Since(t0)
	win.cpu = append(win.cpu, cpuPoint{int64(win.wall), processCPU()})
	runtime.ReadMemStats(&win.after)
	win.statsAfter = l.stats()
	win.loadEnd = loadAvg()

	for _, s := range per {
		win.samples = append(win.samples, s...)
	}
	sort.SliceStable(win.samples, func(a, b int) bool { return win.samples[a].end < win.samples[b].end })
	return win, heapMB, nil
}

// cpuAt reads the process CPU time at moment t off the sampler's points,
// interpolating between the two that bracket it.
func cpuAt(pts []cpuPoint, t int64) float64 {
	i := sort.Search(len(pts), func(i int) bool { return pts[i].t >= t })
	switch {
	case i == 0:
		return float64(pts[0].cpu)
	case i == len(pts):
		return float64(pts[len(pts)-1].cpu)
	}
	a, b := pts[i-1], pts[i]
	if b.t == a.t {
		return float64(b.cpu)
	}
	return float64(a.cpu) + float64(b.cpu-a.cpu)*float64(t-a.t)/float64(b.t-a.t)
}
