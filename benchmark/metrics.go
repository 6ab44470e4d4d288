package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
)

// metricDef describes one end-to-end metric: its name, unit, which way
// is better, and the relative worsening that counts as a regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// endToEndDefs is the order every table prints in.  BENCHMARK.json
// repeats it; TestBenchmarkJSONMatches keeps the two in step.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_s", "1/s", "higher", 0.25},
	{"lat_p50_ms", "ms", "lower", 0.25},
	{"lat_p90_ms", "ms", "lower", 0.25},
	{"cpu_ms_op", "ms", "lower", 0.25},
	{"allocs_op", "count", "lower", 0.02},
	{"sim_cycles_op", "cycles", "lower", 0.01},
	{"heap_live_mb", "MB", "lower", 0.10},
}

// sliceStats is what one slice of a window measured: the four time
// metrics as read off the clocks, and how many times slower than
// nominal the host ran meanwhile (see calib.go).
type sliceStats struct {
	Samples  int     `json:"samples"`
	OpsS     float64 `json:"ops_s"`
	P50      float64 `json:"lat_p50_ms"`
	P90      float64 `json:"lat_p90_ms"`
	CPU      float64 `json:"cpu_ms_op"`
	Slowdown float64 `json:"host_slowdown"`
}

// result is one workload's run: the eight end-to-end metrics plus what
// is needed to judge the run itself.
type result struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	WindowS  float64            `json:"window_s"`
	Ops      int                `json:"ops"`
	Failed   int                `json:"failed"`
	Errors   []string           `json:"errors,omitempty"`
	Metrics  map[string]float64 `json:"metrics"`
	// Raw holds the time metrics as the clocks read them, before the
	// host-speed normalization; Slowdown the window's median factor.
	Raw       map[string]float64 `json:"raw"`
	Slowdown  float64            `json:"host_slowdown"`
	Slices    []sliceStats       `json:"slices"`
	DriftPct  float64            `json:"drift_pct"`
	SetupReps []float64          `json:"setup_reps_s,omitempty"`
	LoadStart string             `json:"load1_start"`
	LoadEnd   string             `json:"load1_end"`
	// Layers holds the per-layer metrics of a traced run.
	Layers map[string]float64 `json:"layers,omitempty"`
}

func newResult(w *spec, seed int64) *result {
	return &result{Workload: w.name, Seed: seed, Metrics: map[string]float64{}, Raw: map[string]float64{}, Layers: map[string]float64{}}
}

const msPerNs = 1e-6

// latencies returns the ascending latencies (ms) of the ok samples.
func latencies(s []sample) []float64 {
	out := make([]float64, 0, len(s))
	for _, x := range s {
		if x.ok {
			out = append(out, float64(x.end-x.start)*msPerNs)
		}
	}
	sort.Float64s(out)
	return out
}

// atReferenceSpeed returns the slice's readings as they would have been
// on a host running at nominal speed.
func (s sliceStats) atReferenceSpeed() sliceStats {
	s.OpsS *= s.Slowdown
	s.P50 /= s.Slowdown
	s.P90 /= s.Slowdown
	s.CPU /= s.Slowdown
	return s
}

// sliceMedian is the median over slices of one of their readings.
func sliceMedian(slices []sliceStats, get func(sliceStats) float64) float64 {
	v := make([]float64, len(slices))
	for i, s := range slices {
		v[i] = get(s)
	}
	return median(v)
}

// measureSlices cuts the window's samples, in completion order, into
// slices of equal op count and measures each on its own.  A slice's
// wall time runs from the previous slice's last completion to its own.
func measureSlices(win *window) []sliceStats {
	n := len(win.samples)
	bounds := sliceBounds(n, sliceCount(n))
	out := make([]sliceStats, 0, len(bounds)-1)
	var from int64
	for i := 0; i+1 < len(bounds); i++ {
		part := win.samples[bounds[i]:bounds[i+1]]
		if len(part) == 0 {
			out = append(out, sliceStats{})
			continue
		}
		to := part[len(part)-1].end
		lat := latencies(part)
		var kernel []float64
		for _, c := range win.cal {
			if c.t > from && c.t <= to {
				kernel = append(kernel, float64(c.ns))
			}
		}
		out = append(out, sliceStats{
			Samples:  len(lat),
			OpsS:     float64(len(lat)) / (float64(to-from) * 1e-9),
			P50:      percentile(lat, 0.50),
			P90:      percentile(lat, 0.90),
			CPU:      (cpuAt(win.cpu, to) - cpuAt(win.cpu, from)) * msPerNs / float64(len(part)),
			Slowdown: slowdown(kernel, calNominalLoaded),
		})
		from = to
	}
	return out
}

// summarize turns a window into the result's sliced metrics.  Each is
// the median of its slice values, so a burst of neighbour load that
// lands in a minority of slices does not move it; and each slice value
// is taken at reference host speed, so a spell of neighbour load that
// outlasts the whole window moves it far less.
func summarize(res *result, win *window) {
	res.Ops = len(win.samples)
	res.Errors = win.errs
	res.LoadStart, res.LoadEnd = win.loadStart, win.loadEnd
	var simSum, simN uint64
	for _, s := range win.samples {
		if !s.ok {
			res.Failed++
		}
		if s.sim > 0 {
			simSum += s.sim
			simN++
		}
	}
	res.Slices = measureSlices(win)
	atRef := make([]sliceStats, len(res.Slices))
	for i, s := range res.Slices {
		atRef[i] = s.atReferenceSpeed()
	}
	m := res.Metrics
	for _, tm := range []struct {
		name string
		get  func(sliceStats) float64
	}{
		{"ops_s", func(s sliceStats) float64 { return s.OpsS }},
		{"lat_p50_ms", func(s sliceStats) float64 { return s.P50 }},
		{"lat_p90_ms", func(s sliceStats) float64 { return s.P90 }},
		{"cpu_ms_op", func(s sliceStats) float64 { return s.CPU }},
	} {
		res.Raw[tm.name] = sliceMedian(res.Slices, tm.get)
		m[tm.name] = sliceMedian(atRef, tm.get)
	}
	res.Slowdown = sliceMedian(res.Slices, func(s sliceStats) float64 { return s.Slowdown })
	m["allocs_op"] = float64(win.after.Mallocs-win.before.Mallocs) / float64(res.Ops)
	if simN > 0 {
		m["sim_cycles_op"] = float64(simSum) / float64(simN)
	}
	first, last := atRef[0].P50, atRef[len(atRef)-1].P50
	res.DriftPct = 100 * (last - first) / first
}

// heapLiveMB is the live heap after collection: the least of three
// samples, each taken after two full collections (the second sweeps
// what the first one's finalizers released).
func heapLiveMB() float64 {
	least := math.Inf(1)
	var ms runtime.MemStats
	for i := 0; i < 3; i++ {
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		least = math.Min(least, float64(ms.HeapAlloc)/(1<<20))
	}
	return least
}

// verdict reports why a run must be rejected, or nil: an op failed, or
// a slice is too thin for its 90th percentile to mean anything.  Drift
// is printed but never fatal, because a neighbour's burst in the last
// slice is the host's fault, not the run's.
func (res *result) verdict() error {
	if res.Failed > 0 {
		first := ""
		if len(res.Errors) > 0 {
			first = ": " + res.Errors[0]
		}
		return fmt.Errorf("%s: %d of %d ops failed%s", res.Workload, res.Failed, res.Ops, first)
	}
	for i, s := range res.Slices {
		if s.Samples < minSliceSamples {
			return fmt.Errorf("%s: slice %d of %d holds %d samples, fewer than %d; lengthen the window",
				res.Workload, i+1, len(res.Slices), s.Samples, minSliceSamples)
		}
	}
	return nil
}
