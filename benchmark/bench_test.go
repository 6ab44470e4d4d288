package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"omos"
	"omos/internal/daemon"
	"omos/internal/ipc"
	"omos/internal/workload"
)

// The tracing decorator must answer every optional interface the
// daemon's backend does, or the transport would silently serve fewer
// operations in a traced run.
var (
	_ ipc.Backend        = (*tracedBackend)(nil)
	_ ipc.HealthBackend  = (*tracedBackend)(nil)
	_ ipc.GraphBackend   = (*tracedBackend)(nil)
	_ ipc.BatchBackend   = (*tracedBackend)(nil)
	_ ipc.ExplainBackend = (*tracedBackend)(nil)
	_ ipc.RebindBackend  = (*tracedBackend)(nil)
	_ ipc.UpgradeBackend = (*tracedBackend)(nil)
	_ ipc.MeshBackend    = (*tracedBackend)(nil)
)

func TestPercentile(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{0.5, 5}, {0.9, 9}, {0.91, 10}, {1, 10}, {0.01, 1}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(1..10, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 0.9); got != 7 {
		t.Errorf("percentile of one sample = %g", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of nothing should be NaN")
	}
}

func TestMedianAndQuartiles(t *testing.T) {
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("odd median = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g", got)
	}
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4})
	if q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles(1,2,4) = %g %g %g, want 1 2 4", q1, q2, q3)
	}
	if got := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); got != 1 {
		t.Errorf("spread(1..10) = %g, want 1", got)
	}
}

func TestSliceMedianIgnoresABurst(t *testing.T) {
	w := &spec{name: "w"}
	// 500 ops, 10 ms each; the fourth fifth of them runs three times
	// slower.  The sliced median must not notice.
	win := &window{cpu: []cpuPoint{{0, 0}, {int64(10 * time.Second), int64(5 * time.Second)}}}
	var now int64
	for i := 0; i < 500; i++ {
		d := int64(10 * time.Millisecond)
		if i >= 300 && i < 400 {
			d *= 3
		}
		win.samples = append(win.samples, sample{start: now, end: now + d, ok: true, sim: 100})
		now += d
	}
	res := newResult(w, 1)
	summarize(res, win)
	if len(res.Slices) != 5 {
		t.Fatalf("%d slices, want 5", len(res.Slices))
	}
	for i, s := range res.Slices {
		if s.Samples != 100 {
			t.Errorf("slice %d holds %d samples", i, s.Samples)
		}
	}
	if got := res.Metrics["lat_p50_ms"]; got != 10 {
		t.Errorf("lat_p50_ms = %g, want 10", got)
	}
	if got := res.Metrics["ops_s"]; math.Abs(got-100) > 1e-9 {
		t.Errorf("ops_s = %g, want 100", got)
	}
	if got := res.Slices[3].P50; got != 30 {
		t.Errorf("burst slice p50 = %g, want 30", got)
	}
	if got := res.Metrics["sim_cycles_op"]; got != 100 {
		t.Errorf("sim_cycles_op = %g", got)
	}
	if res.verdict() != nil {
		t.Errorf("verdict: %v", res.verdict())
	}
	// Fewer than 500 ops fall back to three slices; fewer than 300 fail.
	win.samples = win.samples[:320]
	res = newResult(w, 1)
	summarize(res, win)
	if len(res.Slices) != 3 || res.verdict() != nil {
		t.Errorf("320 ops: %d slices, verdict %v", len(res.Slices), res.verdict())
	}
	win.samples = win.samples[:290]
	res = newResult(w, 1)
	summarize(res, win)
	if res.verdict() == nil {
		t.Error("a slice of 96 samples passed the guard")
	}
}

func TestBlockStream(t *testing.T) {
	for _, w := range suite {
		take := func(seed int64) [][]int {
			s := newBlockStream(w.classes, seed, 0)
			var blocks [][]int
			for i := 0; i < 4; i++ {
				blocks = append(blocks, append([]int(nil), s.next()...))
			}
			return blocks
		}
		a, b, c := take(1), take(1), take(2)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave two op streams", w.name)
		}
		if len(w.classes) > 1 && reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 1 and 2 gave the same op stream", w.name)
		}
		for i, blk := range append(a, c...) {
			got := make([]int, len(w.classes))
			for _, class := range blk {
				got[class]++
			}
			for ci, cl := range w.classes {
				if got[ci] != cl.perBlock {
					t.Errorf("%s block %d: class %s occurs %d times, want %d", w.name, i, cl.name, got[ci], cl.perBlock)
				}
			}
		}
	}
}

// Every generated program must print what the generator computed, and a
// shape must cost the same simulated cycles whatever the seed.
func TestGeneratedPrograms(t *testing.T) {
	sys, err := omos.NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	if err := daemon.InstallWorkloads(sys, workload.DefaultCodegen()); err != nil {
		t.Fatal(err)
	}
	cycles := func(seed int64, n int) uint64 {
		g := genProgram(seed, n)
		if err := sys.Define(g.path, g.blueprint); err != nil {
			t.Fatalf("define %s: %v", g.path, err)
		}
		res, err := sys.Run(g.path, nil)
		if err != nil {
			t.Fatalf("run %s: %v", g.path, err)
		}
		if res.Output != g.wantOut || res.ExitCode != g.wantExit {
			t.Errorf("seed %d program %d: got %q exit %d, generator computed %q exit %d",
				seed, n, res.Output, res.ExitCode, g.wantOut, g.wantExit)
		}
		sys.Srv.Evict(g.path)
		sys.Srv.Remove(g.path)
		return res.Clock.Elapsed()
	}
	cycles(1, genShapes) // builds libc, so the runs below all see it warm
	for shape := 0; shape < genShapes; shape++ {
		a, b, c := cycles(1, shape), cycles(2, shape), cycles(1, shape+3*genShapes)
		if a != b || a != c {
			t.Errorf("shape %d: %d, %d, %d simulated cycles for three programs of one shape", shape, a, b, c)
		}
	}
	if genProgram(1, 5).source == genProgram(2, 5).source {
		t.Error("seeds 1 and 2 generated the same program")
	}
}

// sim_cycles_op is a count over whole blocks, so a short window and a
// longer one must agree to the last digit; and the traced Run must
// answer exactly as the daemon's own.
func TestExecWarmSimCyclesAndTracedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("boots daemons and runs two short windows")
	}
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	w := findWorkload("exec-warm")
	sim := func(dur time.Duration, tr *tracer) (float64, int, time.Duration) {
		t.Helper()
		l, err := w.setUp(&env{ref: ref, seed: 1, tr: tr}, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer l.close()
		win, _, err := runWindow(w, l, 1, dur, tr)
		if err != nil {
			t.Fatal(err)
		}
		res := newResult(w, 1)
		summarize(res, win)
		if res.Failed > 0 {
			t.Fatalf("%d ops failed: %v", res.Failed, res.Errors)
		}
		if tr != nil {
			spans := tr.take()
			layers := map[string]float64{}
			analyseTrace(w, win, spans, layers)
			if c := layers["trace.cover_pct"]; c < 90 || c > 100 {
				t.Errorf("spans cover %.1f%% of the traced ops, want 90..100", c)
			}
			// Only a request in flight while tracing was switched may
			// lack its partner: a handful, not a share.
			runs, unpaired := 0, 0
			for _, s := range spans {
				if s.Name == "daemon.run" {
					runs++
					if s.Parent < 0 {
						unpaired++
					}
				}
			}
			if runs == 0 || unpaired*10 > runs {
				t.Errorf("%d of %d daemon.run spans were not paired with an ipc.call", unpaired, runs)
			}
		}
		return res.Metrics["sim_cycles_op"], res.Ops, win.wall
	}
	short, n1, took := sim(0, nil)  // one block per client
	long, n2, _ := sim(2*took, nil) // at least two more (a block's time varies with the race detector on)
	traced, _, _ := sim(took, newTracer())
	if n1 != 2*blockLen(w.classes) || n2 <= n1 {
		t.Fatalf("windows held %d and %d ops", n1, n2)
	}
	if short != long || short != traced {
		t.Errorf("sim_cycles_op = %v over %d ops, %v over %d ops, %v traced", short, n1, long, n2, traced)
	}
}

func TestLinkSpansAndSelfTimes(t *testing.T) {
	sp := func(name, sig string, start, end int64, client int8) span {
		return span{Name: name, Sig: sig, Start: start, End: end, Parent: -1, Req: -1, Client: client}
	}
	// Two clients issue the same request at once; client 0's arrives
	// later although it was sent first.  A third server span has no
	// recorded call (tracing came on while it was in flight).
	spans := []span{
		sp("ipc.call", "ls", 0, 100, 0),
		sp("ipc.call", "ls", 10, 50, 1),
		sp("loader.exec", "", 20, 30, -1),
		sp("osim.run", "", 30, 40, -1),
		sp("daemon.run", "ls", 20, 41, -1),
		sp("daemon.run", "ls", 60, 90, -1),
		sp("daemon.run", "ls", 200, 210, -1),
		sp("op", "ls", -5, 105, 0),
	}
	spans[2].Parent, spans[3].Parent = 4, 4
	linkSpans(spans)
	nestUnderOps(spans)
	if spans[4].Parent != 1 || spans[5].Parent != 0 || spans[6].Parent != -1 {
		t.Errorf("daemon spans paired with calls %d, %d, %d; want 1, 0, none", spans[4].Parent, spans[5].Parent, spans[6].Parent)
	}
	if spans[2].Req != 1 || spans[5].Req != 0 {
		t.Errorf("request ids %d and %d, want 1 and 0", spans[2].Req, spans[5].Req)
	}
	if spans[0].Parent != 7 || spans[1].Parent != -1 {
		t.Errorf("calls nested under ops %d and %d, want 7 and none", spans[0].Parent, spans[1].Parent)
	}
	self := selfTimes(spans)
	want := []int64{70, 19, 10, 10, 1, 30, 10, 10}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
}

func TestCompareVerdict(t *testing.T) {
	lower := metricDef{Name: "lat", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops", Better: "higher", Bound: 0.10}
	tight := []float64{100, 101, 102, 100, 101}
	cases := []struct {
		d    metricDef
		a, b []float64
		want string
	}{
		{lower, tight, []float64{104, 105, 103, 104, 105}, "ok"},
		{lower, tight, []float64{120, 121, 122, 120, 121}, "worse"},
		{higher, tight, []float64{80, 81, 82, 80, 81}, "worse"},
		{higher, tight, []float64{120, 121, 122, 120, 121}, "ok"},
		{lower, []float64{80, 100, 120, 90, 110}, []float64{85, 105, 125, 95, 115}, "unresolved"},
		{lower, []float64{80, 100, 120, 90, 110}, []float64{40, 50, 60, 45, 55}, "ok"},
	}
	for i, c := range cases {
		if _, got := compareVerdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("case %d: %s, want %s", i, got, c.want)
		}
	}
}

// BENCHMARK.json is what the acceptance driver reads; it must name the
// workloads and metrics this program prints, with the same units,
// directions and bounds.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef                           `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(suite) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the suite", len(bj.Workloads), len(suite))
	}
	for i, w := range suite {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the suite %q (%q)", i, bj.Workloads[i].Name, bj.Workloads[i].Why, w.name, w.why)
		}
	}
	if !reflect.DeepEqual(bj.EndToEnd, endToEndDefs) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", bj.EndToEnd, endToEndDefs)
	}
	inJSON := map[string]bool{}
	for _, d := range bj.PerLayer {
		inJSON[d.Name+" "+d.Unit+" "+d.Better] = true
	}
	for _, d := range perLayerDefs {
		k := d.Name + " " + d.Unit + " " + d.Better
		if !inJSON[k] {
			t.Errorf("per_layer: %q is printed but BENCHMARK.json does not list it", k)
		}
		delete(inJSON, k)
	}
	for k := range inJSON {
		t.Errorf("per_layer: BENCHMARK.json lists %q, which is not printed", k)
	}
}
