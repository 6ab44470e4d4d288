package main

import (
	"fmt"
	"net"
	"os"
	"runtime"
	"sort"
	"time"
	"unsafe"

	"omos/internal/ipc"
)

// nestUnderOps makes every client-side span a child of the "op" span of
// the same client that contains it.  A client is serial, so its ops do
// not overlap and the containing op is unique.
func nestUnderOps(spans []span) {
	ops := map[int8][]int32{}
	for i := range spans {
		if spans[i].Name == "op" {
			ops[spans[i].Client] = append(ops[spans[i].Client], int32(i))
		}
	}
	for _, ids := range ops {
		sort.Slice(ids, func(a, b int) bool { return spans[ids[a]].Start < spans[ids[b]].Start })
	}
	for i := range spans {
		s := &spans[i]
		if s.Client < 0 || s.Name == "op" || s.Parent >= 0 {
			continue
		}
		ids := ops[s.Client]
		k := sort.Search(len(ids), func(k int) bool { return spans[ids[k]].Start > s.Start }) - 1
		if k >= 0 && spans[ids[k]].End >= s.End {
			s.Parent = ids[k]
		}
	}
}

// spanRow summarizes every span of one name.
type spanRow struct {
	Name         string  `json:"name"`
	Count        int     `json:"count"`
	MeanUs       float64 `json:"mean_us"`
	MeanSelfUs   float64 `json:"mean_self_us"`
	MedianSelfUs float64 `json:"median_self_us"`
}

func summarizeSpans(spans []span, self []int64) []spanRow {
	byName := map[string][]int{}
	for i := range spans {
		byName[spans[i].Name] = append(byName[spans[i].Name], i)
	}
	rows := make([]spanRow, 0, len(byName))
	for name, ids := range byName {
		var dur, selfSum float64
		selfs := make([]float64, len(ids))
		for k, i := range ids {
			dur += float64(spans[i].End - spans[i].Start)
			selfSum += float64(self[i])
			selfs[k] = float64(self[i]) / 1e3
		}
		n := float64(len(ids))
		rows = append(rows, spanRow{name, len(ids), dur / n / 1e3, selfSum / n / 1e3, median(selfs)})
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a].Name < rows[b].Name })
	return rows
}

// traceReport is what a traced window adds to a result.
type traceReport struct {
	Workload string    `json:"workload"`
	Rows     []spanRow `json:"span_summary"`
	Spans    []span    `json:"spans"` // the first maxFileSpans, ids intact
	Dropped  int       `json:"spans_not_written"`
}

// maxFileSpans bounds what one workload writes to the trace file; a
// wire-ctl window records hundreds of thousands of spans.
const maxFileSpans = 20000

func newTraceReport(name string, spans []span, self []int64) *traceReport {
	rep := &traceReport{Workload: name, Rows: summarizeSpans(spans, self), Spans: spans}
	if len(spans) > maxFileSpans {
		rep.Spans, rep.Dropped = spans[:maxFileSpans], len(spans)-maxFileSpans
	}
	return rep
}

// analyseTrace reads a traced window.  trace.overhead_pct compares the
// window's traced ops with its untraced ones class by class (medians,
// weighted by the block mix): both kinds ran interleaved through the
// same seconds, so host noise cancels.  trace.cover_pct is the share of
// the traced ops' latency that lies inside some recorded span; the
// remainder is work the benchmark does itself between calls.
func analyseTrace(w *spec, win *window, spans []span, layers map[string]float64) *traceReport {
	linkSpans(spans)
	nestUnderOps(spans)
	self := selfTimes(spans)

	byPhase := make([][2][]float64, len(w.classes))
	for _, s := range win.samples {
		if s.ok && s.phase < 2 {
			byPhase[s.class][s.phase] = append(byPhase[s.class][s.phase], float64(s.end-s.start))
		}
	}
	var on, off float64
	for ci, c := range w.classes {
		if len(byPhase[ci][0]) == 0 || len(byPhase[ci][1]) == 0 {
			continue
		}
		off += float64(c.perBlock) * median(byPhase[ci][0])
		on += float64(c.perBlock) * median(byPhase[ci][1])
	}
	if off > 0 {
		layers["trace.overhead_pct"] = 100 * (on/off - 1)
	}
	var opDur, opSelf float64
	for i := range spans {
		if spans[i].Name == "op" {
			opDur += float64(spans[i].End - spans[i].Start)
			opSelf += float64(self[i])
		}
	}
	if opDur > 0 {
		layers["trace.cover_pct"] = 100 * (1 - opSelf/opDur)
	}

	return newTraceReport(w.name, spans, self)
}

// windowLayers fills the per-window counters: what the server counted
// and what the Go runtime spent, per op.
func windowLayers(layers map[string]float64, win *window) {
	ops := float64(len(win.samples))
	before, after := win.statsBefore, win.statsAfter
	d := func(a, b uint64) float64 { return float64(b-a) / ops }
	hits, misses := float64(after.CacheHits-before.CacheHits), float64(after.CacheMisses-before.CacheMisses)
	layers["server.cache_hits"] = hits / ops
	layers["server.cache_misses"] = misses / ops
	if hits+misses > 0 {
		layers["server.hit_ratio"] = hits / (hits + misses)
	}
	layers["server.images_built"] = d(before.ImagesBuilt, after.ImagesBuilt)
	layers["server.rebases"] = d(before.Rebases, after.Rebases)
	layers["server.symbol_searches"] = d(before.SymbolSearches, after.SymbolSearches)
	layers["server.binding_hits"] = d(before.BindingHits, after.BindingHits)
	layers["server.store_stores"] = d(before.StoreStores, after.StoreStores)
	layers["server.store_loads"] = d(before.StoreLoads, after.StoreLoads)
	layers["server.checkpoint_bytes"] = d(before.CheckpointBytes, after.CheckpointBytes)
	layers["go.alloc_mb_op"] = float64(win.after.TotalAlloc-win.before.TotalAlloc) / (1 << 20) / ops
	layers["go.gc_cycles_op"] = float64(win.after.NumGC-win.before.NumGC) / ops
	layers["go.gc_pause_ms"] = float64(win.after.PauseTotalNs-win.before.PauseTotalNs) / 1e6
}

// stackProbes drives one serial client through the whole stack on a
// daemon of its own with tracing on, and reads each layer's share off
// the spans: single-threaded numbers that sit beside the direct server
// probes.  It then measures the transport alone on a counted connection.
func stackProbes(ref *reference, seed int64, p *prober) (*traceReport, error) {
	dir, err := os.MkdirTemp("", "omos-bench-stack-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	tr := newTracer()
	e := &env{ref: ref, seed: seed, tr: tr}
	d, err := setUpDaemon(e, dir, 1, false, func(d *daemonLive) error {
		err := execWarmFirstRuns(d)
		d.images = d.r.sys.Srv.Stats().ImagesBuilt
		return err
	}, nil)
	if err != nil {
		return nil, fmt.Errorf("stack probe daemon: %w", err)
	}
	defer d.close()
	c := d.conns[0]
	// codegen's user cycles are the same on every run; one reply gives
	// the numerator of vm.sim_mcycles_s.
	cgReq, cgSig := runReq("/bin/codegen", false)
	cgResp, err := c.call(cgReq, cgSig)
	if err != nil {
		return nil, err
	}

	tr.on.Store(true)
	for class := execLs; class <= execCodegen; class++ {
		class := class
		p.repeat("stack exec", nil, func() error { _, err := d.execOp(c, class); return err })
	}
	for i := 0; i < 100 && p.err == nil; i++ {
		for class := ctlList; class <= ctlHealth; class++ {
			if err := d.ctlCheck(c, class); err != nil {
				return nil, err
			}
		}
	}
	tr.on.Store(false)
	if p.err != nil {
		return nil, p.err
	}
	spans := tr.take()
	linkSpans(spans)
	self := selfTimes(spans)

	// Group by the request's signature, found on the daemon span.
	type key struct{ name, sig string }
	durs, selfs := map[key][]float64{}, map[key][]float64{}
	for i := range spans {
		s := &spans[i]
		sig := s.Sig
		if s.Parent >= 0 && sig == "" {
			sig = spans[s.Parent].Sig
		}
		k := key{s.Name, sig}
		durs[k] = append(durs[k], float64(s.End-s.Start))
		selfs[k] = append(selfs[k], float64(self[i]))
	}
	ls, _ := runReq("/bin/ls", false, "/data/one")
	lsSig := runSig(ls.Path, ls.Args, false)
	lsBootSig := runSig(ls.Path, ls.Args, true)
	laFSig := runSig("/bin/ls", []string{"-laF", "/data/many"}, false)
	med := func(m map[key][]float64, name, sig string) float64 { return median(m[key{name, sig}]) }
	out := p.out
	var ctlSelf []float64
	for _, sig := range []string{"list /lib", "stats", "health"} {
		ctlSelf = append(ctlSelf, selfs[key{"ipc.call", sig}]...)
	}
	out["ipc.call_self_us"] = median(ctlSelf) / 1e3
	out["daemon.run_self_us"] = med(selfs, "daemon.run", lsSig) / 1e3
	out["daemon.stats_us"] = med(durs, "daemon.stats", "stats") / 1e3
	out["daemon.health_us"] = med(durs, "daemon.health", "health") / 1e3
	out["daemon.list_us"] = med(durs, "daemon.list", "list /lib") / 1e3
	out["loader.exec_us.ls"] = med(durs, "loader.exec", lsSig) / 1e3
	out["loader.exec_ms.codegen"] = med(durs, "loader.exec", cgSig) / 1e6
	out["loader.bootstrap_extra_us"] = (med(durs, "daemon.run", lsBootSig) - med(durs, "daemon.run", lsSig)) / 1e3
	out["osim.run_us.ls"] = med(durs, "osim.run", lsSig) / 1e3
	out["osim.run_us.ls-laF"] = med(durs, "osim.run", laFSig) / 1e3
	out["osim.run_ms.codegen"] = med(durs, "osim.run", cgSig) / 1e6
	out["vm.sim_mcycles_s"] = float64(cgResp.User) / 1e6 / (med(durs, "osim.run", cgSig) / 1e9)

	// The transport alone, untraced, on a connection that counts bytes.
	p.time("ipc.dial_hello_us", nil, func() error {
		cl, err := ipc.Dial(d.r.addr)
		if err != nil {
			return err
		}
		defer cl.Close()
		_, err = cl.Call(&ipc.Request{Op: ipc.OpPing})
		return err
	})
	raw, err := net.Dial("tcp", d.r.addr)
	if err != nil {
		return nil, err
	}
	counted := &countingConn{Conn: raw}
	cl := ipc.NewClient(counted)
	defer cl.Close()
	list := func() error { _, err := cl.Call(&ipc.Request{Op: ipc.OpList, Path: "/lib"}); return err }
	if err := list(); err != nil { // the handshake and gob's type descriptors cross once
		return nil, err
	}
	const calls = 200
	wire := counted.rx.Load() + counted.tx.Load()
	runtime.GC()
	p.allocs("ipc.allocs_call", calls, list)
	out["ipc.wire_bytes_call"] = float64(counted.rx.Load()+counted.tx.Load()-wire) / calls
	out["dynlink.sim_cycles.ls"] = float64(ref.dynLsCycles)
	out["dynlink.sim_cycles.codegen"] = float64(ref.dynCgCycles)

	return newTraceReport("stack-probe", spans, self), p.err
}

// traceWorkload is one traced run of a workload: set-up once, a window
// in which tracing alternates on and off, and the per-window counters.
// It returns the live workload's store directory still on disk when the
// caller asks for it (restart-warm's filled store feeds the probes).
func traceWorkload(w *spec, cfg config, keepDir bool) (*result, *traceReport, string, error) {
	res := newResult(w, cfg.seed)
	tr := newTracer()
	e := &env{ref: cfg.ref, seed: cfg.seed, tr: tr}
	l, dir, _, _, err := setUpTimed(w, e, 1)
	if err != nil {
		return nil, nil, "", err
	}
	if !keepDir {
		defer os.RemoveAll(dir)
	}
	win, heap, err := runWindow(w, l, cfg.seed, cfg.window, tr)
	if err != nil {
		l.close()
		return nil, nil, "", err
	}
	spans := tr.take()
	release, err := l.settle()
	if err != nil {
		l.close()
		return nil, nil, "", err
	}
	// The run's own records are live too; take their arrays back out.
	held := float64(cap(win.samples))*float64(unsafe.Sizeof(sample{})) + float64(cap(spans))*float64(unsafe.Sizeof(span{}))
	res.Layers["go.heap_growth_kb_op"] = ((heapLiveMB()-heap)*(1<<20) - held) / 1024 / float64(len(win.samples))
	if err := release(); err != nil {
		l.close()
		return nil, nil, "", err
	}
	if err := l.close(); err != nil {
		return nil, nil, "", fmt.Errorf("%s teardown: %w", w.name, err)
	}
	res.WindowS = win.wall.Seconds()
	summarize(res, win)
	windowLayers(res.Layers, win)
	rep := analyseTrace(w, win, spans, res.Layers)
	return res, rep, dir, nil
}

// traceWindowShare is how much of the untraced window a traced window
// lasts: a traced run spends the rest of its time in the probes.
const traceWindowShare = 0.4

func traceWindowOf(window time.Duration) time.Duration {
	return time.Duration(float64(window) * traceWindowShare)
}
