package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// header stamps every output, so a noisy or mismatched run can be
// recognized after the fact.
type header struct {
	GitSHA     string  `json:"git_sha"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPU        string  `json:"cpu"`
	Seed       int64   `json:"seed"`
	WindowS    float64 `json:"window_s"`
	Started    string  `json:"started"`
}

func newHeader(seed int64, window time.Duration) header {
	h := header{GitSHA: "unknown", GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU: "unknown", Seed: seed, WindowS: window.Seconds(), Started: time.Now().UTC().Format(time.RFC3339)}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.GitSHA = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					h.GitSHA += "+dirty"
				}
			}
		}
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

func (h header) print(w io.Writer) {
	fmt.Fprintf(w, "# omos benchmark  git=%s  %s  GOMAXPROCS=%d  cpu=%q  seed=%d  window=%gs  %s\n",
		h.GitSHA, h.GoVersion, h.GOMAXPROCS, h.CPU, h.Seed, h.WindowS, h.Started)
}

// report is the file -json writes and -compare reads.
type report struct {
	Header header         `json:"header"`
	Runs   []*result      `json:"runs"`
	Layers []*result      `json:"traced_runs,omitempty"`
	Reps   map[string]int `json:"probe_reps,omitempty"`
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printResult prints one workload run: the eight metrics by name and
// unit, then what is needed to judge the run.
func printResult(w io.Writer, r *result) {
	fmt.Fprintf(w, "%s  seed=%d  window=%.1fs  ops=%d  failed=%d  host_slowdown=%.2f  load1=%s->%s\n",
		r.Workload, r.Seed, r.WindowS, r.Ops, r.Failed, r.Slowdown, r.LoadStart, r.LoadEnd)
	for _, d := range endToEndDefs {
		v, ok := r.Metrics[d.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  %-14s %14.6g %-6s (%s is better, bound %g)", d.Name, v, d.Unit, d.Better, d.Bound)
		if raw, ok := r.Raw[d.Name]; ok {
			fmt.Fprintf(w, "  clock read %.6g", raw)
		}
		fmt.Fprintln(w)
	}
	counts := make([]string, len(r.Slices))
	for i, s := range r.Slices {
		counts[i] = fmt.Sprint(s.Samples)
	}
	fmt.Fprintf(w, "  slices=%d  samples/slice=%s  drift_pct=%+.1f\n", len(r.Slices), strings.Join(counts, ","), r.DriftPct)
	for _, e := range r.Errors {
		fmt.Fprintf(w, "  error: %s\n", e)
	}
}

// printLayers prints a traced run's per-layer table.
func printLayers(w io.Writer, r *result) {
	fmt.Fprintf(w, "%s  per-layer (traced window %.1fs, ops=%d, failed=%d)\n", r.Workload, r.WindowS, r.Ops, r.Failed)
	for _, d := range perLayerDefs {
		if v, ok := r.Layers[d.Name]; ok {
			fmt.Fprintf(w, "  %-36s %14.6g %s\n", d.Name, v, d.Unit)
		}
	}
}

// contractLine is the single JSON object the acceptance driver reads
// from the last line of standard output.
func contractLine(r *result, defs []metricDef, values map[string]float64) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Failed == 0, r.Ops, r.Failed, map[string]mv{}}
	for _, d := range defs {
		out.Metrics[d.Name] = mv{values[d.Name], d.Unit} // a metric a run did not take reads 0
	}
	b, _ := json.Marshal(out)
	return string(b)
}

// series gathers, per workload and metric, the values of every run.
func series(runs []*result) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range runs {
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for k, v := range r.Metrics {
			out[r.Workload][k] = append(out[r.Workload][k], v)
		}
		out[r.Workload]["drift_pct"] = append(out[r.Workload]["drift_pct"], r.DriftPct)
	}
	return out
}

func workloadOrder(s map[string]map[string][]float64) []string {
	var names []string
	for _, w := range suite {
		if _, ok := s[w.name]; ok {
			names = append(names, w.name)
		}
	}
	return names
}

// printRepeat is the -repeat summary: per workload and metric the
// median, the quartiles, the spread the driver computes
// ((q3-q1)/median) and the full range over the runs.
func printRepeat(w io.Writer, runs []*result) {
	s := series(runs)
	fmt.Fprintf(w, "%-13s %-14s %4s %14s %14s %14s %9s %9s\n", "workload", "metric", "runs", "median", "q1", "q3", "iqr/med", "range/med")
	for _, name := range workloadOrder(s) {
		for _, d := range append(endToEndDefs, metricDef{Name: "drift_pct"}) {
			v := s[name][d.Name]
			if len(v) == 0 {
				continue
			}
			q1, q2, q3 := quartiles(v)
			fmt.Fprintf(w, "%-13s %-14s %4d %14.6g %14.6g %14.6g", name, d.Name, len(v), q2, q1, q3)
			if d.Name != "drift_pct" { // a percentage around zero has no relative spread
				sorted := sortedCopy(v)
				fmt.Fprintf(w, " %9.4f %9.4f", (q3-q1)/math.Abs(q2), (sorted[len(sorted)-1]-sorted[0])/math.Abs(q2))
			}
			fmt.Fprintln(w)
		}
	}
}

// compareVerdict judges one metric of two sets of runs of one workload:
// "worse" when the second median is worse than the first by more than
// the bound, "unresolved" when either set's own spread is wider than the
// bound and the sets overlap (a difference of that size could not have
// been seen), "ok" otherwise.
func compareVerdict(d metricDef, a, b []float64) (ratio float64, verdict string) {
	ratio = median(b) / median(a)
	worse := ratio - 1
	if d.Better == "higher" {
		worse = 1 - ratio
	}
	sa, sb := sortedCopy(a), sortedCopy(b)
	overlap := sa[len(sa)-1] >= sb[0] && sb[len(sb)-1] >= sa[0]
	switch {
	case overlap && math.Max(spread(a), spread(b)) > d.Bound:
		return ratio, "unresolved"
	case worse > d.Bound:
		return ratio, "worse"
	}
	return ratio, "ok"
}

// printCompare is -compare: two report files, per workload and metric
// both medians, their ratio, the bound and the verdict.  It returns how
// many metrics were judged worse.
func printCompare(w io.Writer, pathA, pathB string) (int, error) {
	var a, b report
	for _, f := range []struct {
		path string
		into *report
	}{{pathA, &a}, {pathB, &b}} {
		raw, err := os.ReadFile(f.path)
		if err != nil {
			return 0, err
		}
		if err := json.Unmarshal(raw, f.into); err != nil {
			return 0, fmt.Errorf("%s: %w", f.path, err)
		}
	}
	fmt.Fprintf(w, "a: %s  git=%s seed=%d window=%gs runs=%d\n", pathA, a.Header.GitSHA, a.Header.Seed, a.Header.WindowS, len(a.Runs))
	fmt.Fprintf(w, "b: %s  git=%s seed=%d window=%gs runs=%d\n", pathB, b.Header.GitSHA, b.Header.Seed, b.Header.WindowS, len(b.Runs))
	fmt.Fprintf(w, "%-13s %-14s %14s %14s %8s %6s  %s\n", "workload", "metric", "median a", "median b", "b/a", "bound", "verdict")
	sa, sb := series(a.Runs), series(b.Runs)
	worse := 0
	for _, name := range workloadOrder(sa) {
		for _, d := range endToEndDefs {
			va, vb := sa[name][d.Name], sb[name][d.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ratio, verdict := compareVerdict(d, va, vb)
			if verdict == "worse" {
				worse++
			}
			fmt.Fprintf(w, "%-13s %-14s %14.6g %14.6g %8.4f %6g  %s\n", name, d.Name, median(va), median(vb), ratio, d.Bound, verdict)
		}
	}
	return worse, nil
}
