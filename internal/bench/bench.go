// Package bench reproduces the paper's evaluation: every sub-table of
// Table 1, the §4.1 reordering and memory results, the §2.1 link-time
// claim, and the §3.5 constraint-resolution behaviour.
//
// All numbers are simulated cycles from the osim cost model, not
// seconds; the experiment compares *shapes* (who wins, by what factor,
// where the crossovers are) against the paper's, as recorded in
// EXPERIMENTS.md.
package bench

import (
	"fmt"
	"sort"
	"strings"

	"omos/internal/osim"
)

// Row is one measured configuration.
type Row struct {
	Label string
	Clock osim.Clock
	// Extra carries per-experiment metrics (faults, pages, bytes...).
	Extra map[string]float64
}

// Table is a rendered experiment.
type Table struct {
	ID    string // e.g. "1a"
	Title string
	Iters int
	Rows  []Row
	// PaperRatios maps row label -> the ratio the paper reports
	// (elapsed relative to the first row), for side-by-side output.
	PaperRatios map[string]float64
	// Notes explains substitutions or caveats.
	Notes []string
}

// Ratio returns row i's elapsed time relative to row 0.
func (t *Table) Ratio(i int) float64 {
	base := float64(t.Rows[0].Clock.Elapsed())
	if base == 0 {
		return 0
	}
	return float64(t.Rows[i].Clock.Elapsed()) / base
}

// mc formats cycles as mega-cycles.
func mc(v uint64) string { return fmt.Sprintf("%10.2f", float64(v)/1e6) }

// Format renders the table in the paper's layout (User/System/Elapsed
// plus a Server column for OMOS's server-side work and the ratio
// column, with the paper's measured ratio alongside when known),
// followed by one detail line per row: the exact cycle counts and the
// row's extra metrics.
func (t *Table) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table %s: %s\n", t.ID, t.Title)
	fmt.Fprintf(&sb, "(%d iterations; times in Mcycles)\n", t.Iters)
	fmt.Fprintf(&sb, "%-28s %10s %10s %10s %10s %10s %7s %7s\n",
		"", "User", "System", "Server", "Wait", "Elapsed", "Ratio", "Paper")
	for i := range t.Rows {
		r := &t.Rows[i]
		ratio := "-"
		if i > 0 {
			ratio = fmt.Sprintf("%7.3f", t.Ratio(i))
		}
		paper := "-"
		if v, ok := t.PaperRatios[r.Label]; ok && i > 0 {
			paper = fmt.Sprintf("%7.3f", v)
		}
		fmt.Fprintf(&sb, "%-28s %s %s %s %s %s %7s %7s\n",
			r.Label, mc(r.Clock.User), mc(r.Clock.Sys), mc(r.Clock.Server),
			mc(r.Clock.Wait), mc(r.Clock.Elapsed()), ratio, paper)
	}
	// The grid above rounds to 10,000 cycles; the detail lines carry
	// every count to the digit, which is what testdata/quick.golden pins.
	for i := range t.Rows {
		r := &t.Rows[i]
		if len(r.Extra) == 0 && r.Clock == (osim.Clock{}) {
			continue
		}
		fmt.Fprintf(&sb, "  %s:", r.Label)
		if r.Clock != (osim.Clock{}) {
			fmt.Fprintf(&sb, " %s", r.Clock.String())
		}
		for _, k := range sortedKeys(r.Extra) {
			fmt.Fprintf(&sb, " %s=%.0f", k, r.Extra[k])
		}
		sb.WriteString("\n")
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

func sortedKeys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// measure runs n fresh invocations via launch, accumulating clocks.
// One unmeasured warm-up invocation precedes the measured runs so
// caches (buffer cache, OMOS image cache) are in steady state — the
// paper pre-generates fixed versions "at installation time" and
// reports the stable repetition of short runs.
func measure(n int, launch func() (*osim.Process, error)) (Row, error) {
	var row Row
	row.Extra = map[string]float64{}
	warm := true
	total := n + 1
	for i := 0; i < total; i++ {
		p, err := launch()
		if err != nil {
			return row, err
		}
		if _, err := p.Kern.RunToExit(p); err != nil {
			return row, err
		}
		if !p.Exited {
			return row, fmt.Errorf("bench: process did not exit")
		}
		if warm {
			warm = false
			p.Release()
			continue
		}
		row.Clock.Add(p.Clock)
		row.Extra["text-pages-touched"] += float64(p.AS.TouchedText)
		p.Release()
	}
	row.Extra["text-pages-touched"] /= float64(n)
	return row, nil
}

// HPUXCost is the default cost model: a monolithic kernel with cheap
// syscalls but expensive System V message IPC (the transport OMOS used
// on HP-UX, §8.2: note the large system times in Table 1's OMOS rows).
func HPUXCost() osim.CostModel {
	return osim.DefaultCost()
}

// MachCost models the Mach 3.0 + OSF/1 single-server environment: the
// native exec path and syscalls are substantially more expensive
// (every service is a trip to the server), while Mach IPC — the
// transport OMOS uses there — is much cheaper than SysV messages.
// This is what flips Table 1d: on Mach the bootstrap already wins big,
// and integrated exec wins bigger.
func MachCost() osim.CostModel {
	c := osim.DefaultCost()
	c.SyscallBase = 1400
	c.ExecBase = 9000
	c.ExecParseRecord = 500
	c.ProcSpawn = 12000
	c.IPCRoundTrip = 2500
	c.DynParseRecord = 90
	c.DynRelocApply = 160
	c.LazyBindLookup = 900
	return c
}
