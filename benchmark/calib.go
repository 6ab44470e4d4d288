package main

import (
	"sort"
	"strconv"
	"time"
)

// Host-speed calibration.
//
// This host is one physical core shown as two hyperthreads, and other
// tenants' work is scheduled onto it for minutes at a time.  Measured on
// the unchanged tree, the same 25 s exec-warm window read 34 ops/s in a
// quiet spell and 23 in a busy one; per-op CPU time swung with it (56 to
// 86 ms), so the processor itself was running our instructions slower —
// nothing a median over slices of one window can remove.
//
// So every run carries its own yardstick: a fixed kernel of ordinary Go
// work (allocate and touch fresh memory, fill and probe a map, build and
// sort small strings — the instruction mix of a compiler and a linker)
// is timed every calTick while the window runs, and around every set-up
// repetition.  How much slower than nominal the kernel ran is how much
// slower the host was; the time metrics are divided by that factor,
// slice by slice.  They then read "at reference host speed" instead of
// "at whatever speed the neighbours left"; README.md has the table of
// what that bought.  The raw readings and the factor are kept beside
// every normalized number.
//
// The kernel uses nothing of the repository, so no later change to the
// system can rewrite the yardstick.  It does run beside the workload's
// own threads, so a change to what those execute can still nudge it;
// README.md says when to read the raw numbers as well.

// The kernel's duration on this host when it is quiet: beside a loaded
// sibling hyperthread (as in every window), and with the sibling idle
// (as around a set-up repetition).  These only fix the scale, so that
// on a quiet host a normalized time reads about what the clock read; on
// another machine the normalized times are still comparable with each
// other.
const (
	calNominalLoaded = 230 * time.Microsecond
	calNominalIdle   = 170 * time.Microsecond
)

// calTick is how often the kernel runs during a window (about 0.4 % of
// one hyperthread).
const calTick = 100 * time.Millisecond

var calSink uint64

// calKernel runs the yardstick once and returns how long it took.
func calKernel() time.Duration {
	start := time.Now()
	// Allocate and touch fresh memory.
	var keep [96][]byte
	for i := range keep {
		b := make([]byte, 4096)
		for j := 0; j < len(b); j += 64 {
			b[j] = byte(i)
		}
		keep[i] = b
	}
	// Fill and probe a map.
	m := make(map[uint64]uint64)
	for i := uint64(0); i < 1500; i++ {
		m[i*2654435761] = i
	}
	var sum uint64
	for i := uint64(0); i < 1500; i++ {
		sum += m[i*2654435761]
	}
	// Build and sort small strings.
	ss := make([]string, 0, 400)
	for i := 0; i < 400; i++ {
		ss = append(ss, "sym_"+strconv.Itoa(int((uint64(i)*2654435761)%100003)))
	}
	sort.Strings(ss)
	calSink += sum + uint64(len(ss[0])) + uint64(keep[len(keep)-1][64])
	return time.Since(start)
}

// calPoint is one kernel timing at a moment of a window.
type calPoint struct{ t, ns int64 }

// slowdown is how many times slower than nominal the host ran, from
// kernel timings: their lower quartile, never below 1/4 or above 4, and
// 1 when there is no timing to go by.  The lower quartile, because the
// benchmark's own goroutines share the two hyperthreads with the kernel
// and can only ever add to a timing (beside exec-warm a tenth of the
// timings are preempted for milliseconds): over thirty 8 s windows on a
// steady host the median of the timings scattered by 9 %, their lower
// quartile by 3 %.
func slowdown(ns []float64, nominal time.Duration) float64 {
	if len(ns) == 0 {
		return 1
	}
	s := percentile(sortedCopy(ns), 0.25) / float64(nominal)
	switch {
	case s < 0.25:
		return 0.25
	case s > 4:
		return 4
	}
	return s
}

// calBurst times the kernel n times in a row, for calibrating something
// that is not a window (a set-up repetition).
func calBurst(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(calKernel())
	}
	return out
}
