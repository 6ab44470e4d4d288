package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 < p <= 1) of an ascending
// slice by the nearest-rank rule: the smallest value with at least
// p of the samples at or below it.  No interpolation, so the result is
// always a latency that actually occurred.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// sortedCopy returns v ascending without disturbing the caller's order.
func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median of v; the mean of the middle two for an even count.
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := sortedCopy(v)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles mirrors Python's statistics.quantiles(v, n=4) (the
// "exclusive" method), because that is what the acceptance driver
// applies to a set of runs: spread = (q3-q1)/q2.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		// position i*(n+1)/4 on a 1-based scale, clamped to the data.
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1)) - float64(j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the inter-quartile distance as a share of the median.
func spread(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// sliceBounds cuts n items into k runs of (nearly) equal length and
// returns the k+1 boundaries; the remainder is spread over the first
// runs so no run differs from another by more than one item.
func sliceBounds(n, k int) []int {
	b := make([]int, k+1)
	for i := 0; i <= k; i++ {
		b[i] = i * n / k
	}
	return b
}

// minSliceSamples is the fewest ops a slice may hold: p90 then has at
// least ten samples beyond it.
const minSliceSamples = 100

// sliceCount picks how many slices a window of n ops is cut into: five,
// or three when five would leave a slice short of minSliceSamples.
func sliceCount(n int) int {
	if n/5 >= minSliceSamples {
		return 5
	}
	return 3
}
