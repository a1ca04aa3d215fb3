package main

import (
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a reported tail
// percentile: with fewer, the "p99" of a short run is one or two
// outliers and cannot be rerun to the same value.
const minTail = 10

// nearestRank returns the p-th percentile (0 < p <= 100) of an
// ascending sample by the nearest-rank rule: the smallest value with
// at least p% of the sample at or below it. An empty sample yields 0.
func nearestRank(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankOf(len(sorted), p)-1]
}

// rankOf is the 1-based nearest rank of percentile p in a sample of n,
// ceil(p*n/100), computed so that exact products (p=50, n=10) do not
// round up to the next rank.
func rankOf(n int, p float64) int {
	x := p * float64(n) / 100
	rank := int(math.Ceil(x - 1e-9))
	return min(max(rank, 1), n)
}

// tailPercentile is the percentile reported as "p99": 99, or — when
// fewer than minTail samples would lie beyond the 99th — the highest
// nearest-rank percentile that still leaves minTail samples beyond it.
// It returns the percentile used alongside its value; a sample of
// minTail or fewer has no such tail and reports its median.
func tailPercentile(sorted []float64) (p, v float64) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	if n <= minTail {
		return 50, nearestRank(sorted, 50)
	}
	rank := rankOf(n, 99)
	if n-rank < minTail {
		rank = n - minTail
	}
	return 100 * float64(rank) / float64(n), sorted[rank-1]
}

// median of an unsorted sample (the slice is sorted in place).
func median(xs []float64) float64 {
	sort.Float64s(xs)
	return nearestRank(xs, 50)
}

// msOf converts durations to an ascending sample in milliseconds.
func msOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

// medianDuration is the median of a duration sample, in the unit given.
func medianDuration(ds []time.Duration, unit time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(unit)
	}
	return median(xs)
}
