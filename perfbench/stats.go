package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile: a
// p99 over 500 samples rests on five observations and is refused.
const minTail = 10

// Percentile returns the p-th percentile (0 < p < 100, nearest rank) of
// xs together with the sample count. It refuses a percentile that fewer
// than minTail samples lie beyond.
func Percentile(xs []float64, p float64) (value float64, n int, err error) {
	n = len(xs)
	if n == 0 {
		return 0, 0, fmt.Errorf("percentile p%g: no samples", p)
	}
	if p <= 0 || p >= 100 {
		return 0, n, fmt.Errorf("percentile p%g: want 0 < p < 100", p)
	}
	rank := int(math.Ceil(p / 100 * float64(n))) // 1-based nearest rank
	if rank < 1 {
		rank = 1
	}
	if n-rank < minTail {
		return 0, n, fmt.Errorf("percentile p%g: %d samples leave %d beyond it, need %d", p, n, n-rank, minTail)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], n, nil
}

// Median is the 50th percentile; for an even count it averages the two
// middle samples.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// Mean is the arithmetic mean. peak_rss_mb uses it rather than the
// median: one block's peak falls in one of two levels a garbage-collector
// cycle apart (29 or 32.5 MB in serve), and the median jumped between
// them from run to run while the mean moves with their proportion.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
