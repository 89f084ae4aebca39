package main

import (
	"math"

	"ivdss/internal/stats"
)

// percentile is stats.Percentile (linear interpolation between closest
// ranks, p in 0..100) except that an empty sample gives NaN, not 0, so
// result hygiene catches a timing nobody sampled.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return stats.Percentile(xs, p)
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// samplesBeyond is how many of n samples lie above the p-th percentile —
// the count that says whether the percentile is resolvable.
func samplesBeyond(n int, p float64) int {
	return int(math.Floor(float64(n) * (100 - p) / 100))
}
