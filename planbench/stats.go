package main

import (
	"math"
	"slices"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs: the
// smallest sample with at least p of the samples at or below it. xs need
// not be sorted; it is not modified. An empty sample yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := int(math.Ceil(p * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

// median is the nearest-rank 0.5-quantile.
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// geomean is the geometric mean of xs, which must all be positive; an empty
// sample yields 0.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// mean is the arithmetic mean of xs; an empty sample yields 0.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
