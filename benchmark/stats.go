package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of sorted xs, interpolating linearly
// between order statistics. xs must be non-empty.
func quantile(xs []float64, q float64) float64 {
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// bestQuartile is the benchmark's estimator for host-speed-sensitive
// metrics. This host alternates between two speed states some 25% apart
// for tens of seconds at a time, so the mean of a run depends on how much
// of it fell in the slow state. A run is therefore cut into slices, the
// metric is computed per slice, and the quartile on the good side is
// reported: the upper one for a higher-is-better metric, the lower one
// otherwise. It tracks the fast state as long as a quarter of the run saw
// it, and unlike a maximum it is not set by a single lucky slice.
func bestQuartile(perSlice []float64, higherIsBetter bool) float64 {
	s := sortedCopy(perSlice)
	if higherIsBetter {
		return quantile(s, 0.75)
	}
	return quantile(s, 0.25)
}
