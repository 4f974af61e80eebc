package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before the
// benchmark treats it as measured rather than as one or two outliers.
const minBeyond = 10

// tailLadder lists the percentiles the tail rule chooses from, highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// beyond counts the samples of an n-sample set that lie above its p-th
// percentile rank.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(float64(n)*p/100))
}

// tailRule returns the highest percentile of tailLadder with at least
// minBeyond of n samples beyond it, or 0 when even the median has fewer.
func tailRule(n int) float64 {
	for _, p := range tailLadder {
		if beyond(n, p) >= minBeyond {
			return p
		}
	}
	return 0
}

// percentile returns the p-th percentile (0..100) of xs, interpolating
// linearly between the two closest ranks. xs is not modified. An empty set
// yields NaN.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
