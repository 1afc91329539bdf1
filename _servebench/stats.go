package main

import (
	"math"
	"sort"
)

// percentileLadder is the set of percentiles a tail can be reported
// at, lowest first.
var percentileLadder = []float64{50, 90, 99, 99.9, 99.99}

// minBeyond is how many samples must lie beyond a percentile for it to
// be reported as measured rather than extrapolated.
const minBeyond = 10

// quantile is the p-th percentile of xs by linear interpolation between
// order statistics (the "R-7" rule). xs need not be sorted; +Inf entries
// (failed requests) sort last. NaN for an empty slice.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(h))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	if math.IsInf(s[lo+1], 1) {
		if h == float64(lo) {
			return s[lo]
		}
		return math.Inf(1)
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

// tail describes the highest percentile of a sample set that has at
// least minBeyond samples beyond it.
type tail struct {
	P     float64 // the percentile, 0 when even p50 has too few samples
	Value float64
	N     int // sample count
}

// highestTail reports the highest ladder percentile p with
// n·(1−p/100) ≥ minBeyond samples beyond it, with the sample count.
func highestTail(xs []float64) tail {
	t := tail{N: len(xs)}
	for _, p := range percentileLadder {
		if float64(len(xs))*(1-p/100) < minBeyond-1e-9 {
			break
		}
		t.P, t.Value = p, quantile(xs, p)
	}
	return t
}

// underSampled reports whether percentile p of n samples has fewer than
// minBeyond samples beyond it; such a figure is printed with a flag.
func underSampled(p float64, n int) bool {
	return float64(n)*(1-p/100) < minBeyond-1e-9
}

// median of xs, NaN when empty.
func median(xs []float64) float64 { return quantile(xs, 50) }
