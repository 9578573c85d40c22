package main

import (
	"fmt"
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the p-th percentile (0 < p < 100) of xs by linear
// interpolation between closest ranks, the same definition Python's
// statistics.quantiles uses with method="inclusive".
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// tailLadder lists, in permille, the percentiles a tail may be reported
// at (integers, so the ten-samples-beyond test is exact).
var tailLadder = []int{999, 990, 950, 900, 750, 500}

// Tail is a latency summary under the reporting rule: the median, plus
// the highest percentile of tailLadder that still has at least ten
// samples beyond it, with the sample count those two rest on.
type Tail struct {
	N     int
	P50   float64
	TailP float64 // which percentile Tail is; 0 when N < 20
	Tail  float64
}

// String renders the summary with its sample count, e.g.
// "p50 12.1 ms, p90 30.2 ms, n=140".
func (t Tail) String() string {
	if t.TailP == 0 {
		return fmt.Sprintf("p50 %.4g ms, max %.4g ms, n=%d", t.P50, t.Tail, t.N)
	}
	return fmt.Sprintf("p50 %.4g ms, p%g %.4g ms, n=%d", t.P50, t.TailP, t.Tail, t.N)
}

// tailOf applies the reporting rule to xs. With fewer than 20 samples no
// percentile has ten samples beyond it, so Tail falls back to the
// maximum and TailP stays 0.
func tailOf(xs []float64) Tail {
	t := Tail{N: len(xs), P50: median(xs)}
	for _, pm := range tailLadder {
		if len(xs)*(1000-pm) >= 10*1000 {
			p := float64(pm) / 10
			t.TailP, t.Tail = p, percentile(xs, p)
			return t
		}
	}
	for _, x := range xs {
		t.Tail = math.Max(t.Tail, x)
	}
	return t
}
