package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: the functions must sort
	}
	return xs
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// TestPercentileInterpolates pins the closest-ranks interpolation
// against values Python's statistics.quantiles(method="inclusive")
// gives for 1..100.
func TestPercentileInterpolates(t *testing.T) {
	xs := seq(100)
	for _, c := range []struct{ p, want float64 }{{50, 50.5}, {75, 75.25}, {90, 90.1}, {99, 99.01}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("p%g of 1..100 = %v, want %v", c.p, got, c.want)
		}
	}
}

// TestTailRule checks the reporting rule: the highest percentile with at
// least ten samples beyond it, and the sample count, at every band edge.
func TestTailRule(t *testing.T) {
	for _, c := range []struct {
		n     int
		tailP float64
	}{
		{1, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90},
		{199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		tl := tailOf(seq(c.n))
		if tl.N != c.n || tl.TailP != c.tailP {
			t.Errorf("n=%d: got p%g over n=%d, want p%g", c.n, tl.TailP, tl.N, c.tailP)
		}
		if c.tailP == 0 && tl.Tail != float64(c.n) {
			t.Errorf("n=%d: below 20 samples the tail is the maximum, got %v", c.n, tl.Tail)
		}
		if c.tailP != 0 && tl.Tail != percentile(seq(c.n), c.tailP) {
			t.Errorf("n=%d: tail %v is not p%g", c.n, tl.Tail, c.tailP)
		}
		if tl.P50 != median(seq(c.n)) {
			t.Errorf("n=%d: p50 %v is not the median", c.n, tl.P50)
		}
	}
}
