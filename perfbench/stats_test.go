package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestPercentileKnownInputs(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	for _, c := range []struct{ p, want float64 }{
		{0, 15}, {25, 20}, {50, 35}, {90, 46}, {100, 50}, {40, 29},
	} {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 90); got != 7 {
		t.Errorf("percentile of one value = %v, want 7", got)
	}
	if xs[0] != 15 || xs[4] != 50 {
		t.Errorf("percentile reordered its input: %v", xs)
	}
}

// TestQuartilesMatchPython checks the cut points against
// statistics.quantiles(xs, n=4) as CPython computes them.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3.1, 2.9, 3.3, 3.0, 3.2}, 2.95, 3.1, 3.25},
		{[]float64{5, 1}, 0, 3, 6},
		{[]float64{10.5, 9.75, 11.25, 10.0, 10.125, 9.5, 12.0}, 9.75, 10.125, 11.25},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 5.5/5.5) {
		t.Errorf("spread = %v, want 1", got)
	}
}
