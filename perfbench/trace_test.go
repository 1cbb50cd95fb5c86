package main

import (
	"testing"
	"time"
)

func TestUnionLength(t *testing.T) {
	ms := time.Millisecond
	for _, c := range []struct {
		iv   [][2]time.Duration
		want time.Duration
	}{
		{nil, 0},
		{[][2]time.Duration{{0, 5 * ms}}, 5 * ms},
		// Two batch items committing in parallel: the overlap counts once.
		{[][2]time.Duration{{0, 4 * ms}, {2 * ms, 6 * ms}}, 6 * ms},
		{[][2]time.Duration{{10 * ms, 12 * ms}, {0, 3 * ms}, {1 * ms, 2 * ms}}, 5 * ms},
		{[][2]time.Duration{{0, 10 * ms}, {2 * ms, 3 * ms}, {9 * ms, 11 * ms}}, 11 * ms},
	} {
		if got := unionLength(c.iv); got != c.want {
			t.Errorf("unionLength(%v) = %v, want %v", c.iv, got, c.want)
		}
	}
}

func TestKeptSlices(t *testing.T) {
	// Steal at slice boundaries, CPU-seconds. Calm window: every slice
	// lost at most stealLimit, so all are kept.
	keep := keptSlices([]float64{10, 10.01, 10.01, 10.05, 10.08})
	if len(keep) != 4 {
		t.Errorf("calm window kept %v, want all four slices", keep)
	}
	// Slices 1 and 3 were stolen from: set aside.
	keep = keptSlices([]float64{10, 10.01, 10.2, 10.2, 10.5, 10.52})
	if len(keep) != 3 || !keep[0] || !keep[2] || !keep[4] {
		t.Errorf("kept %v, want 0, 2 and 4", keep)
	}
	// A window inside a steal episode keeps its least-stolen half.
	keep = keptSlices([]float64{0, 0.2, 0.3, 0.6, 0.7})
	if len(keep) != 2 || !keep[1] || !keep[3] {
		t.Errorf("episode kept %v, want 1 and 3", keep)
	}
	s := sliced{}
	for i, v := range []float64{1, 50, 1, 50, 1} {
		for j := 0; j < 10; j++ {
			s.add(time.Duration(i)*sliceLen+time.Duration(j)*time.Millisecond, v)
		}
	}
	if got := percentile(s.pool(map[int]bool{0: true, 2: true, 4: true}), 90); got != 1 {
		t.Errorf("p90 over kept slices = %v, want 1", got)
	}
	if got := s.len(); got != 50 {
		t.Errorf("len = %d, want 50", got)
	}
}
