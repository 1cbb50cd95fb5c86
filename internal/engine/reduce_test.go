package engine

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"selfheal/internal/store"
)

// same is equality in sort.Float64s's order: NaNs match each other and
// -0 ties +0.
func same(a, b float64) bool { return a == b || (a != a && b != b) }

// partsSnapshot deals vth round-robin over the partitions, under one
// id slice per partition: snapshots built on the same ids share them,
// as consecutive ticks without a membership change do.
func partsSnapshot(vth []float64, ids [][]string) *Snapshot {
	s := &Snapshot{Chips: len(vth)}
	for i, v := range vth {
		pv := &s.Parts[i%len(s.Parts)]
		pv.Vth = append(pv.Vth, v)
	}
	for pi := range s.Parts {
		s.Parts[pi].IDs = ids[pi]
	}
	return s
}

// TestReduceMatchesNegateThenSort is the property test behind Reduce's
// margin shortcut (margin rank j read as −(Vth rank n−1−j+nan)) and its
// selections: on shifts seasoned with NaNs, signed zeros and ties, every
// statistic equals what negating and sorting, or sorting, gives.
func TestReduceMatchesNegateThenSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	draw := func() float64 {
		switch rng.Intn(7) {
		case 0:
			return math.NaN()
		case 1:
			return math.Copysign(0, -1)
		case 2:
			return 0
		case 3:
			return float64(rng.Intn(3)) * 1e-3
		default:
			return rng.Float64() * 0.1
		}
	}
	sortedCopy := func(xs []float64) []float64 {
		out := append([]float64(nil), xs...)
		sort.Float64s(out)
		return out
	}
	median := func(sorted []float64) float64 {
		n := len(sorted)
		if n%2 == 1 {
			return sorted[n/2]
		}
		return (sorted[n/2-1] + sorted[n/2]) / 2
	}
	at := func(sorted []float64, p float64) float64 { return sorted[int(p*float64(len(sorted)-1))] }

	var rd Reducer // one scratch array across trials of every size
	for trial := 0; trial < 600; trial++ {
		n := trial % 70
		cur, old := make([]float64, n), make([]float64, n)
		for i := range cur {
			cur[i], old[i] = draw(), draw()
		}
		ids := make([][]string, store.ShardCount)
		for i := 0; i < n; i++ {
			ids[i%store.ShardCount] = append(ids[i%store.ShardCount], fmt.Sprintf("c%d", i))
		}
		prev := partsSnapshot(old, ids)
		snap := partsSnapshot(cur, ids)
		r := rd.Reduce(snap, prev)

		// The reference, in Reduce's flattening order.
		var vth, margins, deltas []float64
		for pi := range snap.Parts {
			for i, v := range snap.Parts[pi].Vth {
				vth = append(vth, v)
				margins = append(margins, -v)
				if p := prev.Parts[pi].Vth[i]; !math.IsNaN(p) {
					deltas = append(deltas, v-p)
				}
			}
		}
		check := func(name string, got, want float64) {
			t.Helper()
			if !same(got, want) {
				t.Fatalf("trial %d (n=%d): %s = %v, reference %v", trial, n, name, got, want)
			}
		}
		if n > 0 {
			m := sortedCopy(margins)
			check("MarginMin", r.MarginMin, m[0])
			check("MarginP50", r.MarginP50, at(m, 0.50))
			check("MarginP95", r.MarginP95, at(m, 0.95))
			check("VthMedian", r.VthMedian, median(sortedCopy(vth)))
		}
		if r.Deltas != len(deltas) {
			t.Fatalf("trial %d: Deltas = %d, want %d", trial, r.Deltas, len(deltas))
		}
		if len(deltas) > 0 {
			d := sortedCopy(deltas)
			check("DeltaP50", r.DeltaP50, at(d, 0.50))
			check("DeltaP95", r.DeltaP95, at(d, 0.95))
			check("DeltaMax", r.DeltaMax, d[len(d)-1])
			med := median(d)
			check("DeltaMedian", r.DeltaMedian, med)
			devs := make([]float64, len(d))
			for i, x := range d {
				devs[i] = math.Abs(x - med)
			}
			check("DeltaMAD", r.DeltaMAD, median(sortedCopy(devs)))
		}
	}
}
