package engine

import (
	"math"

	"selfheal/internal/stats"
	"selfheal/internal/store"
)

// Reduction is one epoch's fleet reduced once for every per-epoch
// hook: each partition's previous Vth, and the order statistics the
// guard and the telemetry recorder publish, over every chip's Vth
// shift and over ΔVth, each chip's shift since Prev. Medians average
// the middle pair for an even count; percentiles are nearest-rank,
// element ⌊p·(n−1)⌋ of the ascending order, with no interpolation.
type Reduction struct {
	Snap, Prev *Snapshot
	// PrevVth[pi] is Snap.PrevVth(Prev, pi): partition pi's Vth as of
	// Prev, index-aligned with Snap's ids, NaN where Prev lacks the chip.
	PrevVth [store.ShardCount][]float64

	// Over all Snap.Chips chips. Margin is the negated shift, the guard
	// band still unconsumed: the most-aged chip has the minimum margin.
	VthMedian                       float64
	MarginMin, MarginP50, MarginP95 float64

	// Over the Deltas chips Prev held. DeltaMAD is the raw median
	// absolute deviation from DeltaMedian (unscaled).
	Deltas                       int
	DeltaMedian, DeltaMAD        float64
	DeltaP50, DeltaP95, DeltaMax float64
}

// Reducer reduces one epoch at a time, keeping its scratch array for
// the next epoch. The zero value is ready; it is not safe for
// concurrent use.
type Reducer struct{ buf []float64 }

// Reduce flattens snap's Vth and its deltas against prev (the previous
// tick's snapshot, nil on the first) into the scratch array and takes
// every order statistic by selection, so one epoch costs a few linear
// passes over the fleet rather than a sort per statistic per hook. The
// Reduction does not point into the scratch array.
func (rd *Reducer) Reduce(snap, prev *Snapshot) *Reduction {
	r := &Reduction{Snap: snap, Prev: prev}
	n := 0
	for pi := range snap.Parts {
		n += len(snap.Parts[pi].Vth)
	}
	if cap(rd.buf) < 2*n {
		rd.buf = make([]float64, 2*n)
	}
	vth, deltas := rd.buf[:0:n], rd.buf[n:n]
	nan := 0 // NaN shifts: they rank first in both Vth and margin order
	for pi := range snap.Parts {
		cur, old := snap.Parts[pi].Vth, snap.PrevVth(prev, pi)
		r.PrevVth[pi] = old
		vth = append(vth, cur...)
		for i, v := range cur {
			if math.IsNaN(v) {
				nan++
			}
			if p := old[i]; !math.IsNaN(p) {
				deltas = append(deltas, v-p)
			}
		}
	}

	if n > 0 {
		m0, m50, m95 := marginRank(0, n, nan), marginRank(stats.NearestRank(0.50, n), n, nan), marginRank(stats.NearestRank(0.95, n), n, nan)
		stats.Select(vth, (n-1)/2, n/2, m0, m50, m95)
		r.VthMedian = selectedMedian(vth)
		r.MarginMin, r.MarginP50, r.MarginP95 = -vth[m0], -vth[m50], -vth[m95]
	}
	if d := len(deltas); d > 0 {
		r.Deltas = d
		p50, p95 := stats.NearestRank(0.50, d), stats.NearestRank(0.95, d)
		stats.Select(deltas, (d-1)/2, d/2, p50, p95, d-1)
		r.DeltaMedian = selectedMedian(deltas)
		r.DeltaP50, r.DeltaP95, r.DeltaMax = deltas[p50], deltas[p95], deltas[d-1]
		for i, x := range deltas {
			deltas[i] = math.Abs(x - r.DeltaMedian)
		}
		stats.Select(deltas, (d-1)/2, d/2)
		r.DeltaMAD = selectedMedian(deltas)
	}
	return r
}

// marginRank is the rank in the Vth order of the chip at rank j of the
// margin order (margin = −Vth) over n shifts, nan of them NaN. Both
// orders put NaNs first; past them negation reverses the order, so
// margin rank j is −(Vth rank n−1−j+nan).
func marginRank(j, n, nan int) int {
	if j < nan {
		return j
	}
	return n - 1 - j + nan
}

// selectedMedian reads the median of xs once ranks (n−1)/2 and n/2 are
// selected: the middle element, or the mean of the middle pair.
func selectedMedian(xs []float64) float64 {
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
