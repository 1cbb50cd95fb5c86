package engine

import (
	"math"
	"sort"
	"time"

	"selfheal/internal/store"
)

// Snapshot is one immutable per-epoch view of the whole fleet,
// published by atomic pointer swap after every tick and every write,
// so a write is readable without waiting for the next epoch. Readers share it wait-free; all
// partitions in one snapshot are at the same epoch.
type Snapshot struct {
	Epoch    uint64
	SimHours float64
	Chips    int
	Taken    time.Time
	Parts    [store.ShardCount]PartView
}

// PartView is one partition's slice of a snapshot. IDs and Index are
// shared copy-on-write with the live partition (cloned only when
// membership changes); the per-chip state arrays are copied fresh each
// publication.
type PartView struct {
	IDs   []string
	Index map[string]int
	Vth   []float64
	Odo   []uint64
	Phase []uint8
	Duty  []float64
}

// ChipView is one chip's state as of a snapshot's epoch.
type ChipView struct {
	ID       string  `json:"id"`
	Epoch    uint64  `json:"epoch"`
	SimHours float64 `json:"sim_hours"`
	VthShift float64 `json:"vth_shift_v"`
	Odometer uint64  `json:"odometer_epochs"`
	Phase    string  `json:"phase"`
	Duty     float64 `json:"duty"`
}

func phaseName(p uint8) string {
	if p == phaseSleep {
		return PhaseSleepName
	}
	return PhaseStressName
}

// Chip looks one chip up by id.
func (s *Snapshot) Chip(id string) (ChipView, bool) {
	pv := &s.Parts[store.ShardOf(id)]
	i, ok := pv.Index[id]
	if !ok || i >= len(pv.Vth) {
		return ChipView{}, false
	}
	return ChipView{
		ID: id, Epoch: s.Epoch, SimHours: s.SimHours,
		VthShift: pv.Vth[i], Odometer: pv.Odo[i],
		Phase: phaseName(pv.Phase[i]), Duty: pv.Duty[i],
	}, true
}

// PrevVth returns partition pi's threshold shifts as of prev,
// index-aligned with s.Parts[pi].IDs; chips prev does not hold (prev
// nil, or registered since) read NaN. While the partition's
// copy-on-write id slice is still shared with prev, this is prev's own
// (read-only) array: no allocation, no lookups. After a membership
// change each chip is looked up by id.
func (s *Snapshot) PrevVth(prev *Snapshot, pi int) []float64 {
	cur, old := &s.Parts[pi], PartView{}
	if prev != nil {
		old = prev.Parts[pi]
	}
	if len(old.IDs) == len(cur.IDs) && (len(cur.IDs) == 0 || &old.IDs[0] == &cur.IDs[0]) {
		return old.Vth
	}
	vth := make([]float64, len(cur.IDs))
	for i, id := range cur.IDs {
		vth[i] = math.NaN()
		if j, ok := old.Index[id]; ok {
			vth[i] = old.Vth[j]
		}
	}
	return vth
}

// Has reports whether id is registered as of this snapshot.
func (s *Snapshot) Has(id string) bool {
	_, ok := s.Parts[store.ShardOf(id)].Index[id]
	return ok
}

// TopByOdometer returns the k most-aged chips (by stress-epoch
// odometer, ties broken by id for determinism) — the cardinality cap
// the Prometheus exposition uses instead of emitting every chip.
func (s *Snapshot) TopByOdometer(k int) []ChipView {
	if k <= 0 {
		return nil
	}
	top := make([]ChipView, 0, k+1)
	worse := func(a, b ChipView) bool { // a ranks below b
		if a.Odometer != b.Odometer {
			return a.Odometer < b.Odometer
		}
		return a.ID > b.ID
	}
	for pi := range s.Parts {
		pv := &s.Parts[pi]
		for i, id := range pv.IDs {
			cv := ChipView{
				ID: id, Epoch: s.Epoch, SimHours: s.SimHours,
				VthShift: pv.Vth[i], Odometer: pv.Odo[i],
				Phase: phaseName(pv.Phase[i]), Duty: pv.Duty[i],
			}
			if len(top) == k && !worse(top[k-1], cv) {
				continue
			}
			pos := sort.Search(len(top), func(j int) bool { return worse(top[j], cv) })
			top = append(top, ChipView{})
			copy(top[pos+1:], top[pos:])
			top[pos] = cv
			if len(top) > k {
				top = top[:k]
			}
		}
	}
	return top
}

// publishSnapshotLocked builds and publishes a fresh snapshot. Callers
// hold tickMu.
func (e *Engine) publishSnapshotLocked() {
	s := &Snapshot{Epoch: e.epoch, SimHours: e.simHours, Taken: time.Now()}
	total := 0
	for pi, p := range e.parts {
		n := p.batch.Len()
		pv := PartView{
			IDs:   p.ids,
			Index: p.index,
			Vth:   make([]float64, n),
			Odo:   make([]uint64, n),
			Phase: make([]uint8, n),
			Duty:  make([]float64, n),
		}
		p.shared = true // next membership change clones before mutating
		p.batch.CopyVth(pv.Vth)
		copy(pv.Odo, p.odo)
		for i := 0; i < n; i++ {
			pv.Phase[i] = p.meta[i].phase
			pv.Duty[i] = p.batch.Duty(i)
		}
		s.Parts[pi] = pv
		total += n
	}
	s.Chips = total
	e.chips.Store(int64(total))
	e.snap.Store(s)
}
