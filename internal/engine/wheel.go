package engine

// wheel is a hierarchical timing wheel keyed on the engine's epoch
// counter — the scheduler for per-chip stress↔sleep transitions. Each
// partition owns one, so insertions and fires happen under the
// partition lock with no extra synchronization.
//
// Geometry: wheelLevels levels of wheelSlots slots each, level l slots
// spanning wheelSlots^l epochs. With 4×256 the wheel covers ~4.3e9
// epochs — far past any schedule — and stepping one epoch is O(1)
// amortized: level-0 slots fire directly, and a higher-level slot
// cascades its items down one level each time the level below wraps.
// A circadian fleet (the common case: every chip toggling every few
// hundred epochs) keeps essentially all items in the bottom two
// levels.
//
// Items are identified by chip id plus a schedule generation; a fire
// whose generation no longer matches the chip's current schedule is
// stale (the schedule was replaced or cleared after insertion) and is
// dropped instead of cancelled in place — cancellation is O(1) by
// generation bump.
type wheel struct {
	current uint64 // epochs stepped so far; items fire at epoch > current
	levels  [wheelLevels][wheelSlots][]wheelItem
}

const (
	wheelLevels = 4
	wheelSlots  = 256
	wheelBits   = 8 // log2(wheelSlots)
)

// wheelItem is one scheduled transition: the chip it belongs to, the
// schedule generation it was inserted under, and the absolute epoch it
// fires at (needed to re-insert precisely when cascading down).
type wheelItem struct {
	id  string
	gen uint32
	at  uint64
}

// schedule inserts an item firing at absolute epoch at and returns
// the epoch it fires at. Items in the past or present fire on the next
// step (clamped to current+1) — a zero-length phase would otherwise
// never fire.
func (w *wheel) schedule(id string, gen uint32, at uint64) uint64 {
	if at <= w.current {
		at = w.current + 1
	}
	w.place(wheelItem{id: id, gen: gen, at: at})
	return at
}

// place files an item into the coarsest slot that still distinguishes
// its fire epoch from now.
func (w *wheel) place(it wheelItem) {
	delta := it.at - w.current
	for l := 0; l < wheelLevels; l++ {
		span := uint64(1) << (wheelBits * (l + 1)) // epochs covered by level l
		if delta <= span || l == wheelLevels-1 {
			slot := (it.at >> (wheelBits * l)) & (wheelSlots - 1)
			w.levels[l][slot] = append(w.levels[l][slot], it)
			return
		}
	}
}

// step advances the wheel one epoch and invokes fire for every item due
// at the new current epoch. Higher levels cascade when the level below
// wraps, re-placing their items at finer granularity; an item whose
// level-0 slot is reached fires.
func (w *wheel) step(fire func(id string, gen uint32)) {
	w.current++
	// Cascade outer levels whose inner neighbour just wrapped.
	for l := 1; l < wheelLevels; l++ {
		if w.current&((uint64(1)<<(wheelBits*l))-1) != 0 {
			break
		}
		slot := (w.current >> (wheelBits * l)) & (wheelSlots - 1)
		items := w.levels[l][slot]
		w.levels[l][slot] = nil
		for _, it := range items {
			w.place(it)
		}
	}
	slot := w.current & (wheelSlots - 1)
	due := w.levels[0][slot]
	w.levels[0][slot] = nil
	for _, it := range due {
		if it.at == w.current {
			fire(it.id, it.gen)
		} else {
			// A level-0 slot is revisited every wheelSlots epochs; an
			// item parked for a later lap goes back in.
			w.place(it)
		}
	}
}
