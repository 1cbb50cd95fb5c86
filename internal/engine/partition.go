package engine

import (
	"selfheal/internal/td"
	"selfheal/internal/units"
)

// phase constants for chipMeta.phase and the snapshot's Phase arrays.
const (
	phaseStress = 0
	phaseSleep  = 1
)

// PhaseStress and PhaseSleep are the wire names of the two phases.
const (
	PhaseStressName = "stress"
	PhaseSleepName  = "sleep"
)

// classKey identifies a condition class: every chip sharing one key is
// advanced by a single td.Class per epoch, so the class's exp/log
// prefactors are evaluated once regardless of how many chips hold it.
// Duty stays per chip (cached inside the td.Batch), so class count is
// the number of distinct (phase, temperature, voltage) triples in the
// partition — a handful in any realistic fleet.
type classKey struct {
	phase uint8
	tempC float64
	vdd   float64
}

// class is the chips currently advancing under one condition.
type class struct {
	key classKey
	idx []int // chip indices in the partition's batch
}

// chipMeta is the cold per-chip bookkeeping (the hot state lives in
// the td.Batch's parallel slices).
type chipMeta struct {
	id    string
	fleet bool  // registered on behalf of a fleet chip
	phase uint8 // current phase
	// Active condition of the current phase.
	tempC, vdd float64
	// The stress condition to return to when a scheduled sleep ends.
	sTempC, sVdd float64
	sched        Schedule
	schedGen     uint32 // the partition's gen at the last schedule change; stale wheel fires drop
	next         uint64 // epoch of the chip's live wheel item; 0 without a schedule
	classID      int    // index into classes
	classPos     int    // position inside that class's idx
}

// partition is one 32nd of the engine's fleet, aligned with the store
// shard of the chip id (store.ShardOf), so engine partition traffic
// and store shard traffic stripe identically. It has no lock of its
// own: writers and snapshot publication hold the engine's tick lock,
// and during a tick each worker advances only the partitions it
// claimed.
type partition struct {
	batch *td.Batch
	meta  []chipMeta
	odo   []uint64 // stress epochs endured — the engine's aging odometer
	wheel wheel
	// gen numbers the partition's schedule changes. A chip's live wheel
	// item carries the gen of its chip's last change, so no stale item
	// can match a later schedule, even one of a chip registered again
	// under a removed chip's id.
	gen uint32

	classes   []*class
	classByK  map[classKey]int
	tdScratch []td.Class

	// Copy-on-write membership view shared with published snapshots:
	// mutators clone before the first change after a publish.
	ids    []string
	index  map[string]int
	shared bool
}

func newPartition() *partition {
	return &partition{
		batch:    td.NewBatch(0),
		classByK: make(map[classKey]int),
		index:    make(map[string]int),
	}
}

// mutableIDs makes the membership view writable, cloning it if a
// published snapshot still shares it.
func (p *partition) mutableIDs() {
	if !p.shared {
		return
	}
	ids := make([]string, len(p.ids))
	copy(ids, p.ids)
	index := make(map[string]int, len(p.index))
	for k, v := range p.index {
		index[k] = v
	}
	p.ids, p.index, p.shared = ids, index, false
}

// classFor returns the class index for key, creating it on first use.
func (p *partition) classFor(key classKey) int {
	if ci, ok := p.classByK[key]; ok {
		return ci
	}
	ci := len(p.classes)
	p.classes = append(p.classes, &class{key: key})
	p.classByK[key] = ci
	return ci
}

// attach files chip i into the class for key.
func (p *partition) attach(i int, key classKey) {
	ci := p.classFor(key)
	c := p.classes[ci]
	p.meta[i].classID = ci
	p.meta[i].classPos = len(c.idx)
	c.idx = append(c.idx, i)
}

// detach removes chip i from its class by swapping the class's last
// member into its position.
func (p *partition) detach(i int) {
	m := &p.meta[i]
	c := p.classes[m.classID]
	last := len(c.idx) - 1
	moved := c.idx[last]
	c.idx[m.classPos] = moved
	p.meta[moved].classPos = m.classPos
	c.idx = c.idx[:last]
}

// moveClass reassigns chip i to the class for key.
func (p *partition) moveClass(i int, key classKey) {
	if p.classes[p.meta[i].classID].key == key {
		return
	}
	p.detach(i)
	p.attach(i, key)
}

// register adds a chip. The caller validated the spec; duty validation
// happens in the batch append.
func (p *partition) register(params td.Params, sp Spec) error {
	if _, taken := p.index[sp.ID]; taken {
		return DuplicateError{ID: sp.ID}
	}
	i, err := p.batch.Append(params, sp.Duty)
	if err != nil {
		return err
	}
	p.mutableIDs()
	p.ids = append(p.ids, sp.ID)
	p.index[sp.ID] = i
	p.odo = append(p.odo, 0)
	m := chipMeta{
		id: sp.ID, fleet: sp.Kind == KindFleet,
		tempC: sp.TempC, vdd: sp.Vdd,
		sTempC: sp.TempC, sVdd: sp.Vdd,
	}
	if sp.Phase == PhaseSleepName {
		m.phase = phaseSleep
	}
	p.meta = append(p.meta, m)
	p.attach(i, classKey{phase: m.phase, tempC: m.tempC, vdd: m.vdd})
	if sp.Schedule != nil {
		p.applySchedule(i, *sp.Schedule)
	}
	return nil
}

// remove drops a chip by swapping the partition's last chip into its
// slot — O(1) in fleet size.
func (p *partition) remove(id string) bool {
	i, ok := p.index[id]
	if !ok {
		return false
	}
	p.mutableIDs()
	last := p.batch.Len() - 1
	p.detach(i)
	if i != last {
		// Move the last chip into slot i everywhere its index appears.
		p.batch.Swap(i, last)
		p.odo[i] = p.odo[last]
		p.meta[i] = p.meta[last]
		p.ids[i] = p.ids[last]
		p.index[p.ids[i]] = i
		c := p.classes[p.meta[i].classID]
		c.idx[p.meta[i].classPos] = i
	}
	p.batch.Truncate(last)
	p.odo = p.odo[:last]
	p.meta = p.meta[:last]
	p.ids = p.ids[:last]
	delete(p.index, id)
	// Stale wheel items for either chip id resolve through p.index on
	// fire, so the swap needs no wheel surgery; the removed id simply
	// stops resolving.
	return true
}

// setCondition applies an OpEngineSet: the chip's current phase,
// condition, and duty.
func (p *partition) setCondition(params td.Params, id string, c Cond) error {
	i, ok := p.index[id]
	if !ok {
		return NotFoundError{ID: id}
	}
	if err := p.batch.SetDuty(params, i, c.Duty); err != nil {
		return err
	}
	m := &p.meta[i]
	m.phase = phaseStress
	if c.Phase == PhaseSleepName {
		m.phase = phaseSleep
	}
	m.tempC, m.vdd = c.TempC, c.Vdd
	if m.phase == phaseStress {
		m.sTempC, m.sVdd = c.TempC, c.Vdd
	}
	p.moveClass(i, classKey{phase: m.phase, tempC: m.tempC, vdd: m.vdd})
	return nil
}

// setSchedule applies an OpEngineSchedule: a circadian stress/sleep
// cycle (both epoch counts > 0) or, with both zero, cancels the cycle.
func (p *partition) setSchedule(id string, s Schedule) error {
	i, ok := p.index[id]
	if !ok {
		return NotFoundError{ID: id}
	}
	p.applySchedule(i, s)
	return nil
}

func (p *partition) applySchedule(i int, s Schedule) {
	m := &p.meta[i]
	m.sched = s
	p.gen++
	m.schedGen, m.next = p.gen, 0
	if s.StressEpochs == 0 && s.SleepEpochs == 0 {
		return // cancelled; outstanding wheel items are now stale
	}
	span := s.StressEpochs
	if m.phase == phaseSleep {
		span = s.SleepEpochs
	}
	m.next = p.wheel.schedule(m.id, m.schedGen, p.wheel.current+span)
}

// fire is the wheel callback: flip the chip to its other scheduled
// phase and book the next transition.
func (p *partition) fire(id string, gen uint32) {
	i, ok := p.index[id]
	if !ok {
		return // chip removed since scheduling
	}
	m := &p.meta[i]
	if m.schedGen != gen {
		return // schedule replaced or cancelled since scheduling
	}
	var span uint64
	if m.phase == phaseStress {
		m.phase = phaseSleep
		m.tempC, m.vdd = m.sched.SleepTempC, m.sched.SleepVdd
		span = m.sched.SleepEpochs
	} else {
		m.phase = phaseStress
		m.tempC, m.vdd = m.sTempC, m.sVdd
		span = m.sched.StressEpochs
	}
	p.moveClass(i, classKey{phase: m.phase, tempC: m.tempC, vdd: m.vdd})
	m.next = p.wheel.schedule(id, gen, p.wheel.current+span)
}

// tdClass renders one condition class as a td.Class. Sleep voltages
// follow the fleet convention: Vdd < 0 is a reverse-biased rail
// (VRev = −Vdd); Vdd ≥ 0 sleeps as plain power gating (VRev = 0).
func tdClass(key classKey, idx []int) td.Class {
	if key.phase == phaseStress {
		return td.Class{
			Stress: true,
			SCond: td.StressCond{
				V: units.Volt(key.vdd),
				T: units.Celsius(key.tempC).Kelvin(),
			},
			Idx: idx,
		}
	}
	var vrev units.Volt
	if key.vdd < 0 {
		vrev = units.Volt(-key.vdd)
	}
	return td.Class{
		RCond: td.RecoveryCond{
			VRev: vrev,
			T:    units.Celsius(key.tempC).Kelvin(),
		},
		Idx: idx,
	}
}

// advance steps the partition one epoch of dt simulated time: fire the
// wheel's due transitions, advance every condition class through the
// vectorized batch path, and tick the stress odometers.
func (p *partition) advance(params td.Params, dt units.Seconds) error {
	p.wheel.step(p.fire)
	cs := p.tdScratch[:0]
	for _, c := range p.classes {
		if len(c.idx) == 0 {
			continue
		}
		cs = append(cs, tdClass(c.key, c.idx))
	}
	p.tdScratch = cs[:0]
	if err := td.AdvanceBatch(params, p.batch, dt, cs); err != nil {
		return err
	}
	for _, c := range p.classes {
		if c.key.phase != phaseStress {
			continue
		}
		for _, i := range c.idx {
			p.odo[i]++
		}
	}
	return nil
}
