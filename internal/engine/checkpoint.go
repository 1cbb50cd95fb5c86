package engine

import (
	"fmt"

	"selfheal/internal/codec"
	"selfheal/internal/store"
	"selfheal/internal/td"
)

// checkpointEvery bounds replay: once an epoch flush brings the epochs
// journaled since the engine's last checkpoint to checkpointEvery, the
// flush commits a checkpoint in place of its epoch record, so a
// restart restores it and re-runs fewer than checkpointEvery epochs.
// At 10k chips a checkpoint is ~1.5 MB and costs about as much as 25
// epochs of ticking; replaying 255 epochs costs about 0.1 s.
const checkpointEvery = 256

// checkpointChunk bounds the state bytes one OpEngineCheckpoint record
// carries. JSON renders them in base64, 4/3 of their size, so a
// record's line stays under 256 KiB.
const checkpointChunk = 190 << 10

// checkpointVersion is the version of the engine checkpoint encoding,
// a little-endian byte string:
//
//	version u8, epoch u64, simHours float64 bits
//	per partition, in index order:
//	  gen u32, chips u32
//	  per chip, in index order:
//	    flags u8 (ckptFleet | ckptSleep | ckptSched)
//	    id: uvarint length, bytes
//	    td.State words, 10 × u64
//	    clamped duty, odometer, then the active and the stress
//	    corner (tempC, vdd, sTempC, sVdd): 6 × u64
//	    schedule gen u32
//	    with ckptSched: stress and sleep epochs, sleep tempC and vdd,
//	    and the epoch of the chip's live wheel item: 5 × u64
//
// Floats are stored as their bits, so a restore is bit-exact.
const checkpointVersion = 1

// Chip flags of the checkpoint encoding.
const (
	ckptFleet = 1 << iota // registered on behalf of a fleet chip
	ckptSleep             // in its sleep phase
	ckptSched             // has a circadian schedule
	ckptFlags = ckptFleet | ckptSleep | ckptSched
)

// ckptChipMin is the smallest encoding of one chip: flags, a one-byte
// id, its length, and the fixed fields.
const ckptChipMin = 1 + 1 + 1 + 8*td.StateWords + 6*8 + 4

// encodeCheckpoint renders the engine's state. Callers hold tickMu.
func (e *Engine) encodeCheckpoint() []byte {
	n := 0
	for _, p := range e.parts {
		n += len(p.meta)
	}
	b := make([]byte, 0, 17+8*len(e.parts)+n*(ckptChipMin+16))
	b = append(b, checkpointVersion)
	b = codec.AppendU64(b, e.epoch)
	b = codec.AppendF64(b, e.simHours)
	u64, f64 := codec.AppendU64, codec.AppendF64
	for _, p := range e.parts {
		b = codec.AppendU32(b, p.gen)
		b = codec.AppendU32(b, uint32(len(p.meta)))
		for i := range p.meta {
			m := &p.meta[i]
			var flags byte
			if m.fleet {
				flags |= ckptFleet
			}
			if m.phase == phaseSleep {
				flags |= ckptSleep
			}
			if m.next != 0 {
				flags |= ckptSched
			}
			b = append(b, flags)
			b = codec.AppendStr(b, m.id)
			st := p.batch.ExportState(i)
			for _, w := range st.Words() {
				b = u64(b, w)
			}
			b = f64(b, p.batch.Duty(i))
			b = u64(b, p.odo[i])
			b = f64(f64(f64(f64(b, m.tempC), m.vdd), m.sTempC), m.sVdd)
			b = codec.AppendU32(b, m.schedGen)
			if m.next != 0 {
				s := &m.sched
				b = u64(u64(b, s.StressEpochs), s.SleepEpochs)
				b = f64(f64(b, s.SleepTempC), s.SleepVdd)
				b = u64(b, m.next)
			}
		}
	}
	return b
}

// checkpointRecords cuts the engine's state into one group of
// OpEngineCheckpoint records, the last marked Final. The group stands
// in for its flush window's epoch record: the state holds the epoch
// count and simulated hours. Callers hold tickMu.
func (e *Engine) checkpointRecords() []store.Record {
	b := e.encodeCheckpoint()
	recs := make([]store.Record, 0, len(b)/checkpointChunk+1)
	for len(b) > checkpointChunk {
		recs = append(recs, store.Record{Op: store.OpEngineCheckpoint, State: b[:checkpointChunk:checkpointChunk]})
		b = b[checkpointChunk:]
	}
	return append(recs, store.Record{Op: store.OpEngineCheckpoint, State: b, Final: true})
}

// restoreCheckpoint replaces the engine's whole state with a decoded
// checkpoint: fresh partitions, their classes, id indexes and timing
// wheels rebuilt, each scheduled chip's one live wheel item booked
// again (stale items of the live engine can never fire, so none are
// kept). The engine is untouched unless the whole encoding decodes:
// a known version, chips that hash to their partition, no id twice,
// duties in [0,1], known state phases and flag bits, schedules with
// both phase lengths and a transition still ahead, and no trailing
// bytes. Callers hold tickMu (or own the engine, as replay does).
func (e *Engine) restoreCheckpoint(b []byte) error {
	r := codec.NewReader(b, "engine: checkpoint")
	if v := r.U8(); r.Err() == nil && v != checkpointVersion {
		return fmt.Errorf("engine: checkpoint: unknown version %d", v)
	}
	epoch := r.U64()
	simHours := r.F64()
	var parts [store.ShardCount]*partition
	chips := 0
	for pi := range parts {
		p := newPartition()
		p.wheel.current = epoch
		p.gen = r.U32()
		n := r.Count("chips", ckptChipMin)
		for k := 0; k < n && r.Err() == nil; k++ {
			if err := p.restoreChip(e.params, r, pi, epoch); err != nil {
				return err
			}
		}
		if r.Err() != nil {
			return r.Err()
		}
		parts[pi] = p
		chips += len(p.meta)
	}
	if err := r.Done(); err != nil {
		return err
	}
	e.parts = parts
	e.epoch, e.simHours = epoch, simHours
	e.chips.Store(int64(chips))
	return nil
}

// restoreChip decodes one chip of partition pi into p.
func (p *partition) restoreChip(params td.Params, r *codec.Reader, pi int, epoch uint64) error {
	flags := r.U8()
	id := r.Str()
	var w [td.StateWords]uint64
	for k := range w {
		w[k] = r.U64()
	}
	duty := r.F64()
	odo := r.U64()
	m := chipMeta{id: id, fleet: flags&ckptFleet != 0}
	m.tempC, m.vdd, m.sTempC, m.sVdd = r.F64(), r.F64(), r.F64(), r.F64()
	m.schedGen = r.U32()
	if flags&ckptSched != 0 {
		m.sched.StressEpochs, m.sched.SleepEpochs = r.U64(), r.U64()
		m.sched.SleepTempC, m.sched.SleepVdd = r.F64(), r.F64()
		m.next = r.U64()
	}
	if r.Err() != nil {
		return r.Err()
	}
	bad := func(format string, args ...any) error {
		return fmt.Errorf("engine: checkpoint: chip %q: "+format, append([]any{id}, args...)...)
	}
	var st td.State
	switch {
	case flags&^ckptFlags != 0:
		return bad("unknown flags %#x", flags)
	case id == "" || store.ShardOf(id) != pi:
		return bad("does not belong to partition %d", pi)
	case !(duty >= 0 && duty <= 1):
		return bad("duty %v outside [0,1]", duty)
	case m.schedGen > p.gen:
		return bad("schedule gen %d past the partition's %d", m.schedGen, p.gen)
	case flags&ckptSched != 0 && (m.sched.StressEpochs == 0 || m.sched.SleepEpochs == 0 || m.next <= epoch):
		return bad("schedule %+v next at epoch %d, at epoch %d", m.sched, m.next, epoch)
	}
	if _, dup := p.index[id]; dup {
		return bad("appears twice")
	}
	if err := st.SetWords(w); err != nil {
		return bad("%v", err)
	}
	i, err := p.batch.Append(params, duty)
	if err != nil {
		return bad("%v", err)
	}
	p.batch.ImportState(i, st)
	p.ids = append(p.ids, id)
	p.index[id] = i
	p.odo = append(p.odo, odo)
	if flags&ckptSleep != 0 {
		m.phase = phaseSleep
	}
	p.meta = append(p.meta, m)
	p.attach(i, classKey{phase: m.phase, tempC: m.tempC, vdd: m.vdd})
	if m.next != 0 {
		p.wheel.schedule(id, m.schedGen, m.next)
	}
	return nil
}
