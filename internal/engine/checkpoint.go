package engine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

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
	b = binary.LittleEndian.AppendUint64(b, e.epoch)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(e.simHours))
	u64 := binary.LittleEndian.AppendUint64
	f64 := func(b []byte, f float64) []byte { return u64(b, math.Float64bits(f)) }
	for _, p := range e.parts {
		b = binary.LittleEndian.AppendUint32(b, p.gen)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(p.meta)))
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
			b = binary.AppendUvarint(b, uint64(len(m.id)))
			b = append(b, m.id...)
			st := p.batch.ExportState(i)
			for _, w := range st.Words() {
				b = u64(b, w)
			}
			b = f64(b, p.batch.Duty(i))
			b = u64(b, p.odo[i])
			b = f64(f64(f64(f64(b, m.tempC), m.vdd), m.sTempC), m.sVdd)
			b = binary.LittleEndian.AppendUint32(b, m.schedGen)
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

// ckptReader consumes a checkpoint encoding; the first short read
// sticks in err.
type ckptReader struct {
	b   []byte
	err error
}

var errCkptShort = errors.New("engine: checkpoint: truncated")

func (r *ckptReader) take(n int) []byte {
	if r.err != nil || len(r.b) < n {
		r.err = errCkptShort
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *ckptReader) u8() byte {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (r *ckptReader) u32() uint32 {
	if b := r.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (r *ckptReader) u64() uint64 {
	if b := r.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (r *ckptReader) f64() float64 { return math.Float64frombits(r.u64()) }

// str reads a uvarint-length-prefixed string, refusing a length not
// written in its shortest form, so decoding stays the inverse of
// encoding.
func (r *ckptReader) str() string {
	if r.err != nil {
		return ""
	}
	n, k := binary.Uvarint(r.b)
	if k <= 0 || k != len(binary.AppendUvarint(nil, n)) || n > uint64(len(r.b)-k) {
		r.err = errors.New("engine: checkpoint: bad id length")
		return ""
	}
	r.b = r.b[k:]
	return string(r.take(int(n)))
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
	r := &ckptReader{b: b}
	if v := r.u8(); r.err == nil && v != checkpointVersion {
		return fmt.Errorf("engine: checkpoint: unknown version %d", v)
	}
	epoch := r.u64()
	simHours := r.f64()
	var parts [store.ShardCount]*partition
	chips := 0
	for pi := range parts {
		p := newPartition()
		p.wheel.current = epoch
		p.gen = r.u32()
		n := r.u32()
		if r.err == nil && uint64(n) > uint64(len(r.b)/ckptChipMin) {
			return fmt.Errorf("engine: checkpoint: partition %d: %d chips do not fit %d bytes", pi, n, len(r.b))
		}
		for k := uint32(0); k < n && r.err == nil; k++ {
			if err := p.restoreChip(e.params, r, pi, epoch); err != nil {
				return err
			}
		}
		if r.err != nil {
			return r.err
		}
		parts[pi] = p
		chips += len(p.meta)
	}
	if r.err != nil {
		return r.err
	}
	if len(r.b) != 0 {
		return fmt.Errorf("engine: checkpoint: %d trailing bytes", len(r.b))
	}
	e.parts = parts
	e.epoch, e.simHours = epoch, simHours
	e.chips.Store(int64(chips))
	return nil
}

// restoreChip decodes one chip of partition pi into p.
func (p *partition) restoreChip(params td.Params, r *ckptReader, pi int, epoch uint64) error {
	flags := r.u8()
	id := r.str()
	var w [td.StateWords]uint64
	for k := range w {
		w[k] = r.u64()
	}
	duty := r.f64()
	odo := r.u64()
	m := chipMeta{id: id, fleet: flags&ckptFleet != 0}
	m.tempC, m.vdd, m.sTempC, m.sVdd = r.f64(), r.f64(), r.f64(), r.f64()
	m.schedGen = r.u32()
	if flags&ckptSched != 0 {
		m.sched.StressEpochs, m.sched.SleepEpochs = r.u64(), r.u64()
		m.sched.SleepTempC, m.sched.SleepVdd = r.f64(), r.f64()
		m.next = r.u64()
	}
	if r.err != nil {
		return r.err
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
