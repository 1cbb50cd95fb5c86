package fleet

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"selfheal"
)

// checkpointEvery bounds a chip's replay: a stress or rejuvenate
// record that is at least the checkpointEvery-th record after the
// chip's create or last checkpoint carries a checkpoint, so replay
// restores the checkpoint and re-runs fewer than checkpointEvery
// records after it. At ~50 µs per replayed 1 h phase that is under
// 1.6 ms per chip. Reads never carry one: a trailing read must stay
// prunable (see internal/journal) for the first read after a restart
// to repeat the last one before it, so a chip that is only read keeps
// its reads live.
const checkpointEvery = 32

// chipState is a fleet chip's mutable state: its die's, held in the
// root package's state type for its kind, and its tally. It is what a
// checkpoint encodes and what a failed op rolls back to.
type chipState struct {
	bench selfheal.ChipState
	mon   selfheal.MonitoredChipState
	tally tally
}

// statePool recycles chipStates, so the restore point an op takes
// copies into buffers it already has.
var statePool = sync.Pool{New: func() any { return new(chipState) }}

// checkpointVersion is the version of the checkpoint encoding: a
// checkpointHead, then the die's state as the root package encodes
// it.
const checkpointVersion = 1

// checkpointHead is the fixed-size, little-endian start of a
// checkpoint: the chip's tally. A reading's fields are zero unless its
// bit in Readings is set.
type checkpointHead struct {
	Version        uint8
	Readings       uint8 // bit 0: a measure reading, bit 1: an odometer reading
	StressSeconds  float64
	HealSeconds    float64
	Ops            uint64
	DelayNS        float64 // the last measure reading
	DegradationPct float64
	BeatHz         float64 // the last odometer reading
	DegradationPPM float64
}

// encode renders st, a chip of the given kind's state, as a
// checkpoint.
func (st *chipState) encode(kind string) ([]byte, error) {
	t := &st.tally
	h := checkpointHead{
		Version:       checkpointVersion,
		StressSeconds: t.stressSeconds,
		HealSeconds:   t.healSeconds,
		Ops:           t.ops,
	}
	if m := t.lastMeasure; m != nil {
		h.Readings |= 1
		h.DelayNS, h.DegradationPct = m.delayNS, m.degradationPct
	}
	if o := t.lastOdometer; o != nil {
		h.Readings |= 2
		h.BeatHz, h.DegradationPPM = o.beatHz, o.degradationPPM
	}
	var die []byte
	var err error
	switch kind {
	case KindBench:
		die, err = st.bench.MarshalBinary()
	case KindMonitored:
		die, err = st.mon.MarshalBinary()
	default:
		err = fmt.Errorf("fleet: checkpoint of unknown chip kind %q", kind)
	}
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	buf.Grow(binary.Size(h) + len(die))
	binary.Write(&buf, binary.LittleEndian, &h) // a bytes.Buffer write cannot fail
	buf.Write(die)
	return buf.Bytes(), nil
}

// decode sets st from a checkpoint of a chip of the given kind. The
// bytes come from disk, so it refuses malformed input — an unknown
// version, undefined reading bits, a reading's fields without its bit,
// a malformed die state — with an error.
func (st *chipState) decode(kind string, data []byte) error {
	var h checkpointHead
	n := binary.Size(h)
	if len(data) < n {
		return fmt.Errorf("fleet: checkpoint of %d bytes is shorter than its %d-byte head", len(data), n)
	}
	if err := binary.Read(bytes.NewReader(data[:n]), binary.LittleEndian, &h); err != nil {
		return fmt.Errorf("fleet: checkpoint head: %w", err)
	}
	nonzero := func(a, b float64) bool { return math.Float64bits(a)|math.Float64bits(b) != 0 }
	switch {
	case h.Version != checkpointVersion:
		return fmt.Errorf("fleet: checkpoint version %d, want %d", h.Version, checkpointVersion)
	case h.Readings > 3:
		return fmt.Errorf("fleet: checkpoint reading flags %#x have undefined bits", h.Readings)
	case h.Readings&1 == 0 && nonzero(h.DelayNS, h.DegradationPct),
		h.Readings&2 == 0 && nonzero(h.BeatHz, h.DegradationPPM):
		return fmt.Errorf("fleet: checkpoint holds a reading its flags %#x do not mark", h.Readings)
	}
	var err error
	switch kind {
	case KindBench:
		err = st.bench.UnmarshalBinary(data[n:])
	case KindMonitored:
		err = st.mon.UnmarshalBinary(data[n:])
	default:
		err = fmt.Errorf("fleet: checkpoint of unknown chip kind %q", kind)
	}
	if err != nil {
		return err
	}
	st.tally = tally{stressSeconds: h.StressSeconds, healSeconds: h.HealSeconds, ops: h.Ops}
	if h.Readings&1 != 0 {
		st.tally.lastMeasure = &measureReading{delayNS: h.DelayNS, degradationPct: h.DegradationPct}
	}
	if h.Readings&2 != 0 {
		st.tally.lastOdometer = &odometerReading{beatHz: h.BeatHz, degradationPPM: h.DegradationPPM}
	}
	return nil
}
