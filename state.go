package selfheal

import (
	"encoding/binary"
	"errors"
	"fmt"

	"selfheal/internal/codec"
	"selfheal/internal/device"
	"selfheal/internal/odometer"
	"selfheal/internal/ro"
	"selfheal/internal/stress"
	"selfheal/internal/supply"
	"selfheal/internal/td"
	"selfheal/internal/thermal"
	"selfheal/internal/units"
)

// ChipState is everything a bench Chip's history changes: its die's
// class table (one aging state per duty-history class and each
// transistor's class), the aging engine's clock and modes, the ring
// oscillator's noise stream and mode, and the supply and chamber's
// state. A chip fabricated from the same id and seed and restored to
// a saved state continues exactly as the chip it was saved from, bit
// for bit; per-transistor process variation is not part of the state,
// since fabrication re-derives it.
//
// SaveState and RestoreState copy the state out of and into a chip.
// MarshalBinary and UnmarshalBinary give its versioned byte encoding,
// exact to the float64 bit.
type ChipState struct {
	fabric  device.FabricState
	engine  stress.EngineState
	ro      ro.State
	psu     supply.PSUState
	chamber thermal.ChamberState
}

// SaveState copies the chip's state into dst, reusing dst's buffers.
func (c *Chip) SaveState(dst *ChipState) {
	b := c.bench
	b.Chip.Fabric().SaveState(&dst.fabric)
	b.Engine.SaveState(&dst.engine)
	dst.ro, dst.psu, dst.chamber = b.RO.State(), b.PSU.State(), b.Chamber.State()
}

// RestoreState sets the chip's state to src. A state saved from a chip
// of the same id and seed always restores; one that does not fit the
// chip is refused with an error, possibly part-applied, so discard the
// chip then.
func (c *Chip) RestoreState(src *ChipState) error {
	b := c.bench
	b.RO.Restore(src.ro)
	if err := errors.Join(
		b.Chip.Fabric().RestoreState(&src.fabric),
		b.Engine.RestoreState(&src.engine),
		b.PSU.Restore(src.psu),
		b.Chamber.Restore(src.chamber),
	); err != nil {
		return fmt.Errorf("selfheal: %w", err)
	}
	return nil
}

// MonitoredChipState is everything a MonitoredChip's history changes:
// its die's class table, the aging engine's clock and modes, and the
// odometer's noise streams and oscillator modes. See ChipState.
type MonitoredChipState struct {
	fabric device.FabricState
	engine stress.EngineState
	sensor odometer.State
}

// SaveState copies the chip's state into dst, reusing dst's buffers.
func (m *MonitoredChip) SaveState(dst *MonitoredChipState) {
	m.chip.Fabric().SaveState(&dst.fabric)
	m.engine.SaveState(&dst.engine)
	dst.sensor = m.sensor.State()
}

// RestoreState sets the chip's state to src; see Chip.RestoreState.
func (m *MonitoredChip) RestoreState(src *MonitoredChipState) error {
	if err := errors.Join(
		m.chip.Fabric().RestoreState(&src.fabric),
		m.engine.RestoreState(&src.engine),
	); err != nil {
		return fmt.Errorf("selfheal: %w", err)
	}
	m.sensor.Restore(src.sensor)
	return nil
}

// The byte encoding, little-endian throughout:
//
//	version u8 (stateVersion), kind u8 (kindBench or kindMonitored)
//	fabric  transistors u32, classes u32, one class index per
//	        transistor in the narrowest of 1, 2 or 4 bytes that holds
//	        the class count, one size u32 per class, one td.State per
//	        class as td.StateWords u64 words
//	engine  elapsed f64, modes u32, one mode u8 per activity
//	        (bit 0 AC, bit 1 FrozenIn0)
//	bench   RO src u64 and mode u8 (bit 0 enabled, bit 1 frozen);
//	        PSU rail u8 and volts f64; chamber setpoint f64, plate
//	        f64 and src u64
//	monitored  sensor src u64, then the stressed and reference ROs
//	        as in bench
const (
	stateVersion  = 1
	kindBench     = 1
	kindMonitored = 2
)

// MarshalBinary encodes the state.
func (s *ChipState) MarshalBinary() ([]byte, error) {
	out := appendHeader(nil, kindBench)
	out = appendFabric(out, &s.fabric)
	out = appendEngine(out, &s.engine)
	out = appendRO(out, s.ro)
	out = append(out, byte(s.psu.Rail))
	out = codec.AppendF64(out, float64(s.psu.V))
	out = codec.AppendF64(out, float64(s.chamber.Setpoint))
	out = codec.AppendF64(out, float64(s.chamber.Current))
	return codec.AppendU64(out, s.chamber.Src), nil
}

// UnmarshalBinary decodes a state MarshalBinary encoded. It refuses
// malformed input — an unknown version or kind, a length that does
// not fit, a class index past the class count, a class size that does
// not count its members, trailing bytes — with an error.
func (s *ChipState) UnmarshalBinary(data []byte) error {
	r := newReader(data)
	r.header(kindBench)
	r.fabric(&s.fabric)
	r.engine(&s.engine)
	s.ro = r.ro()
	s.psu = supply.PSUState{Rail: supply.Rail(r.U8()), V: units.Volt(r.F64())}
	s.chamber = thermal.ChamberState{
		Setpoint: units.Celsius(r.F64()), Current: units.Celsius(r.F64()), Src: r.U64(),
	}
	return r.Done()
}

// MarshalBinary encodes the state.
func (s *MonitoredChipState) MarshalBinary() ([]byte, error) {
	out := appendHeader(nil, kindMonitored)
	out = appendFabric(out, &s.fabric)
	out = appendEngine(out, &s.engine)
	out = codec.AppendU64(out, s.sensor.Src)
	out = appendRO(out, s.sensor.Stressed)
	return appendRO(out, s.sensor.Reference), nil
}

// UnmarshalBinary decodes a state MarshalBinary encoded, refusing
// malformed input as ChipState.UnmarshalBinary does.
func (s *MonitoredChipState) UnmarshalBinary(data []byte) error {
	r := newReader(data)
	r.header(kindMonitored)
	r.fabric(&s.fabric)
	r.engine(&s.engine)
	s.sensor = odometer.State{Src: r.U64(), Stressed: r.ro(), Reference: r.ro()}
	return r.Done()
}

func appendHeader(b []byte, kind byte) []byte { return append(b, stateVersion, kind) }

// indexWidth is the byte width of a class index for k classes.
func indexWidth(k int) int {
	switch {
	case k <= 1<<8:
		return 1
	case k <= 1<<16:
		return 2
	}
	return 4
}

func appendFabric(b []byte, f *device.FabricState) []byte {
	b = codec.AppendU32(b, uint32(len(f.Class)))
	b = codec.AppendU32(b, uint32(len(f.States)))
	switch indexWidth(len(f.States)) {
	case 1:
		for _, c := range f.Class {
			b = append(b, byte(c))
		}
	case 2:
		for _, c := range f.Class {
			b = binary.LittleEndian.AppendUint16(b, uint16(c))
		}
	default:
		for _, c := range f.Class {
			b = codec.AppendU32(b, c)
		}
	}
	for _, n := range f.Size {
		b = codec.AppendU32(b, uint32(n))
	}
	for i := range f.States {
		for _, w := range f.States[i].Words() {
			b = codec.AppendU64(b, w)
		}
	}
	return b
}

func appendEngine(b []byte, e *stress.EngineState) []byte {
	b = codec.AppendF64(b, float64(e.Elapsed))
	b = codec.AppendU32(b, uint32(len(e.Modes)))
	for _, m := range e.Modes {
		b = append(b, codec.Flags(m.AC, m.FrozenIn0))
	}
	return b
}

func appendRO(b []byte, s ro.State) []byte {
	b = codec.AppendU64(b, s.Src)
	return append(b, codec.Flags(s.Enabled, s.Frozen))
}

// reader decodes the byte encoding: the shared reader, plus the
// state's own parts.
type reader struct{ *codec.Reader }

func newReader(data []byte) reader { return reader{codec.NewReader(data, "selfheal: chip state")} }

func (r *reader) header(kind byte) {
	if v := r.U8(); r.Err() == nil && v != stateVersion {
		r.Fail("unknown version %d (want %d)", v, stateVersion)
	}
	if k := r.U8(); r.Err() == nil && k != kind {
		r.Fail("kind %d, want %d", k, kind)
	}
}

func (r *reader) fabric(f *device.FabricState) {
	n := r.Count("transistors", 1)
	k := int(r.U32())
	if r.Err() != nil {
		return
	}
	w := indexWidth(k)
	idx := r.Take(n * w)
	if r.Err() == nil && k > r.Len()/(4+8*td.StateWords) {
		r.Fail("%d classes do not fit in %d bytes", k, r.Len())
	}
	if r.Err() != nil {
		return
	}
	f.Class = f.Class[:0]
	for i := 0; i < n; i++ {
		switch w {
		case 1:
			f.Class = append(f.Class, uint32(idx[i]))
		case 2:
			f.Class = append(f.Class, uint32(binary.LittleEndian.Uint16(idx[2*i:])))
		default:
			f.Class = append(f.Class, binary.LittleEndian.Uint32(idx[4*i:]))
		}
	}
	f.Size = f.Size[:0]
	for c := 0; c < k; c++ {
		f.Size = append(f.Size, int32(r.U32()))
	}
	f.States = f.States[:0]
	for c := 0; c < k; c++ {
		var words [td.StateWords]uint64
		for i := range words {
			words[i] = r.U64()
		}
		var st td.State
		if err := st.SetWords(words); err != nil && r.Err() == nil {
			r.Fail("class %d: %v", c, err)
		}
		f.States = append(f.States, st)
	}
	if r.Err() == nil {
		if err := f.Check(n); err != nil {
			r.Fail("%v", err)
		}
	}
}

func (r *reader) engine(e *stress.EngineState) {
	e.Elapsed = units.Seconds(r.F64())
	n := r.Count("activity modes", 1)
	e.Modes = e.Modes[:0]
	for i := 0; i < n; i++ {
		ac, frozen := r.Flags()
		e.Modes = append(e.Modes, stress.Mode{AC: ac, FrozenIn0: frozen})
	}
}

func (r *reader) ro() ro.State {
	src := r.U64()
	enabled, frozen := r.Flags()
	return ro.State{Src: src, Enabled: enabled, Frozen: frozen}
}
