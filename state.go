package selfheal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

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
	out = appendF64(out, float64(s.psu.V))
	out = appendF64(out, float64(s.chamber.Setpoint))
	out = appendF64(out, float64(s.chamber.Current))
	return binary.LittleEndian.AppendUint64(out, s.chamber.Src), nil
}

// UnmarshalBinary decodes a state MarshalBinary encoded. It refuses
// malformed input — an unknown version or kind, a length that does
// not fit, a class index past the class count, a class size that does
// not count its members, trailing bytes — with an error.
func (s *ChipState) UnmarshalBinary(data []byte) error {
	r := reader{b: data}
	r.header(kindBench)
	r.fabric(&s.fabric)
	r.engine(&s.engine)
	s.ro = r.ro()
	s.psu = supply.PSUState{Rail: supply.Rail(r.u8()), V: units.Volt(r.f64())}
	s.chamber = thermal.ChamberState{
		Setpoint: units.Celsius(r.f64()), Current: units.Celsius(r.f64()), Src: r.u64(),
	}
	return r.done()
}

// MarshalBinary encodes the state.
func (s *MonitoredChipState) MarshalBinary() ([]byte, error) {
	out := appendHeader(nil, kindMonitored)
	out = appendFabric(out, &s.fabric)
	out = appendEngine(out, &s.engine)
	out = binary.LittleEndian.AppendUint64(out, s.sensor.Src)
	out = appendRO(out, s.sensor.Stressed)
	return appendRO(out, s.sensor.Reference), nil
}

// UnmarshalBinary decodes a state MarshalBinary encoded, refusing
// malformed input as ChipState.UnmarshalBinary does.
func (s *MonitoredChipState) UnmarshalBinary(data []byte) error {
	r := reader{b: data}
	r.header(kindMonitored)
	r.fabric(&s.fabric)
	r.engine(&s.engine)
	s.sensor = odometer.State{Src: r.u64(), Stressed: r.ro(), Reference: r.ro()}
	return r.done()
}

func appendHeader(b []byte, kind byte) []byte { return append(b, stateVersion, kind) }

func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

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
	le := binary.LittleEndian
	b = le.AppendUint32(b, uint32(len(f.Class)))
	b = le.AppendUint32(b, uint32(len(f.States)))
	switch indexWidth(len(f.States)) {
	case 1:
		for _, c := range f.Class {
			b = append(b, byte(c))
		}
	case 2:
		for _, c := range f.Class {
			b = le.AppendUint16(b, uint16(c))
		}
	default:
		for _, c := range f.Class {
			b = le.AppendUint32(b, c)
		}
	}
	for _, n := range f.Size {
		b = le.AppendUint32(b, uint32(n))
	}
	for i := range f.States {
		for _, w := range f.States[i].Words() {
			b = le.AppendUint64(b, w)
		}
	}
	return b
}

func appendEngine(b []byte, e *stress.EngineState) []byte {
	b = appendF64(b, float64(e.Elapsed))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(e.Modes)))
	for _, m := range e.Modes {
		b = append(b, flags(m.AC, m.FrozenIn0))
	}
	return b
}

func appendRO(b []byte, s ro.State) []byte {
	b = binary.LittleEndian.AppendUint64(b, s.Src)
	return append(b, flags(s.Enabled, s.Frozen))
}

func flags(bit0, bit1 bool) byte {
	var f byte
	if bit0 {
		f |= 1
	}
	if bit1 {
		f |= 2
	}
	return f
}

// reader decodes the byte encoding. The first error sticks: later
// reads return zeros, and done reports it.
type reader struct {
	b   []byte
	err error
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("selfheal: chip state: "+format, args...)
	}
}

// take returns the next n bytes, or nil once the input has run out.
func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.b) {
		r.fail("truncated: want %d more bytes, have %d", n, len(r.b))
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *reader) u8() byte {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (r *reader) u32() uint32 {
	if b := r.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (r *reader) u64() uint64 {
	if b := r.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }

// count reads a u32 length whose items take at least size bytes each,
// refusing one the remaining input cannot hold before anything is
// allocated for it.
func (r *reader) count(what string, size int) int {
	n := int(r.u32())
	if r.err == nil && n > len(r.b)/size {
		r.fail("%d %s do not fit in %d bytes", n, what, len(r.b))
		return 0
	}
	return n
}

// flags reads a mode byte with two defined bits.
func (r *reader) flags() (bit0, bit1 bool) {
	f := r.u8()
	if f > 3 {
		r.fail("mode byte %#x has undefined bits", f)
	}
	return f&1 != 0, f&2 != 0
}

func (r *reader) header(kind byte) {
	if v := r.u8(); r.err == nil && v != stateVersion {
		r.fail("unknown version %d (want %d)", v, stateVersion)
	}
	if k := r.u8(); r.err == nil && k != kind {
		r.fail("kind %d, want %d", k, kind)
	}
}

func (r *reader) fabric(f *device.FabricState) {
	n := r.count("transistors", 1)
	k := int(r.u32())
	if r.err != nil {
		return
	}
	w := indexWidth(k)
	idx := r.take(n * w)
	if r.err == nil && k > len(r.b)/(4+8*td.StateWords) {
		r.fail("%d classes do not fit in %d bytes", k, len(r.b))
	}
	if r.err != nil {
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
		f.Size = append(f.Size, int32(r.u32()))
	}
	f.States = f.States[:0]
	for c := 0; c < k; c++ {
		var words [td.StateWords]uint64
		for i := range words {
			words[i] = r.u64()
		}
		var st td.State
		if err := st.SetWords(words); err != nil && r.err == nil {
			r.fail("class %d: %v", c, err)
		}
		f.States = append(f.States, st)
	}
	if r.err == nil {
		if err := f.Check(n); err != nil {
			r.fail("%v", err)
		}
	}
}

func (r *reader) engine(e *stress.EngineState) {
	e.Elapsed = units.Seconds(r.f64())
	n := r.count("activity modes", 1)
	e.Modes = e.Modes[:0]
	for i := 0; i < n; i++ {
		ac, frozen := r.flags()
		e.Modes = append(e.Modes, stress.Mode{AC: ac, FrozenIn0: frozen})
	}
}

func (r *reader) ro() ro.State {
	src := r.u64()
	enabled, frozen := r.flags()
	return ro.State{Src: src, Enabled: enabled, Frozen: frozen}
}

// done reports the first error, or trailing bytes.
func (r *reader) done() error {
	if r.err == nil && len(r.b) > 0 {
		r.fail("%d trailing bytes", len(r.b))
	}
	return r.err
}
