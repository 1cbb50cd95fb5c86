// Package ro implements the paper's delay sensor (Fig. 3): a ring
// oscillator of 75 LUT inverters — the circuit under test (CUT) — whose
// output clocks a 16-bit counter gated by an external reference clock.
// The counter value Cout relates to the oscillation frequency by
//
//	fosc = 2·Cout·fref                    (Eq. 14)
//	Td   = 1/(2·fosc) = 1/(4·Cout·fref)   (Eq. 15)
//
// where Td is the one-pass CUT delay. An En signal switches the CUT
// between AC stress (oscillating) and DC stress (frozen); during data
// recording in DC test cases the RO wakes for under three seconds,
// a negligible aging contribution the experiment harness still models.
//
// The counter read-out carries the paper's reported noise: repeated
// readings vary within ±5 counts at fref = 500 Hz, everything else held
// constant.
package ro

import (
	"errors"
	"fmt"

	"selfheal/internal/fpga"
	"selfheal/internal/lut"
	"selfheal/internal/rng"
	"selfheal/internal/units"
)

// Params configures a ring-oscillator sensor.
type Params struct {
	Stages      int         // number of LUT inverters (75 in the paper)
	CounterBits int         // counter width (16 in the paper)
	FRef        units.Hertz // reference clock (500 Hz in the paper)
	NoiseCounts int         // peak read-out noise in counts (±5)
	SampleTime  units.Seconds
}

// DefaultParams matches the paper's test configuration.
func DefaultParams() Params {
	return Params{
		Stages:      75,
		CounterBits: 16,
		FRef:        500,
		NoiseCounts: 5,
		SampleTime:  3, // "data sampling overhead is less than 3 s"
	}
}

// Validate reports whether the sensor parameters are usable. The stage
// count must be odd: an even inverter ring latches instead of
// oscillating.
func (p Params) Validate() error {
	switch {
	case p.Stages <= 0:
		return errors.New("ro: stage count must be positive")
	case p.Stages%2 == 0:
		return errors.New("ro: stage count must be odd to oscillate")
	case p.CounterBits <= 0 || p.CounterBits > 32:
		return errors.New("ro: counter width must be in 1..32")
	case p.FRef <= 0:
		return errors.New("ro: reference clock must be positive")
	case p.NoiseCounts < 0:
		return errors.New("ro: noise must be non-negative")
	case p.SampleTime < 0:
		return errors.New("ro: sample time must be non-negative")
	}
	return nil
}

// Oscillator is one mapped RO sensor on a chip.
type Oscillator struct {
	params  Params
	mapping *fpga.Mapping
	src     *rng.Source
	enabled bool // En: true = oscillating (AC), false = frozen (DC)
	frozen  bool // the chain input value while frozen
}

// Measurement is one counter read-out converted per Eqs. 14–15.
type Measurement struct {
	Counts  int         // raw gated counter value Cout
	Fosc    units.Hertz // 2·Cout·fref
	DelayNS float64     // 1/(2·fosc) in nanoseconds
}

// New maps a Stages-long inverter chain named name onto the chip and
// returns the sensor. The RO powers up enabled (oscillating).
func New(chip *fpga.Chip, name string, p Params, src *rng.Source) (*Oscillator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	m, err := chip.MapInverterChain(name, p.Stages)
	if err != nil {
		return nil, fmt.Errorf("ro: mapping CUT: %w", err)
	}
	return &Oscillator{params: p, mapping: m, src: src, enabled: true}, nil
}

// Params returns the sensor configuration.
func (o *Oscillator) Params() Params { return o.params }

// Mapping returns the underlying placed design.
func (o *Oscillator) Mapping() *fpga.Mapping { return o.mapping }

// Enable drives En high: the CUT oscillates (AC stress mode, and the
// mode required for measurement).
func (o *Oscillator) Enable() { o.enabled = true }

// Freeze drives En low with the chain input held at in0: DC stress mode.
func (o *Oscillator) Freeze(in0 bool) {
	o.enabled = false
	o.frozen = in0
}

// Enabled reports whether the CUT is oscillating.
func (o *Oscillator) Enabled() bool { return o.enabled }

// FrozenInput returns the chain input value while frozen.
func (o *Oscillator) FrozenInput() bool { return o.frozen }

// State is an oscillator's mutable state: its noise stream and its
// En mode.
type State struct {
	Src     uint64 // the read-out noise generator's state
	Enabled bool
	Frozen  bool
}

// State returns the oscillator's mutable state.
func (o *Oscillator) State() State {
	return State{Src: o.src.State(), Enabled: o.enabled, Frozen: o.frozen}
}

// Restore sets the oscillator's mutable state.
func (o *Oscillator) Restore(s State) {
	o.src.SetState(s.Src)
	o.enabled, o.frozen = s.Enabled, s.Frozen
}

// StagePhases returns the activity pattern of stage i in the current
// mode, for the stress engine.
func (o *Oscillator) StagePhases(i int) []lut.Phase {
	return o.mapping.StagePhases(i, o.enabled, o.frozen)
}

// TrueFrequency returns the noiseless oscillation frequency at supply
// vdd — the quantity the counter estimates. It requires the RO to be
// enabled.
func (o *Oscillator) TrueFrequency(vdd units.Volt) (units.Hertz, error) {
	if !o.enabled {
		return 0, errors.New("ro: cannot measure a frozen oscillator; Enable it first")
	}
	dNS, err := o.mapping.MeasuredDelay(vdd)
	if err != nil {
		return 0, fmt.Errorf("ro: %w", err)
	}
	// One pass of the chain is half the oscillation period.
	return units.Hertz(1 / (2 * dNS * 1e-9)), nil
}

// maxCount returns the counter's largest representable value.
func (o *Oscillator) maxCount() int { return 1<<o.params.CounterBits - 1 }

// Count gates the counter for one reference period and returns the raw
// Cout including read-out noise. It returns an error if the true count
// would overflow the counter — a mis-sized sensor the diagnostic
// program screens for.
func (o *Oscillator) Count(vdd units.Volt) (int, error) {
	f, err := o.TrueFrequency(vdd)
	if err != nil {
		return 0, err
	}
	return o.count(f)
}

// count is Count at true frequency f: the gated count plus one draw
// of read-out noise.
func (o *Oscillator) count(f units.Hertz) (int, error) {
	ideal := float64(f) / (2 * float64(o.params.FRef)) // Eq. 14 solved for Cout
	if int(ideal) > o.maxCount() {
		return 0, fmt.Errorf("ro: count %.0f overflows %d-bit counter", ideal, o.params.CounterBits)
	}
	n := o.params.NoiseCounts
	noisy := int(ideal) + o.src.Intn(2*n+1) - n
	if noisy < 0 {
		noisy = 0
	}
	if noisy > o.maxCount() {
		noisy = o.maxCount()
	}
	return noisy, nil
}

// Measure reads the counter once and converts to frequency and delay
// per Eqs. 14–15.
func (o *Oscillator) Measure(vdd units.Volt) (Measurement, error) {
	c, err := o.Count(vdd)
	if err != nil {
		return Measurement{}, err
	}
	if c == 0 {
		return Measurement{}, errors.New("ro: zero count; oscillator dead or reference too fast")
	}
	fosc := units.Hertz(2 * float64(c) * float64(o.params.FRef))
	return Measurement{
		Counts:  c,
		Fosc:    fosc,
		DelayNS: 1 / (2 * float64(fosc)) * 1e9,
	}, nil
}

// MeasureAveraged takes n counter readings and returns the measurement
// derived from their mean count, reducing read-out noise by √n — the
// paper's "output of the counter is read from a certain time range that
// has stable values".
func (o *Oscillator) MeasureAveraged(vdd units.Volt, n int) (Measurement, error) {
	if n <= 0 {
		return Measurement{}, errors.New("ro: averaging needs n >= 1")
	}
	// Nothing ages between the reads: evaluate the chain once and draw
	// each read's noise around it.
	f, err := o.TrueFrequency(vdd)
	if err != nil {
		return Measurement{}, err
	}
	sum := 0
	for i := 0; i < n; i++ {
		c, err := o.count(f)
		if err != nil {
			return Measurement{}, err
		}
		sum += c
	}
	mean := float64(sum) / float64(n)
	if mean == 0 {
		return Measurement{}, errors.New("ro: zero mean count")
	}
	fosc := units.Hertz(2 * mean * float64(o.params.FRef))
	return Measurement{
		Counts:  int(mean + 0.5),
		Fosc:    fosc,
		DelayNS: 1 / (2 * float64(fosc)) * 1e9,
	}, nil
}

// DegradationPct returns the frequency degradation of m relative to the
// fresh measurement, in percent: (f0 − f)/f0 · 100.
func DegradationPct(fresh, m Measurement) float64 {
	return (float64(fresh.Fosc) - float64(m.Fosc)) / float64(fresh.Fosc) * 100
}
