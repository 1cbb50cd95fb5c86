// Package odometer implements a Silicon-Odometer-style aging sensor
// (Kim et al., JSSC 2008 — the paper's ref. [7]): a *pair* of ring
// oscillators on the same die, one exposed to the workload's stress and
// one preserved on a gated power island, read out differentially.
//
// The differential (beat-frequency) measurement cancels voltage and
// temperature drift common to both oscillators and resolves frequency
// degradation at the part-per-million level — two to three orders finer
// than the paper's single-RO counter (whose ±5-count noise floor is
// ≈0.1 %). The paper's Section 1 cites exactly this sensor class as the
// "track and monitor" alternative its proactive approach improves on;
// reproducing it lets the scheduler experiments use realistic
// monitoring error.
package odometer

import (
	"errors"
	"fmt"
	"math"

	"selfheal/internal/fpga"
	"selfheal/internal/rng"
	"selfheal/internal/ro"
	"selfheal/internal/stress"
	"selfheal/internal/units"
)

// Params configures the sensor pair.
type Params struct {
	RO ro.Params
	// NoisePPM is the 1σ read-out noise of the differential
	// measurement in parts per million.
	NoisePPM float64
}

// DefaultParams matches a beat-frequency odometer built from the
// paper's 75-stage oscillators with ±2 ppm differential resolution.
func DefaultParams() Params {
	return Params{
		RO:       ro.DefaultParams(),
		NoisePPM: 2,
	}
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if err := p.RO.Validate(); err != nil {
		return err
	}
	if p.NoisePPM < 0 {
		return errors.New("odometer: noise must be non-negative")
	}
	return nil
}

// Sensor is one odometer: a stressed oscillator and a protected
// reference on the same die.
type Sensor struct {
	params    Params
	stressed  *ro.Oscillator
	reference *ro.Oscillator
	src       *rng.Source
	// zeroPPM is the fresh differential offset from within-die process
	// variation, calibrated once at construction and subtracted from
	// every reading (the odometer's "trip reset").
	zeroPPM float64
}

// New maps the oscillator pair onto the chip and registers them with
// the engine: the stressed RO as a switching activity, the reference on
// a protected power island.
func New(chip *fpga.Chip, eng *stress.Engine, name string, p Params, src *rng.Source) (*Sensor, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if eng == nil || eng.Chip() != chip {
		return nil, errors.New("odometer: engine must drive the sensor's chip")
	}
	stressedRO, err := ro.New(chip, name+".stressed", p.RO, src.Split())
	if err != nil {
		return nil, fmt.Errorf("odometer: %w", err)
	}
	referenceRO, err := ro.New(chip, name+".reference", p.RO, src.Split())
	if err != nil {
		return nil, fmt.Errorf("odometer: %w", err)
	}
	if err := eng.AddActivity(stress.Activity{Mapping: stressedRO.Mapping(), AC: true}); err != nil {
		return nil, err
	}
	if err := eng.Protect(referenceRO.Mapping()); err != nil {
		return nil, err
	}
	s := &Sensor{
		params:    p,
		stressed:  stressedRO,
		reference: referenceRO,
		src:       src,
	}
	// Calibrate out the fresh process-variation offset between the two
	// oscillators (noise-free: calibration averages long enough).
	fs, err := stressedRO.TrueFrequency(chip.Params().NominalVdd)
	if err != nil {
		return nil, fmt.Errorf("odometer: calibration: %w", err)
	}
	fr, err := referenceRO.TrueFrequency(chip.Params().NominalVdd)
	if err != nil {
		return nil, fmt.Errorf("odometer: calibration: %w", err)
	}
	s.zeroPPM = (float64(fr) - float64(fs)) / float64(fr) * 1e6
	return s, nil
}

// State is a sensor's mutable state: its noise stream and its two
// oscillators'.
type State struct {
	Src       uint64 // the differential read-out noise generator's state
	Stressed  ro.State
	Reference ro.State
}

// State returns the sensor's mutable state.
func (s *Sensor) State() State {
	return State{Src: s.src.State(), Stressed: s.stressed.State(), Reference: s.reference.State()}
}

// Restore sets the sensor's mutable state.
func (s *Sensor) Restore(st State) {
	s.src.SetState(st.Src)
	s.stressed.Restore(st.Stressed)
	s.reference.Restore(st.Reference)
}

// Stressed returns the exposed oscillator (for engine mode changes).
func (s *Sensor) Stressed() *ro.Oscillator { return s.stressed }

// Reference returns the protected oscillator.
func (s *Sensor) Reference() *ro.Oscillator { return s.reference }

// Reading is one differential measurement.
type Reading struct {
	// BeatHz is the beat frequency |f_ref − f_stressed|.
	BeatHz float64
	// DegradationPPM is the differential frequency degradation
	// (f_ref − f_stressed)/f_ref in parts per million, including the
	// sensor's ppm-level read-out noise.
	DegradationPPM float64
}

// Measure wakes both oscillators at the given supply and reads the
// pair differentially. Both oscillators see the same rail and
// temperature, so the common-mode terms cancel; only BTI asymmetry and
// the ppm noise floor remain.
func (s *Sensor) Measure(vdd units.Volt) (Reading, error) {
	wasEnabled := s.stressed.Enabled()
	frozen := s.stressed.FrozenInput()
	s.stressed.Enable()
	defer func() {
		if !wasEnabled {
			s.stressed.Freeze(frozen)
		}
	}()
	fs, err := s.stressed.TrueFrequency(vdd)
	if err != nil {
		return Reading{}, fmt.Errorf("odometer: stressed RO: %w", err)
	}
	fr, err := s.reference.TrueFrequency(vdd)
	if err != nil {
		return Reading{}, fmt.Errorf("odometer: reference RO: %w", err)
	}
	ppm := (float64(fr)-float64(fs))/float64(fr)*1e6 - s.zeroPPM +
		s.src.NormalWith(0, s.params.NoisePPM)
	return Reading{
		BeatHz:         math.Abs(float64(fr) - float64(fs)),
		DegradationPPM: ppm,
	}, nil
}
