// Package selfheal is a Go reproduction of "Modeling and Experimental
// Demonstration of Accelerated Self-Healing Techniques" (Guo, Burleson,
// Stan — DAC 2014): BTI wearout and *accelerated recovery* modeling for
// electronic systems, demonstrated on a simulated 40 nm LUT-based FPGA
// with ring-oscillator delay sensors.
//
// The paper's thesis: sleep should be an *active recovery period*, not
// idleness. By controlling the active:sleep ratio α and the sleep
// conditions — a negative supply rail (−0.3 V) and elevated temperature
// (110 °C) — stressed chips return to within 90 % of their original
// delay margin while rejuvenating for only a quarter of the stress
// time.
//
// The public API covers five layers:
//
//   - Chips: Chip (the paper's bench: stress / rejuvenate / measure),
//     MonitoredChip (with a ppm-resolution differential aging sensor),
//     PUFChip (an enrolled RO-PUF whose bits drift and heal), and
//     Logic (real circuits technology-mapped onto the fabric, with
//     BTI-aware static timing).
//   - Model: the closed-form TD wearout/recovery device model
//     (Device, StressShiftV, RecoveredFraction) and the stochastic
//     trap ensemble it is validated against (TrapEnsemble).
//   - Schedules: the proactive/reactive rejuvenation policies of
//     Section 2.2 (CompareSchedules) and the Section 7 schedule-aware
//     adaptive clock (SimulateAdaptiveClock).
//   - Systems: the eight-core circadian scheduling exploration of
//     Section 6.2 (RunMulticore) and the cache-SRAM maintenance study
//     (RunCacheSRAM).
//   - Paper: regenerate every table and figure of the evaluation
//     (ReproducePaper), the extension studies (ReproduceExtensions)
//     and the raw measurement CSVs (ExportMeasurements).
//
// Everything is deterministic given a seed and runs on the standard
// library alone.
package selfheal

import (
	"errors"
	"fmt"
	"math"

	"selfheal/internal/measure"
	"selfheal/internal/rng"
	"selfheal/internal/units"
)

// checkFinite rejects NaN and ±Inf with a descriptive error so callers
// (and the HTTP layer in internal/serve) can surface exactly which
// parameter was malformed instead of silently propagating NaNs through
// the physics.
func checkFinite(name string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("selfheal: %s must be finite, got %v", name, v)
	}
	return nil
}

// checkPhaseArgs validates the duration and sampling arguments shared
// by Chip.Stress and Chip.Rejuvenate.
func checkPhaseArgs(phase string, hours, sampleHours float64) error {
	if err := checkFinite(phase+" duration (hours)", hours); err != nil {
		return err
	}
	if hours <= 0 {
		return fmt.Errorf("selfheal: %s duration must be positive, got %v h", phase, hours)
	}
	if err := checkFinite(phase+" sampling period (hours)", sampleHours); err != nil {
		return err
	}
	if sampleHours < 0 {
		return fmt.Errorf("selfheal: %s sampling period must be ≥ 0, got %v h", phase, sampleHours)
	}
	return nil
}

// StressCondition describes an operating (wearout) phase.
type StressCondition struct {
	TempC float64 // die temperature, °C
	Vdd   float64 // supply, volts (> 0)
	// AC reports whether the workload toggles the logic (oscillating
	// CUT); false freezes it — the paper's DC stress, the worst case.
	AC bool
}

// NominalOperation is ordinary hot operation at the nominal 1.2 V rail.
func NominalOperation() StressCondition {
	return StressCondition{TempC: 85, Vdd: 1.2, AC: true}
}

// AcceleratedStress is the paper's accelerated wearout condition:
// 110 °C at 1.2 V with the CUT frozen (DC).
func AcceleratedStress() StressCondition {
	return StressCondition{TempC: 110, Vdd: 1.2, AC: false}
}

// SleepCondition describes a sleep (recovery) phase.
type SleepCondition struct {
	TempC float64 // chamber/die temperature, °C
	Vdd   float64 // rail: 0 = gated, negative = accelerated (e.g. −0.3)
}

// PassiveSleep is conventional power gating at room temperature — the
// slow, incomplete recovery the paper argues is not enough.
func PassiveSleep() SleepCondition { return SleepCondition{TempC: 20, Vdd: 0} }

// NegativeVoltageSleep applies the −0.3 V rail at room temperature.
func NegativeVoltageSleep() SleepCondition { return SleepCondition{TempC: 20, Vdd: -0.3} }

// HotSleep gates the rail at 110 °C.
func HotSleep() SleepCondition { return SleepCondition{TempC: 110, Vdd: 0} }

// AcceleratedSleep combines both knobs — the paper's headline
// condition (110 °C, −0.3 V, 72.4 % margin relaxed).
func AcceleratedSleep() SleepCondition { return SleepCondition{TempC: 110, Vdd: -0.3} }

// Reading is one ring-oscillator measurement (Eqs. 14–15 of the
// paper): the gated 16-bit counter value, the oscillation frequency
// and the circuit-under-test delay, plus the degradation relative to
// the chip's fresh state.
type Reading struct {
	Counts         int
	FrequencyHz    float64
	DelayNS        float64
	DegradationPct float64
}

// TracePoint is one sample of a phase trace.
type TracePoint struct {
	Hours   float64
	DelayNS float64
}

// Chip is a simulated 40 nm LUT-based FPGA carrying the paper's
// 75-stage ring-oscillator sensor. Every pass transistor keeps its own
// process variation and the aging state of its duty-history class:
// transistors stepped alike share one state, bit for bit what tracking
// each individually gives.
type Chip struct {
	bench   *measure.Bench
	freshNS float64
}

// NewChip fabricates a chip. The seed determines its process variation
// and measurement noise; the same seed replays identically. The chip
// receives the paper's 2 h room-temperature burn-in so its fresh
// reference is stable.
func NewChip(id string, seed uint64) (*Chip, error) {
	if id == "" {
		return nil, errors.New("selfheal: chip id must not be empty")
	}
	b, err := measure.NewBench(id, measure.DefaultBenchParams(), rng.New(seed))
	if err != nil {
		return nil, fmt.Errorf("selfheal: %w", err)
	}
	if _, err := b.RunPhase(measure.PhaseSpec{
		Name: "burn-in", Kind: measure.Stress,
		Duration: 2 * units.Hour, TempC: 20, Vdd: 1.2, AC: true,
	}); err != nil {
		return nil, fmt.Errorf("selfheal: burn-in: %w", err)
	}
	m, err := b.Sample()
	if err != nil {
		return nil, fmt.Errorf("selfheal: %w", err)
	}
	return &Chip{bench: b, freshNS: m.DelayNS}, nil
}

// ID returns the chip identifier.
func (c *Chip) ID() string { return c.bench.Chip.ID() }

// FreshDelayNS returns the post-burn-in fresh CUT delay.
func (c *Chip) FreshDelayNS() float64 { return c.freshNS }

// Measure wakes the sensor and reads it once.
func (c *Chip) Measure() (Reading, error) {
	m, err := c.bench.Sample()
	if err != nil {
		return Reading{}, fmt.Errorf("selfheal: %w", err)
	}
	return Reading{
		Counts:         m.Counts,
		FrequencyHz:    float64(m.Fosc),
		DelayNS:        m.DelayNS,
		DegradationPct: (m.DelayNS - c.freshNS) / c.freshNS * 100,
	}, nil
}

// Stress runs the chip under the given operating condition for the
// given number of hours, sampling every sampleHours (0 samples only at
// the boundary), and returns the recorded delay trace.
func (c *Chip) Stress(cond StressCondition, hours, sampleHours float64) ([]TracePoint, error) {
	if err := checkPhaseArgs("stress", hours, sampleHours); err != nil {
		return nil, err
	}
	if err := checkFinite("stress temperature (°C)", cond.TempC); err != nil {
		return nil, err
	}
	if err := checkFinite("stress rail (V)", cond.Vdd); err != nil {
		return nil, err
	}
	if cond.Vdd <= 0 {
		return nil, fmt.Errorf("selfheal: stress condition needs a positive rail, got %v V", cond.Vdd)
	}
	s, err := c.bench.RunPhase(measure.PhaseSpec{
		Name:        "stress",
		Kind:        measure.Stress,
		Duration:    units.HoursToSeconds(hours),
		TempC:       units.Celsius(cond.TempC),
		Vdd:         units.Volt(cond.Vdd),
		AC:          cond.AC,
		FrozenIn0:   true,
		SampleEvery: units.HoursToSeconds(sampleHours),
	})
	if err != nil {
		return nil, fmt.Errorf("selfheal: %w", err)
	}
	return tracePoints(s.Times(), s.Values()), nil
}

// Rejuvenate puts the chip to sleep under the given recovery condition
// for the given number of hours, sampling every sampleHours, and
// returns the recorded delay trace.
func (c *Chip) Rejuvenate(cond SleepCondition, hours, sampleHours float64) ([]TracePoint, error) {
	if err := checkPhaseArgs("sleep", hours, sampleHours); err != nil {
		return nil, err
	}
	if err := checkFinite("sleep temperature (°C)", cond.TempC); err != nil {
		return nil, err
	}
	if err := checkFinite("sleep rail (V)", cond.Vdd); err != nil {
		return nil, err
	}
	if cond.Vdd > 0 {
		return nil, fmt.Errorf("selfheal: sleep rail must be ≤ 0 (gated or negative), got %v V", cond.Vdd)
	}
	s, err := c.bench.RunPhase(measure.PhaseSpec{
		Name:        "sleep",
		Kind:        measure.Recovery,
		Duration:    units.HoursToSeconds(hours),
		TempC:       units.Celsius(cond.TempC),
		Vdd:         units.Volt(cond.Vdd),
		SampleEvery: units.HoursToSeconds(sampleHours),
	})
	if err != nil {
		return nil, fmt.Errorf("selfheal: %w", err)
	}
	return tracePoints(s.Times(), s.Values()), nil
}

func tracePoints(times, values []float64) []TracePoint {
	out := make([]TracePoint, len(times))
	for i := range times {
		out[i] = TracePoint{Hours: times[i] / 3600, DelayNS: values[i]}
	}
	return out
}

// MarginRelaxedPct is the paper's design-margin-relaxed parameter: the
// percentage of the delay degradation accumulated between the fresh
// state and stressedNS that a rejuvenation down to healedNS removed.
func MarginRelaxedPct(freshNS, stressedNS, healedNS float64) (float64, error) {
	v, err := measure.MarginRelaxedPct(freshNS, stressedNS, healedNS)
	if err != nil {
		return 0, fmt.Errorf("selfheal: %w", err)
	}
	return v, nil
}

// RemainingMarginPct reports how much of the chip's delay-margin
// budget (the paper-calibrated 12 % of fresh delay) survives at the
// given delay. 100 = untouched, 0 = timing violated.
func (c *Chip) RemainingMarginPct(delayNS float64) (float64, error) {
	v, err := measure.RemainingMarginPct(c.freshNS, delayNS, measure.DefaultMarginFrac)
	if err != nil {
		return 0, fmt.Errorf("selfheal: %w", err)
	}
	return v, nil
}

// WithinOriginalMargin reports the paper's headline criterion at the
// given delay: at least pct % of the original margin remains.
func (c *Chip) WithinOriginalMargin(delayNS, pct float64) (bool, error) {
	ok, err := measure.WithinOriginalMargin(c.freshNS, delayNS, measure.DefaultMarginFrac, pct)
	if err != nil {
		return false, fmt.Errorf("selfheal: %w", err)
	}
	return ok, nil
}

// MeanVthShiftV returns the die-average threshold-voltage shift in
// volts — a direct view into the device-level damage.
func (c *Chip) MeanVthShiftV() float64 { return c.bench.Chip.MeanVthShift() }

// LeakageNA returns the die's summed subthreshold leakage in nanoamps;
// aging lowers it (the one metric BTI improves).
func (c *Chip) LeakageNA() float64 { return c.bench.Chip.Leakage() }
