// Package td implements the device-level BTI (bias temperature
// instability) aging model the paper builds on: the first-order
// Trapping/Detrapping (TD) model of Velamala et al. (DAC'12), as adapted
// by Guo/Burleson/Stan (DAC'14) for both the wearout (stress) phase and
// the accelerated self-healing (recovery) phase.
//
// # Model
//
// Under stress, traps in the gate stack capture carriers and the
// threshold voltage shift grows logarithmically with stress time:
//
//	ΔVth(t) = φs(V,T) · ln(1 + C·t)                          (Eqs. 1–2)
//	φs(V,T) = K1 · exp(−E0s/kT) · exp(Bs·V/(tox·kT))
//
// When stress is removed (sleep), some traps emit their carriers and the
// shift partially recovers. With t1 the accumulated stress time and t2
// the time in recovery, the recovered fraction of the recoverable shift
// is
//
//	R(t2) = φr(Vr,T) · (1 + Ka·ln(1 + Cr·t2)) / (1 + Kb·ln(1 + Cr·(t1+t2)))   (Eqs. 3–4)
//	φr(Vr,T) = K2 · exp(−E0r/kT) · exp(Br·Vr/tox)
//
// where Vr ≥ 0 is the reverse-bias magnitude applied during sleep
// (0 for plain power gating, 0.3 for the paper's −0.3 V supply).
// R captures every qualitative property in the paper's prose: an
// instantaneous fast component (traps with short emission constants),
// a logarithmic slow tail, acceleration that is exponential in both
// temperature and reverse voltage, slower fractional recovery after a
// longer stress history (t1 in the denominator), and an asymptote below
// 1 — ΔVth can never fully recover.
//
// A fraction PermFrac of every stress increment is irreversible
// (standing in for permanent interface states / EM, the paper's stated
// first-order limitation); recovery only drains the recoverable part.
//
// Note on equation provenance: the ACM full text available to this
// reproduction renders Eqs. (3), (11) and (12) with corrupted layout;
// the forms above are reconstructed from the paper's prose and the
// referenced TD model, and are validated in this package's tests against
// a finer-grained stochastic trap ensemble (see ensemble.go).
package td

import (
	"errors"
	"fmt"
	"math"

	"selfheal/internal/units"
)

// Params collects the device-model constants. The defaults are
// calibrated (see DefaultParams) so that a 40 nm FPGA ring oscillator
// built on this model reproduces the paper's measurements.
type Params struct {
	// Stress (wearout) phase.
	K1  float64 // stress prefactor, volts
	E0s float64 // stress activation energy, eV
	Bs  float64 // stress field factor, nm·eV/V
	C   float64 // stress log rate constant, 1/s

	// Recovery (self-healing) phase.
	K2  float64 // recovery prefactor, dimensionless (R is a fraction)
	E0r float64 // recovery activation energy, eV
	Br  float64 // recovery reverse-bias field factor, nm/V
	Cr  float64 // recovery log rate constant, 1/s
	Ka  float64 // recovery numerator log weight
	Kb  float64 // recovery denominator log weight

	// ACExp is the exponent of the duty-cycle effectiveness factor: a
	// transistor stressed a fraction d of the time accumulates d^ACExp
	// of the DC shift, reflecting that the fast traps captured during a
	// short on-interval detrap almost completely during the following
	// off-interval. The default is calibrated at the ring-oscillator
	// path level — where AC stress activates more transistors than DC,
	// but the LUT's level-1 mux transistors stay statically stressed
	// (config bits never toggle) — to yield the paper's Fig. 4 result:
	// AC degradation ≈ half of DC.
	ACExp float64

	PermFrac    float64 // irreversible fraction of each stress increment, [0,1)
	ToxNM       float64 // oxide thickness, nm
	MaxRecovery float64 // hard cap on the recovered fraction R, (0,1]
}

// DefaultParams returns the 40 nm-calibrated constants. Calibration
// targets (all from the paper): ≈2.2 % RO frequency degradation after
// 24 h DC stress at 110 °C/1.2 V, ≈1.9 % at 100 °C, AC ≈ half of DC, and
// single-shot recovered fractions after 24 h stress + 6 h sleep of
// ≈36 % (20 °C/0 V), ≈47 % (20 °C/−0.3 V), ≈56 % (110 °C/0 V) and
// ≈72.4 % (110 °C/−0.3 V — the paper's design-margin-relaxed headline).
func DefaultParams() Params {
	return Params{
		K1:  534.2,
		E0s: 0.40,
		Bs:  0.0392,
		C:   0.01,

		K2:  3.167,
		E0r: 0.0472,
		Br:  1.749,
		Cr:  0.01,
		Ka:  1,
		Kb:  1,

		ACExp:       2.737,
		PermFrac:    0.08,
		ToxNM:       2.0,
		MaxRecovery: 1.0,
	}
}

// Validate reports whether the parameter set is physically meaningful.
func (p Params) Validate() error {
	switch {
	case p.K1 <= 0 || p.K2 <= 0:
		return errors.New("td: prefactors must be positive")
	case p.E0s < 0 || p.E0r < 0:
		return errors.New("td: activation energies must be non-negative")
	case p.C <= 0 || p.Cr <= 0:
		return errors.New("td: rate constants must be positive")
	case p.Ka <= 0 || p.Kb <= 0:
		return errors.New("td: recovery log weights must be positive")
	case p.ACExp < 1:
		return errors.New("td: ACExp must be at least 1")
	case p.PermFrac < 0 || p.PermFrac >= 1:
		return errors.New("td: PermFrac must be in [0,1)")
	case p.ToxNM <= 0:
		return errors.New("td: oxide thickness must be positive")
	case p.MaxRecovery <= 0 || p.MaxRecovery > 1:
		return errors.New("td: MaxRecovery must be in (0,1]")
	}
	return nil
}

// StressCond describes the bias applied to a stressed transistor.
type StressCond struct {
	V units.Volt   // gate overdrive magnitude, > 0 when stressed
	T units.Kelvin // junction temperature
	// Duty is the fraction of time the transistor is actually under
	// stress. 1 is DC stress; a symmetrically switching input (the
	// paper's AC stress) gives 0.5. Must be in [0,1].
	Duty float64
}

// RecoveryCond describes the sleep conditions during self-healing.
type RecoveryCond struct {
	VRev units.Volt   // reverse-bias magnitude, ≥ 0 (0.3 for a −0.3 V rail)
	T    units.Kelvin // junction temperature
}

// PhiStress evaluates the stress prefactor φs(V,T) in volts.
func PhiStress(p Params, c StressCond) float64 {
	kt := units.KT(c.T)
	return p.K1 * math.Exp(-p.E0s/kt) * math.Exp(p.Bs*float64(c.V)/(p.ToxNM*kt))
}

// PhiRecovery evaluates the recovery prefactor φr(Vr,T), dimensionless.
func PhiRecovery(p Params, c RecoveryCond) float64 {
	kt := units.KT(c.T)
	return p.K2 * math.Exp(-p.E0r/kt) * math.Exp(p.Br*float64(c.VRev)/p.ToxNM)
}

// StressShift returns the closed-form threshold shift (volts, total:
// recoverable + permanent) after stressing a fresh device for t under
// condition c. Negative times are treated as zero.
func StressShift(p Params, c StressCond, t units.Seconds) float64 {
	if t <= 0 {
		return 0
	}
	return PhiStress(p, c) * acFactor(p, c.Duty) * math.Log1p(p.C*float64(t))
}

// RecoveredFraction returns the closed-form fraction R(t2) of the
// recoverable shift removed after sleeping for t2 under condition c,
// following a total accumulated stress time of t1. The result is
// clamped to [0, MaxRecovery].
func RecoveredFraction(p Params, c RecoveryCond, t1, t2 units.Seconds) float64 {
	if t2 < 0 {
		t2 = 0
	}
	if t1 < 0 {
		t1 = 0
	}
	num := 1 + p.Ka*math.Log1p(p.Cr*float64(t2))
	den := 1 + p.Kb*math.Log1p(p.Cr*float64(t1+t2))
	r := PhiRecovery(p, c) * num / den
	return units.Clamp(r, 0, p.MaxRecovery)
}

// effDuty clamps a duty cycle into [0,1].
func effDuty(d float64) float64 { return units.Clamp(d, 0, 1) }

// acFactor is the duty-cycle effectiveness factor d^ACExp (see Params).
func acFactor(p Params, d float64) float64 {
	d = effDuty(d)
	if d == 1 {
		return 1
	}
	if d == 0 {
		return 0
	}
	return math.Pow(d, p.ACExp)
}

// mode tracks which phase the device state last integrated.
type mode uint8

const (
	modeFresh mode = iota
	modeStress
	modeRecovery
)

// State is the aging state of one device (or of one lumped path — the
// model is linear in the shift, so a path of identically stressed
// transistors ages as a scaled single device). The zero value is a
// fresh, unstressed device.
//
// State integrates arbitrary interleavings of stress and recovery
// phases: stress resumes along the log trajectory via equivalent-time
// inversion, and recovery tracks the shift present at the most recent
// stress→sleep transition.
type State struct {
	perm      float64       // irreversible shift, volts
	rec       float64       // recoverable shift, volts
	stressAge units.Seconds // accumulated duty-weighted stress time
	// effAge is the *equivalent* stress age of the present shift: the
	// continuous-stress time that would have produced it under the most
	// recent stress condition. Recovery kinetics depend on how deep the
	// surviving traps sit (their time constants), which this captures —
	// unlike cumulative stress time, which would make recovery
	// arbitrarily ineffective after many stress/heal cycles.
	effAge units.Seconds

	phase mode
	rec0  float64       // recoverable shift when the current recovery began
	t1    units.Seconds // stress history the current recovery works against
	t2    units.Seconds // time spent in the current recovery
	// prevT2 is the duration of the most recently completed recovery
	// phase. Traps that survived it have emission constants beyond it,
	// so it floors the t1 of the next recovery: healing a mostly healed
	// device is slow, not free.
	prevT2 units.Seconds
	// interlude accumulates small stress refills absorbed into the
	// running recovery phase (measurement wake-ups) without restarting
	// the emission clock.
	interlude float64
}

// interludeFrac bounds how much a single stress event (relative to the
// recovery anchor) can add while being folded into an ongoing recovery
// phase; interludeBudget bounds the cumulative total. Measurement
// wake-ups (~3 s every 30 min) sit far below both; a real re-stress
// exceeds the per-event bound immediately.
const (
	interludeFrac   = 0.02
	interludeBudget = 0.10
)

// Vth returns the present total threshold-voltage shift in volts.
func (s *State) Vth() float64 { return s.perm + s.rec }

// Permanent returns the irreversible component of the shift in volts.
func (s *State) Permanent() float64 { return s.perm }

// Recoverable returns the recoverable component of the shift in volts.
func (s *State) Recoverable() float64 { return s.rec }

// StressAge returns the accumulated duty-weighted stress time.
func (s *State) StressAge() units.Seconds { return s.stressAge }

// EffectiveAge returns the equivalent continuous-stress age of the
// present shift under the most recent stress condition — the t1 the
// recovery kinetics see.
func (s *State) EffectiveAge() units.Seconds { return s.effAge }

// Stress advances the device through dt of stress under condition c.
// It returns the threshold shift increment added during this step.
//
// Re-stress after recovery follows the TD picture: the trajectory
// resumes from the *equivalent stress time* of the current shift, so a
// partially healed device first re-ages quickly (refilling fast traps)
// and then settles back onto the slow logarithmic tail.
func (s *State) Stress(p Params, c StressCond, dt units.Seconds) float64 {
	if dt < 0 {
		panic(fmt.Sprintf("td: negative stress duration %v", dt))
	}
	duty := effDuty(c.Duty)
	if dt == 0 || duty == 0 {
		return 0
	}
	phi := PhiStress(p, c) * acFactor(p, duty)
	// Equivalent stress time te of the current total shift v satisfies
	// v = φ·ln(1+C·te); the increment over dt is
	//   Δ = φ·ln((1+C·(te+dt)) / (1+C·te)) = φ·log1p(C·dt·e^(−v/φ)),
	// which is numerically stable even when v/φ is large (e.g. a heavily
	// hot-stressed device continuing to age at room temperature).
	v := s.Vth()
	delta := phi * math.Log1p(p.C*float64(dt)*math.Exp(-v/phi))
	// The irreversible component follows its own log trajectory
	// perm(t) = PermFrac·φ·ln(1+C·t) via the same equivalent-time
	// inversion, so it keeps creeping slowly along the virgin curve's
	// tail instead of taking a cut of every stress/heal sawtooth refill
	// (which would wrongly consume the whole margin within weeks of
	// cycling). On virgin stress this reduces to exactly
	// PermFrac·ΔVth(t). dperm cannot exceed delta while v ≤ perm/PF,
	// which recovery preserves; the clamp guards condition changes.
	dperm := 0.0
	if pf := p.PermFrac * phi; pf > 0 {
		dperm = math.Min(delta,
			pf*math.Log1p(p.C*float64(dt)*math.Exp(-s.perm/pf)))
	}
	recDelta := delta - dperm
	// A brief wake-up during sleep (the bench samples the RO for ~3 s
	// every 30 min) must not restart the recovery fast phase: fold the
	// tiny refill into the recovery anchor and keep the emission clock
	// running. Anything larger ends the recovery phase for real.
	if s.phase == modeRecovery && s.rec0 > 0 &&
		recDelta <= interludeFrac*s.rec0 &&
		s.interlude+recDelta <= interludeBudget*s.rec0 {
		s.interlude += recDelta
		s.rec0 += recDelta
	} else {
		if s.phase == modeRecovery {
			s.prevT2 = s.t2
		}
		s.phase = modeStress
		s.interlude = 0
	}
	s.perm += dperm
	s.rec += recDelta
	s.stressAge += units.Seconds(duty * float64(dt))
	// Equivalent age of the new total shift under this condition,
	// computed in a form that cannot overflow: te+dt where
	// 1+C·te = e^(v/φ), so effAge = (e^(v/φ)−1)/C + dt. Equivalent
	// time is condition-relative, so a brief step under a much weaker
	// condition (a 3 s oscillating sample after a day of DC stress)
	// would report an absurdly deep age; the age may therefore never
	// grow faster than wall time.
	const maxExp = 40 // e^40/C ≈ 2e19 s ≫ any schedule; clamp beyond
	age := units.Seconds(math.Exp(maxExp) / p.C)
	if u := v / phi; u <= maxExp {
		age = units.Seconds(math.Expm1(u)/p.C) + dt
	}
	if limit := s.effAge + dt; age > limit {
		age = limit
	}
	s.effAge = age
	return delta
}

// Recover advances the device through dt of sleep under condition c and
// returns the (non-negative) threshold shift removed during this step.
//
// The recovered fraction is evaluated against the shift present when
// this recovery phase began; recovery is monotone — a weakening of the
// sleep condition mid-phase holds the shift rather than re-aging it
// (re-aging only happens through Stress).
func (s *State) Recover(p Params, c RecoveryCond, dt units.Seconds) float64 {
	if dt < 0 {
		panic(fmt.Sprintf("td: negative recovery duration %v", dt))
	}
	if s.phase != modeRecovery {
		s.phase = modeRecovery
		s.rec0 = s.rec
		s.t2 = 0
		s.interlude = 0
		// The stress history this recovery works against: the
		// equivalent age of the present damage, floored by the depth
		// already emptied in the previous recovery phase.
		s.t1 = s.effAge
		if s.prevT2 > s.t1 {
			s.t1 = s.prevT2
		}
	}
	s.t2 += dt
	r := RecoveredFraction(p, c, s.t1, s.t2)
	target := s.rec0 * (1 - r)
	if target >= s.rec {
		return 0
	}
	removed := s.rec - target
	s.rec = target
	return removed
}

// Reset returns the device to the fresh state.
func (s *State) Reset() { *s = State{} }

// StateWords is the length of a state's word form (see Words).
const StateWords = 10

// Words returns the state as raw 64-bit words: each field's float64
// bits, then the phase. SetWords inverts it exactly, so a state can be
// checkpointed and resumed bit for bit.
func (s *State) Words() [StateWords]uint64 {
	b := math.Float64bits
	return [StateWords]uint64{
		b(s.perm), b(s.rec), b(float64(s.stressAge)), b(float64(s.effAge)),
		b(s.rec0), b(float64(s.t1)), b(float64(s.t2)), b(float64(s.prevT2)),
		b(s.interlude), uint64(s.phase),
	}
}

// SetWords sets the state from its word form, refusing an unknown
// phase.
func (s *State) SetWords(w [StateWords]uint64) error {
	if w[9] > uint64(modeRecovery) {
		return fmt.Errorf("td: unknown state phase %d", w[9])
	}
	f := math.Float64frombits
	*s = State{
		perm: f(w[0]), rec: f(w[1]),
		stressAge: units.Seconds(f(w[2])), effAge: units.Seconds(f(w[3])),
		rec0: f(w[4]), t1: units.Seconds(f(w[5])), t2: units.Seconds(f(w[6])),
		prevT2: units.Seconds(f(w[7])), interlude: f(w[8]), phase: mode(w[9]),
	}
	return nil
}

// Clone returns a copy of the state.
func (s *State) Clone() *State {
	c := *s
	return &c
}

// Identical reports whether s and o hold the same bits in every field,
// so that any sequence of steps takes them to identical states. Unlike
// ==, it tells 0 from −0 and matches a NaN field with the same NaN.
func (s *State) Identical(o *State) bool {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	return same(s.perm, o.perm) && same(s.rec, o.rec) &&
		same(float64(s.stressAge), float64(o.stressAge)) &&
		same(float64(s.effAge), float64(o.effAge)) &&
		s.phase == o.phase && same(s.rec0, o.rec0) &&
		same(float64(s.t1), float64(o.t1)) && same(float64(s.t2), float64(o.t2)) &&
		same(float64(s.prevT2), float64(o.prevT2)) && same(s.interlude, o.interlude)
}
