package td

import (
	"fmt"
	"math"

	"selfheal/internal/units"
)

// Batch is the struct-of-arrays aging state of a population of
// devices: every State field becomes a parallel slice, so advancing a
// whole fleet one epoch walks flat float64 arrays instead of chasing
// per-chip pointers. It is the hot path of the discrete-event fleet
// engine (internal/engine), which advances millions of chips per tick.
//
// The per-step math is kept *bit-identical* to the scalar State
// methods — AdvanceStress mirrors State.Stress and AdvanceRecover
// mirrors State.Recover, operation for operation — with one
// difference: the condition-level factors (φs, φr, C·dt and the
// duty-cycle effectiveness d^ACExp) are hoisted out of the inner loop.
// φs/φr cost two exponentials per evaluation and d^ACExp a Pow; the
// scalar path pays them per chip per step, the batch pays them once
// per condition class per step (and the duty factor only when a chip's
// duty actually changes). TestBatchMatchesScalar asserts the
// equivalence within 1e-12 across random interleavings; in practice
// the trajectories are exactly equal.
//
// A Batch is not safe for concurrent use; the engine guards each
// partition's Batch with the partition lock.
type Batch struct {
	n int

	perm      []float64
	rec       []float64
	stressAge []float64
	effAge    []float64

	phase     []mode
	rec0      []float64
	t1        []float64
	t2        []float64
	prevT2    []float64
	interlude []float64

	duty []float64 // clamped duty cycle, per chip
	acf  []float64 // cached acFactor(duty) — the hoisted Pow
}

// NewBatch returns an empty batch with room for capacity devices
// before the slices reallocate.
func NewBatch(capacity int) *Batch {
	if capacity < 0 {
		capacity = 0
	}
	return &Batch{
		perm:      make([]float64, 0, capacity),
		rec:       make([]float64, 0, capacity),
		stressAge: make([]float64, 0, capacity),
		effAge:    make([]float64, 0, capacity),
		phase:     make([]mode, 0, capacity),
		rec0:      make([]float64, 0, capacity),
		t1:        make([]float64, 0, capacity),
		t2:        make([]float64, 0, capacity),
		prevT2:    make([]float64, 0, capacity),
		interlude: make([]float64, 0, capacity),
		duty:      make([]float64, 0, capacity),
		acf:       make([]float64, 0, capacity),
	}
}

// Len reports the number of devices in the batch.
func (b *Batch) Len() int { return b.n }

// ValidDuty rejects the inputs the scalar path would silently poison
// the state with: a NaN duty survives units.Clamp (every comparison
// with NaN is false) and then propagates through Pow into Vth.
func ValidDuty(d float64) error {
	if math.IsNaN(d) || math.IsInf(d, 0) {
		return fmt.Errorf("td: duty cycle must be finite, got %v", d)
	}
	return nil
}

// Append adds a fresh device with the given duty cycle and returns its
// index. The duty is clamped into [0,1] exactly like the scalar path;
// NaN/Inf are rejected.
func (b *Batch) Append(p Params, d float64) (int, error) {
	if err := ValidDuty(d); err != nil {
		return 0, err
	}
	d = effDuty(d)
	i := b.n
	b.n++
	b.perm = append(b.perm, 0)
	b.rec = append(b.rec, 0)
	b.stressAge = append(b.stressAge, 0)
	b.effAge = append(b.effAge, 0)
	b.phase = append(b.phase, modeFresh)
	b.rec0 = append(b.rec0, 0)
	b.t1 = append(b.t1, 0)
	b.t2 = append(b.t2, 0)
	b.prevT2 = append(b.prevT2, 0)
	b.interlude = append(b.interlude, 0)
	b.duty = append(b.duty, d)
	b.acf = append(b.acf, acFactor(p, d))
	return i, nil
}

// SetDuty changes device i's duty cycle, refreshing the cached
// effectiveness factor (the one Pow the batch pays per duty *change*
// instead of per step).
func (b *Batch) SetDuty(p Params, i int, d float64) error {
	if err := ValidDuty(d); err != nil {
		return err
	}
	d = effDuty(d)
	b.duty[i] = d
	b.acf[i] = acFactor(p, d)
	return nil
}

// Duty returns device i's clamped duty cycle.
func (b *Batch) Duty(i int) float64 { return b.duty[i] }

// Vth returns device i's present total threshold shift in volts.
func (b *Batch) Vth(i int) float64 { return b.perm[i] + b.rec[i] }

// Permanent returns the irreversible component of device i's shift.
func (b *Batch) Permanent(i int) float64 { return b.perm[i] }

// Recoverable returns the recoverable component of device i's shift.
func (b *Batch) Recoverable(i int) float64 { return b.rec[i] }

// StressAge returns device i's accumulated duty-weighted stress time.
func (b *Batch) StressAge(i int) units.Seconds { return units.Seconds(b.stressAge[i]) }

// EffectiveAge returns the equivalent continuous-stress age of device
// i's present shift (the t1 its next recovery works against).
func (b *Batch) EffectiveAge(i int) units.Seconds { return units.Seconds(b.effAge[i]) }

// Recovering reports whether device i last integrated a recovery phase.
func (b *Batch) Recovering(i int) bool { return b.phase[i] == modeRecovery }

// ExportState copies device i out as a scalar State — the seam the
// equivalence tests and per-chip debug read-outs use.
func (b *Batch) ExportState(i int) State {
	return State{
		perm:      b.perm[i],
		rec:       b.rec[i],
		stressAge: units.Seconds(b.stressAge[i]),
		effAge:    units.Seconds(b.effAge[i]),
		phase:     b.phase[i],
		rec0:      b.rec0[i],
		t1:        units.Seconds(b.t1[i]),
		t2:        units.Seconds(b.t2[i]),
		prevT2:    units.Seconds(b.prevT2[i]),
		interlude: b.interlude[i],
	}
}

// ImportState overwrites device i with a scalar State (duty is kept).
func (b *Batch) ImportState(i int, s State) {
	b.perm[i] = s.perm
	b.rec[i] = s.rec
	b.stressAge[i] = float64(s.stressAge)
	b.effAge[i] = float64(s.effAge)
	b.phase[i] = s.phase
	b.rec0[i] = s.rec0
	b.t1[i] = float64(s.t1)
	b.t2[i] = float64(s.t2)
	b.prevT2[i] = float64(s.prevT2)
	b.interlude[i] = s.interlude
}

// Swap exchanges devices i and j — the primitive behind the engine's
// O(1) swap-and-truncate removal.
func (b *Batch) Swap(i, j int) {
	b.perm[i], b.perm[j] = b.perm[j], b.perm[i]
	b.rec[i], b.rec[j] = b.rec[j], b.rec[i]
	b.stressAge[i], b.stressAge[j] = b.stressAge[j], b.stressAge[i]
	b.effAge[i], b.effAge[j] = b.effAge[j], b.effAge[i]
	b.phase[i], b.phase[j] = b.phase[j], b.phase[i]
	b.rec0[i], b.rec0[j] = b.rec0[j], b.rec0[i]
	b.t1[i], b.t1[j] = b.t1[j], b.t1[i]
	b.t2[i], b.t2[j] = b.t2[j], b.t2[i]
	b.prevT2[i], b.prevT2[j] = b.prevT2[j], b.prevT2[i]
	b.interlude[i], b.interlude[j] = b.interlude[j], b.interlude[i]
	b.duty[i], b.duty[j] = b.duty[j], b.duty[i]
	b.acf[i], b.acf[j] = b.acf[j], b.acf[i]
}

// Truncate drops every device at index n and beyond.
func (b *Batch) Truncate(n int) {
	if n < 0 || n > b.n {
		panic(fmt.Sprintf("td: truncate %d of batch of %d", n, b.n))
	}
	b.n = n
	b.perm = b.perm[:n]
	b.rec = b.rec[:n]
	b.stressAge = b.stressAge[:n]
	b.effAge = b.effAge[:n]
	b.phase = b.phase[:n]
	b.rec0 = b.rec0[:n]
	b.t1 = b.t1[:n]
	b.t2 = b.t2[:n]
	b.prevT2 = b.prevT2[:n]
	b.interlude = b.interlude[:n]
	b.duty = b.duty[:n]
	b.acf = b.acf[:n]
}

// CopyVth fills dst[i] with device i's total shift for i < min(len(dst),
// Len()) — the snapshot fast path, one fused pass over two arrays.
func (b *Batch) CopyVth(dst []float64) {
	n := b.n
	if len(dst) < n {
		n = len(dst)
	}
	perm, rec := b.perm[:n], b.rec[:n]
	for i := 0; i < n; i++ {
		dst[i] = perm[i] + rec[i]
	}
}

// validCond rejects non-finite condition fields up front; the scalar
// path would fold them into exp/log and poison every chip in the class.
func validCond(v units.Volt, t units.Kelvin) error {
	if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
		return fmt.Errorf("td: condition voltage must be finite, got %v", float64(v))
	}
	if math.IsNaN(float64(t)) || math.IsInf(float64(t), 0) || t <= 0 {
		return fmt.Errorf("td: condition temperature must be a positive kelvin value, got %v", float64(t))
	}
	return nil
}

func validDT(dt units.Seconds) error {
	if math.IsNaN(float64(dt)) || math.IsInf(float64(dt), 0) || dt < 0 {
		return fmt.Errorf("td: step duration must be finite and non-negative, got %v", float64(dt))
	}
	return nil
}

// StressStep is one stress condition's per-step factors, computed once
// and reused for every chip advanced under it: φs(V,T) (two
// exponentials), C·dt, and the effective-age overflow clamp. The
// duty-cycle factor stays per chip (cached in the batch).
type StressStep struct {
	phiCond float64       // φs(V,T), before the per-chip duty factor
	cdt     float64       // p.C · dt
	dt      units.Seconds // step duration
	maxAge  units.Seconds // the effAge overflow clamp e^40/C
}

// NewStressStep validates the condition and hoists its factors.
// c.Duty is ignored — duty is per chip in the batch.
func NewStressStep(p Params, c StressCond, dt units.Seconds) (StressStep, error) {
	if err := p.Validate(); err != nil {
		return StressStep{}, err
	}
	if err := validCond(c.V, c.T); err != nil {
		return StressStep{}, err
	}
	if err := validDT(dt); err != nil {
		return StressStep{}, err
	}
	return StressStep{
		phiCond: PhiStress(p, c),
		cdt:     p.C * float64(dt),
		dt:      dt,
		maxAge:  units.Seconds(math.Exp(effAgeMaxExp) / p.C),
	}, nil
}

// effAgeMaxExp mirrors the maxExp constant inside State.Stress.
const effAgeMaxExp = 40

// AdvanceStress advances the chips named by idx (all chips when idx is
// nil) through one stress step. The loop body is State.Stress with the
// condition factors pre-hoisted; a zero-duty chip is skipped exactly
// like the scalar early-out (no state, no phase change).
func (b *Batch) AdvanceStress(p Params, st StressStep, idx []int) {
	if st.dt == 0 {
		return
	}
	m := lenOr(idx, b.n)
	for k := 0; k < m; k++ {
		i := k
		if idx != nil {
			i = idx[k]
		}
		duty := b.duty[i]
		if duty == 0 {
			continue
		}
		phi := st.phiCond * b.acf[i]
		v := b.perm[i] + b.rec[i]
		delta := phi * math.Log1p(st.cdt*math.Exp(-v/phi))
		dperm := 0.0
		if pf := p.PermFrac * phi; pf > 0 {
			dperm = math.Min(delta,
				pf*math.Log1p(st.cdt*math.Exp(-b.perm[i]/pf)))
		}
		recDelta := delta - dperm
		if b.phase[i] == modeRecovery && b.rec0[i] > 0 &&
			recDelta <= interludeFrac*b.rec0[i] &&
			b.interlude[i]+recDelta <= interludeBudget*b.rec0[i] {
			b.interlude[i] += recDelta
			b.rec0[i] += recDelta
		} else {
			if b.phase[i] == modeRecovery {
				b.prevT2[i] = b.t2[i]
			}
			b.phase[i] = modeStress
			b.interlude[i] = 0
		}
		b.perm[i] += dperm
		b.rec[i] += recDelta
		b.stressAge[i] += duty * float64(st.dt)
		age := st.maxAge
		if u := v / phi; u <= effAgeMaxExp {
			age = units.Seconds(math.Expm1(u)/p.C) + st.dt
		}
		if limit := units.Seconds(b.effAge[i]) + st.dt; age > limit {
			age = limit
		}
		b.effAge[i] = float64(age)
	}
}

// RecoverStep is one recovery condition's per-step factors: φr(Vr,T)
// (two exponentials) computed once for the whole class.
type RecoverStep struct {
	phiR float64
	dt   units.Seconds
}

// NewRecoverStep validates the condition and hoists its factors.
func NewRecoverStep(p Params, c RecoveryCond, dt units.Seconds) (RecoverStep, error) {
	if err := p.Validate(); err != nil {
		return RecoverStep{}, err
	}
	if err := validCond(c.VRev, c.T); err != nil {
		return RecoverStep{}, err
	}
	if err := validDT(dt); err != nil {
		return RecoverStep{}, err
	}
	return RecoverStep{phiR: PhiRecovery(p, c), dt: dt}, nil
}

// AdvanceRecover advances the chips named by idx (all when nil)
// through one recovery step — State.Recover with φr pre-hoisted.
func (b *Batch) AdvanceRecover(p Params, rs RecoverStep, idx []int) {
	m := lenOr(idx, b.n)
	for k := 0; k < m; k++ {
		i := k
		if idx != nil {
			i = idx[k]
		}
		if b.phase[i] != modeRecovery {
			b.phase[i] = modeRecovery
			b.rec0[i] = b.rec[i]
			b.t2[i] = 0
			b.interlude[i] = 0
			t1 := b.effAge[i]
			if b.prevT2[i] > t1 {
				t1 = b.prevT2[i]
			}
			b.t1[i] = t1
		}
		b.t2[i] += float64(rs.dt)
		num := 1 + p.Ka*math.Log1p(p.Cr*b.t2[i])
		den := 1 + p.Kb*math.Log1p(p.Cr*(b.t1[i]+b.t2[i]))
		r := units.Clamp(rs.phiR*num/den, 0, p.MaxRecovery)
		target := b.rec0[i] * (1 - r)
		if target < b.rec[i] {
			b.rec[i] = target
		}
	}
}

func lenOr(idx []int, n int) int {
	if idx == nil {
		return n
	}
	return len(idx)
}

// Class is one shared condition a subset of the batch advances under:
// either a stress condition (SCond; its Duty field is ignored, the
// per-chip duty applies) or a recovery condition (RCond).
type Class struct {
	Stress bool
	SCond  StressCond
	RCond  RecoveryCond
	Idx    []int // chip indices; nil means the whole batch
}

// AdvanceBatch advances every class through one step of dt — the
// vectorized equivalent of calling State.Stress or State.Recover once
// per chip. Condition factors are evaluated once per class; the error
// (invalid params, non-finite condition, bad dt) is returned before
// any chip is touched, so a batch advance is all-or-nothing per class
// list.
func AdvanceBatch(p Params, b *Batch, dt units.Seconds, classes []Class) error {
	type prepared struct {
		stress bool
		ss     StressStep
		rs     RecoverStep
		idx    []int
	}
	steps := make([]prepared, len(classes))
	for ci, c := range classes {
		var err error
		pc := prepared{stress: c.Stress, idx: c.Idx}
		if c.Stress {
			pc.ss, err = NewStressStep(p, c.SCond, dt)
		} else {
			pc.rs, err = NewRecoverStep(p, c.RCond, dt)
		}
		if err != nil {
			return fmt.Errorf("td: class %d: %w", ci, err)
		}
		steps[ci] = pc
	}
	for _, pc := range steps {
		if pc.stress {
			b.AdvanceStress(p, pc.ss, pc.idx)
		} else {
			b.AdvanceRecover(p, pc.rs, pc.idx)
		}
	}
	return nil
}
