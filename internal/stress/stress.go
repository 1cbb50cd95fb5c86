// Package stress is the aging engine: it advances every transistor on
// an FPGA chip through scheduled stress (wearout) and sleep (recovery)
// phases, applying the TD device model with the per-transistor duty
// cycles derived from each mapped design's switching activity. The
// chip's device.Fabric applies the model once per duty-history class:
// transistors that share a class and an action share the result.
//
// The engine implements the paper's operating regimes:
//
//   - Active, rail at operating voltage: transistors whose bias pattern
//     stresses them age (DC duty 1, AC duty 0.5, the LUT level-1 mux
//     statically); transistors that carry accumulated damage but are
//     not presently stressed recover passively at 0 V reverse bias —
//     the reason the paper calls AC stress "a partially self-healing
//     process with a slow recovery rate".
//   - Sleep, rail gated to 0 V: the whole die recovers passively.
//   - Sleep, rail negative (e.g. −0.3 V): the whole die recovers with
//     the reverse-bias acceleration — the paper's accelerated
//     self-healing.
//
// Idle (unmapped) cells can optionally be aged at their quiescent input
// pattern; real fabrics age even where no design is placed.
package stress

import (
	"errors"
	"fmt"

	"selfheal/internal/fpga"
	"selfheal/internal/lut"
	"selfheal/internal/units"
)

// Activity describes the switching behaviour of one mapped design.
type Activity struct {
	Mapping *fpga.Mapping
	// AC reports whether the design is toggling (oscillating RO) or
	// frozen (DC stress).
	AC bool
	// FrozenIn0 is the chain input value while frozen (ignored for AC).
	FrozenIn0 bool
	// CellPhases, when non-nil, overrides the inverter-chain activity
	// model with explicit per-cell input phases (index-aligned with
	// Mapping.Cells) — how arbitrary mapped logic (package netlist)
	// describes its workload-driven switching statistics.
	CellPhases [][]lut.Phase
}

// phasesFor returns the activity phases of stage i.
func (a Activity) phasesFor(i int) []lut.Phase {
	if a.CellPhases != nil {
		return a.CellPhases[i]
	}
	return a.Mapping.StagePhases(i, a.AC, a.FrozenIn0)
}

// Engine ages one chip. Register the mapped designs' activities with
// AddActivity, then drive time forward with Step.
type Engine struct {
	chip       *fpga.Chip
	activities []Activity
	// StressIdleCells ages unmapped cells at their quiescent pattern
	// (inputs tied low) whenever the rail is up. Defaults to true in
	// New; the paper's CUT-relative metrics are insensitive to it, but
	// chip-level leakage and mean-shift metrics are not.
	StressIdleCells bool
	// protected[c] marks cell c (row-major) as sitting on a separately
	// gated power island: it sees no stress while the chip operates
	// (only passive recovery), the way a silicon-odometer reference
	// oscillator is preserved. Nil until the first Protect.
	protected []bool
	// pass is Step's scratch: pass[c] is the number of the pass within
	// the current step that last drove cell c, 0 if none has.
	pass    []int32
	duties  dutyMemo
	elapsed units.Seconds
}

// dutyMemo is Step's memo of per-cell stress duties. Cells with the
// same truth table under the same phase list — every stage of a chain,
// every idle cell — share one evaluation. Phase lists are told apart
// by identity, which holds for the length of one step.
type dutyMemo struct {
	n    int // evaluations stored, the newest in slot (n−1) mod len
	keys [4]dutyKey
	vals [4][lut.NumTransistors]float64
}

type dutyKey struct {
	cfg    [4]bool
	phases *lut.Phase
	len    int
}

// get returns cell.StressDuties(phases), from the memo when it can.
func (m *dutyMemo) get(cell *lut.LUT2, phases []lut.Phase) ([lut.NumTransistors]float64, error) {
	if len(phases) == 0 {
		return cell.StressDuties(phases)
	}
	k := dutyKey{cfg: cell.Config(), phases: &phases[0], len: len(phases)}
	for i := 0; i < m.n && i < len(m.keys); i++ {
		if m.keys[i] == k {
			return m.vals[i], nil
		}
	}
	d, err := cell.StressDuties(phases)
	if err == nil {
		slot := m.n % len(m.keys)
		m.keys[slot], m.vals[slot] = k, d
		m.n++
	}
	return d, err
}

// New returns an engine for the chip.
func New(chip *fpga.Chip) *Engine {
	return &Engine{chip: chip, StressIdleCells: true}
}

// Chip returns the chip under the engine.
func (e *Engine) Chip() *fpga.Chip { return e.chip }

// Elapsed returns the total simulated time.
func (e *Engine) Elapsed() units.Seconds { return e.elapsed }

// Protect places a mapped design on a gated power island: while the
// chip operates, its cells accumulate no stress (they recover
// passively at die temperature instead). Used for reference structures
// such as the odometer's unstressed oscillator.
func (e *Engine) Protect(m *fpga.Mapping) error {
	if m == nil {
		return errors.New("stress: nil mapping")
	}
	if m.Chip != e.chip {
		return fmt.Errorf("stress: mapping %q belongs to chip %q, engine drives %q",
			m.Name, m.Chip.ID(), e.chip.ID())
	}
	if e.protected == nil {
		e.protected = make([]bool, e.chip.Fabric().Len()/lut.NumTransistors)
	}
	for _, cell := range m.Cells {
		e.protected[cellIndex(cell)] = true
	}
	return nil
}

// cellIndex returns the row-major index of a cell of the engine's chip.
func cellIndex(cell *lut.LUT2) int {
	_, base := cell.Fabric()
	return base / lut.NumTransistors
}

// isProtected reports whether cell c sits on a protected island.
func (e *Engine) isProtected(c int) bool { return e.protected != nil && e.protected[c] }

// AddActivity registers a design's switching behaviour. The mapping
// must live on the engine's chip.
func (e *Engine) AddActivity(a Activity) error {
	if a.Mapping == nil {
		return errors.New("stress: nil mapping")
	}
	if a.Mapping.Chip != e.chip {
		return fmt.Errorf("stress: mapping %q belongs to chip %q, engine drives %q",
			a.Mapping.Name, a.Mapping.Chip.ID(), e.chip.ID())
	}
	if a.CellPhases != nil && len(a.CellPhases) != len(a.Mapping.Cells) {
		return fmt.Errorf("stress: %d cell phases for %d mapped cells",
			len(a.CellPhases), len(a.Mapping.Cells))
	}
	e.activities = append(e.activities, a)
	return nil
}

// SetAC switches the registered design named name between AC and DC
// activity (and sets the frozen input for DC).
func (e *Engine) SetAC(name string, ac, frozenIn0 bool) error {
	for i := range e.activities {
		if e.activities[i].Mapping.Name == name {
			e.activities[i].AC = ac
			e.activities[i].FrozenIn0 = frozenIn0
			return nil
		}
	}
	return fmt.Errorf("stress: no activity named %q", name)
}

// EngineState is an engine's mutable state: the simulated time and
// each registered activity's mode, in registration order.
type EngineState struct {
	Elapsed units.Seconds
	Modes   []Mode
}

// Mode is one activity's switching mode (see SetAC).
type Mode struct {
	AC        bool
	FrozenIn0 bool
}

// SaveState copies the engine's mutable state into dst, reusing its
// slice.
func (e *Engine) SaveState(dst *EngineState) {
	dst.Elapsed = e.elapsed
	dst.Modes = dst.Modes[:0]
	for _, a := range e.activities {
		dst.Modes = append(dst.Modes, Mode{AC: a.AC, FrozenIn0: a.FrozenIn0})
	}
}

// RestoreState sets the engine's mutable state, which must hold one
// mode per registered activity.
func (e *Engine) RestoreState(src *EngineState) error {
	if len(src.Modes) != len(e.activities) {
		return fmt.Errorf("stress: %d activity modes for %d activities", len(src.Modes), len(e.activities))
	}
	e.elapsed = src.Elapsed
	for i, m := range src.Modes {
		e.activities[i].AC, e.activities[i].FrozenIn0 = m.AC, m.FrozenIn0
	}
	return nil
}

// operatingThreshold is the rail voltage above which the fabric is
// considered powered and switching; below it the die is in (possibly
// accelerated) recovery.
const operatingThreshold units.Volt = 0.5

// idlePhases is the quiescent pattern of an unmapped cell.
var idlePhases = lut.DCPhase(false, false)

// Step advances the chip by dt with the rail at vdd and the die at
// temp. Negative dt panics; dt of zero is a no-op.
//
// The chip's fabric ages by duty-history class (device.Fabric): Step
// works out each transistor's action — stress at its duty, passive
// recovery while it carries a shift, sleep recovery, or nothing — and
// the fabric integrates each distinct (class, action) pair once.
func (e *Engine) Step(vdd units.Volt, temp units.Celsius, dt units.Seconds) error {
	if dt < 0 {
		panic(fmt.Sprintf("stress: negative step %v", dt))
	}
	if dt == 0 {
		return nil
	}
	defer func() { e.elapsed += dt }()
	k := temp.Kelvin()
	tdp := e.chip.Params().TD
	fab := e.chip.Fabric()

	if vdd <= operatingThreshold {
		// Sleep: the whole die recovers; a negative rail accelerates
		// (Hypothesis 2 holds structurally — fresh devices carry no
		// shift, so recovery cannot affect them).
		var vrev units.Volt
		if vdd < 0 {
			vrev = -vdd
		}
		fab.Sleep(tdp, vrev, k, dt)
		return nil
	}

	// Active operation. Check every design's phases first, so a bad
	// one fails the step before any transistor ages.
	for _, a := range e.activities {
		for i, cell := range a.Mapping.Cells {
			if e.isProtected(cellIndex(cell)) {
				continue
			}
			if err := lut.ValidatePhases(a.phasesFor(i)); err != nil {
				return fmt.Errorf("stress: design %q stage %d: %w", a.Mapping.Name, i, err)
			}
		}
	}
	if e.pass == nil {
		e.pass = make([]int32, fab.Len()/lut.NumTransistors)
	} else {
		clear(e.pass)
	}
	e.duties = dutyMemo{}
	pass := int32(1)
	fab.BeginStep(tdp, vdd, k, dt)
	defer fab.EndStep()
	// Protected islands recover passively at die temperature whenever
	// they carry damage, regardless of what the rest of the die does.
	var none [lut.NumTransistors]float64
	for c, p := range e.protected {
		if p {
			fab.Act(c*lut.NumTransistors, none[:])
		}
	}
	// Each mapped cell ages at its design's per-transistor stress
	// duties; a transistor not stressed recovers passively while it
	// carries damage.
	for _, a := range e.activities {
		for i, cell := range a.Mapping.Cells {
			c := cellIndex(cell)
			if e.isProtected(c) {
				continue
			}
			duties, err := e.duties.get(cell, a.phasesFor(i))
			if err != nil {
				return fmt.Errorf("stress: design %q stage %d: %w", a.Mapping.Name, i, err)
			}
			if e.pass[c] == pass {
				// A cell registered under two designs ages under each
				// in turn: finish this pass before driving it again.
				fab.EndStep()
				fab.BeginStep(tdp, vdd, k, dt)
				pass++
			}
			_, base := cell.Fabric()
			fab.Act(base, duties[:])
			e.pass[c] = pass
		}
	}
	// Cells no activity covers are idle; their quiescent pattern
	// (inputs low) stresses a fixed subset when StressIdleCells is set.
	if !e.StressIdleCells {
		return nil
	}
	var err error
	e.chip.Cells(func(_, _ int, cell *lut.LUT2, _ bool) {
		c := cellIndex(cell)
		if e.pass[c] != 0 || e.isProtected(c) || err != nil {
			return
		}
		var duties [lut.NumTransistors]float64
		if duties, err = e.duties.get(cell, idlePhases); err == nil {
			fab.Act(c*lut.NumTransistors, duties[:])
		}
	})
	if err != nil {
		return fmt.Errorf("stress: idle cells: %w", err)
	}
	return nil
}

// Run advances the chip through n equal steps of dt each at a fixed
// condition, invoking sample (if non-nil) after every step with the
// cumulative time into the run. It is the building block the experiment
// harness uses for the paper's "wake every 20/30 minutes and record"
// schedules.
func (e *Engine) Run(vdd units.Volt, temp units.Celsius, dt units.Seconds, n int,
	sample func(t units.Seconds) error) error {
	if n < 0 {
		return errors.New("stress: negative step count")
	}
	for i := 1; i <= n; i++ {
		if err := e.Step(vdd, temp, dt); err != nil {
			return err
		}
		if sample != nil {
			if err := sample(units.Seconds(i) * dt); err != nil {
				return err
			}
		}
	}
	return nil
}
