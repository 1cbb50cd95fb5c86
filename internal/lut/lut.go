// Package lut models the pass-transistor 2-input look-up table of the
// paper's Fig. 2 — the unit cell of the 40 nm FPGA fabric — at the level
// the paper's cross-layer model needs: which transistors a given input
// pattern places under BTI stress, which transistors form the conducting
// path of interest (POI), and the resulting path delay.
//
// # Netlist
//
// The exact gate-level netlist of the commercial FPGA is proprietary
// (the paper says as much); like the paper, we use a generic
// pass-transistor mux tree that any 2-input LUT reduces to:
//
//	         in1      !in1         in0    !in0
//	!C1 ──[M1]──┐  ┌──[M2]── !C0
//	            n0 ┘              └n0──[M6]──┐
//	         in1      !in1                    m ──▷buf▷── q ──[Route]── out
//	!C3 ──[M3]──┐  ┌──[M4]── !C2  ┌n1──[M5]──┘
//	            n1 ┘
//
// Four configuration cells hold the truth table complemented (the level
// restorer is an inverter), level 1 of the tree is selected by in1,
// level 2 by in0, the CMOS buffer (BufP/BufN) restores the degraded
// pass-transistor level, and an always-on NMOS routing switch carries
// the output into the routing fabric. Evaluating inputs (in0, in1)
// yields truth-table entry C[2·in0+in1].
//
// # Stress rules (Hypotheses 1 & 2 of the paper)
//
// An NMOS pass transistor is under PBTI stress exactly when its gate is
// high and it is passing a logic low (Vgs ≈ Vdd); passing a weak high
// leaves Vgs ≈ Vth, which is negligible. The buffer PMOS is under NBTI
// stress when the buffer input is low, the buffer NMOS under PBTI
// stress when it is high. Consequently — Hypothesis 1 — once the inputs
// are static (DC stress), the stressed subset is fixed and its size is
// constant; and — Hypothesis 2 — recovery acts only on transistors that
// have accumulated stress, never on fresh ones.
//
// A structural consequence the tests pin down: the level-1 transistor
// selected by a static in1 passes a constant configuration-cell value,
// so it stays under DC stress even when in0 toggles ("AC stress") —
// LUT configuration cells never switch in normal operation.
//
// # Storage
//
// A cell holds no transistor objects: its nine devices are consecutive
// entries of a device.Fabric shared with every cell fabricated with it
// (NewCells; a die's whole grid), and Transistors returns views. Names
// are formatted only when asked for.
package lut

import (
	"errors"
	"fmt"

	"selfheal/internal/device"
	"selfheal/internal/units"
)

// Transistor indices into LUT2.Transistors(), in netlist order.
const (
	M1    = iota // level 1, gate in1, passes !C1
	M2           // level 1, gate !in1, passes !C0
	M3           // level 1, gate in1, passes !C3
	M4           // level 1, gate !in1, passes !C2
	M5           // level 2, gate in0, passes n1
	M6           // level 2, gate !in0, passes n0
	BufP         // output buffer PMOS (NBTI)
	BufN         // output buffer NMOS (PBTI)
	Route        // routing switch, gate tied high
	NumTransistors
)

// LUT2 is one 2-input pass-transistor look-up table plus its slice of
// the routing fabric. Its nine devices live in a device.Fabric shared
// with every cell fabricated alongside it. Create with New or NewCells
// and program with Configure.
type LUT2 struct {
	cfg  [4]bool // truth table: cfg[2·in0+in1]
	base int     // fabric index of M1; device j is at base+j
	g    *group
}

// group is what cells fabricated together share: the fabric holding
// their devices and the function naming cell c.
type group struct {
	fab  *device.Fabric
	name func(cell int) string
}

var (
	cellKinds = [NumTransistors]device.Kind{
		M1: device.NMOS, M2: device.NMOS, M3: device.NMOS, M4: device.NMOS,
		M5: device.NMOS, M6: device.NMOS,
		BufP: device.PMOS, BufN: device.NMOS,
		Route: device.NMOS,
	}
	labels = [NumTransistors]string{"M1", "M2", "M3", "M4", "M5", "M6", "BufP", "BufN", "Route"}
)

// New returns a LUT with all configuration cells zero (constant-false).
func New(name string, dp device.Params) *LUT2 {
	return &NewCells(1, dp, func(int) string { return name })[0]
}

// NewCells returns n fresh cells whose devices share one fabric, cell
// c's devices at indices c·NumTransistors onward. name formats cell c's
// name, and is called only when a name is asked for.
func NewCells(n int, dp device.Params, name func(cell int) string) []LUT2 {
	kinds := make([]device.Kind, n*NumTransistors)
	for c := 0; c < n; c++ {
		copy(kinds[c*NumTransistors:], cellKinds[:])
	}
	g := &group{name: name}
	g.fab = device.NewFabric(dp, kinds, func(i int) string {
		return name(i/NumTransistors) + "." + labels[i%NumTransistors]
	})
	cells := make([]LUT2, n)
	for c := range cells {
		cells[c] = LUT2{base: c * NumTransistors, g: g}
	}
	return cells
}

// Name returns the instance name given at construction.
func (l *LUT2) Name() string { return l.g.name(l.base / NumTransistors) }

// Configure programs the truth table; cfg[2·in0+in1] is the output for
// inputs (in0, in1).
func (l *LUT2) Configure(cfg [4]bool) { l.cfg = cfg }

// ConfigureFunc programs the truth table from a boolean function.
func (l *LUT2) ConfigureFunc(f func(in0, in1 bool) bool) {
	for i := 0; i < 4; i++ {
		l.cfg[i] = f(i>>1 == 1, i&1 == 1)
	}
}

// ConfigureInverter programs out = !in0 (in1 must be driven high), the
// paper's running example. The in1=0 entries are programmed to the same
// values so a floating in1 cannot glitch the output.
func (l *LUT2) ConfigureInverter() {
	// idx = 2·in0+in1: out must be 1 for in0=0, 0 for in0=1.
	l.cfg = [4]bool{true, true, false, false}
}

// Config returns the current truth table.
func (l *LUT2) Config() [4]bool { return l.cfg }

// Eval returns the LUT output for the given inputs.
func (l *LUT2) Eval(in0, in1 bool) bool { return l.cfg[idx(in0, in1)] }

func idx(in0, in1 bool) int {
	i := 0
	if in0 {
		i += 2
	}
	if in1 {
		i++
	}
	return i
}

// Transistors returns views of all nine devices in netlist order
// (index with the M1…Route constants).
func (l *LUT2) Transistors() []device.Transistor {
	out := make([]device.Transistor, NumTransistors)
	for j := range out {
		out[j] = l.tr(j)
	}
	return out
}

// tr returns a view of device j (M1…Route).
func (l *LUT2) tr(j int) device.Transistor { return l.g.fab.At(l.base + j) }

// Fabric returns the fabric holding the cell's devices and the index
// of its M1 there; device j (M1…Route) is at base+j.
func (l *LUT2) Fabric() (f *device.Fabric, base int) { return l.g.fab, l.base }

// muxOut returns the internal (complemented) mux output for the inputs.
func (l *LUT2) muxOut(in0, in1 bool) bool { return !l.cfg[idx(in0, in1)] }

// StressedMask reports, per transistor, whether the given static input
// pattern places it under BTI stress (the paper's DC-stress analysis).
func (l *LUT2) StressedMask(in0, in1 bool) [NumTransistors]bool {
	var m [NumTransistors]bool
	// Level 1: gate high ⇒ conducting; stressed iff passing a low.
	// Mi passes the complemented cell !Cj, so it passes a low iff the
	// truth-table entry Cj is true.
	if in1 {
		m[M1] = l.cfg[idx(false, true)]
		m[M3] = l.cfg[idx(true, true)]
	} else {
		m[M2] = l.cfg[idx(false, false)]
		m[M4] = l.cfg[idx(true, false)]
	}
	// Level 2: the conducting one passes the selected internal node.
	mo := l.muxOut(in0, in1)
	if in0 {
		m[M5] = !mo
	} else {
		m[M6] = !mo
	}
	// Buffer: input low stresses the PMOS (NBTI), high the NMOS (PBTI).
	m[BufP] = !mo
	m[BufN] = mo
	// Routing switch: always on, stressed when carrying a low.
	q := !mo
	m[Route] = !q
	return m
}

// StressSet returns the transistors under stress for a static input
// pattern, in netlist order.
func (l *LUT2) StressSet(in0, in1 bool) []device.Transistor {
	mask := l.StressedMask(in0, in1)
	var out []device.Transistor
	for i, stressed := range mask {
		if stressed {
			out = append(out, l.tr(i))
		}
	}
	return out
}

// ConductingPath returns the path of interest for the given inputs: the
// transistors a transition propagates through, from the selected level-1
// pass transistor to the routing switch (logic depth 4).
func (l *LUT2) ConductingPath(in0, in1 bool) []device.Transistor {
	path := l.path(in0, in1)
	out := make([]device.Transistor, len(path))
	for i, j := range path {
		out[i] = l.tr(j)
	}
	return out
}

// path returns the devices of the path of interest, level 1 first.
func (l *LUT2) path(in0, in1 bool) [4]int {
	var level1, level2 int
	switch {
	case in0 && in1:
		level1, level2 = M3, M5
	case in0 && !in1:
		level1, level2 = M4, M5
	case !in0 && in1:
		level1, level2 = M1, M6
	default:
		level1, level2 = M2, M6
	}
	// The buffer device that drives the output edge: mux output low
	// drives through the PMOS (pull-up of the inverted signal), high
	// through the NMOS.
	buf := BufN
	if l.muxOut(in0, in1) == false {
		buf = BufP
	}
	return [4]int{level1, level2, buf, Route}
}

// PathDelay returns the POI propagation delay in nanoseconds for the
// given inputs at supply vdd: device.PathDelay over ConductingPath,
// summed in path order without building the path.
func (l *LUT2) PathDelay(vdd units.Volt, in0, in1 bool) (float64, error) {
	total := 0.0
	for _, j := range l.path(in0, in1) {
		d, err := l.tr(j).Delay(vdd)
		if err != nil {
			return 0, err
		}
		total += d
	}
	return total, nil
}

// Phase is an input pattern held for a fraction of the operating time,
// used to describe switching activity (the paper's AC stress) and to
// average the measured delay over an oscillation period.
type Phase struct {
	In0, In1 bool
	Weight   float64
}

// ValidatePhases checks that weights are non-negative and sum to ≈1.
func ValidatePhases(phases []Phase) error {
	if len(phases) == 0 {
		return errors.New("lut: no phases")
	}
	sum := 0.0
	for _, ph := range phases {
		if ph.Weight < 0 {
			return fmt.Errorf("lut: negative phase weight %v", ph.Weight)
		}
		sum += ph.Weight
	}
	if sum < 0.999 || sum > 1.001 {
		return fmt.Errorf("lut: phase weights sum to %v, want 1", sum)
	}
	return nil
}

// DCPhase describes a static input pattern (weight 1).
func DCPhase(in0, in1 bool) []Phase { return []Phase{{In0: in0, In1: in1, Weight: 1}} }

// ACPhase describes in0 toggling symmetrically with in1 held high — the
// paper's AC-stress pattern for the LUT inverter.
func ACPhase() []Phase {
	return []Phase{
		{In0: false, In1: true, Weight: 0.5},
		{In0: true, In1: true, Weight: 0.5},
	}
}

// StressDuties returns, per transistor (netlist order), the fraction of
// time the given activity pattern keeps it under stress. A DC pattern
// yields duties of exactly 0 or 1; the AC pattern yields 0.5 for the
// toggling devices and 1 for the statically stressed level-1 device.
func (l *LUT2) StressDuties(phases []Phase) ([NumTransistors]float64, error) {
	var duties [NumTransistors]float64
	if err := ValidatePhases(phases); err != nil {
		return duties, err
	}
	for _, ph := range phases {
		mask := l.StressedMask(ph.In0, ph.In1)
		for i, stressed := range mask {
			if stressed {
				duties[i] += ph.Weight
			}
		}
	}
	for i := range duties {
		duties[i] = units.Clamp(duties[i], 0, 1)
	}
	return duties, nil
}

// MeasuredDelay returns the phase-weighted average POI delay in
// nanoseconds — what a ring oscillator built from this LUT actually
// exhibits, since an oscillation period exercises every phase.
func (l *LUT2) MeasuredDelay(vdd units.Volt, phases []Phase) (float64, error) {
	if err := ValidatePhases(phases); err != nil {
		return 0, err
	}
	total := 0.0
	for _, ph := range phases {
		d, err := l.PathDelay(vdd, ph.In0, ph.In1)
		if err != nil {
			return 0, err
		}
		total += ph.Weight * d
	}
	return total, nil
}

// Leakage returns the summed subthreshold leakage of all nine devices
// in nanoamps.
func (l *LUT2) Leakage() float64 {
	sum := 0.0
	for j := 0; j < NumTransistors; j++ {
		sum += l.tr(j).Leakage()
	}
	return sum
}

// Reset restores every device to the fresh state.
func (l *LUT2) Reset() { l.g.fab.ResetRange(l.base, l.base+NumTransistors) }
