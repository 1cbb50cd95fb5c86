// Package lutk generalizes the 2-input LUT of package lut to k inputs:
// a full pass-transistor multiplexer tree with 2^k configuration cells,
// a level-restoring buffer and a routing switch. It exists for the
// LUT-implementation aging study the paper cites (Kiamehr et al.,
// "Investigation of NBTI and PBTI induced aging in different LUT
// implementations", the paper's ref. [18]): how does the choice of LUT
// size change BTI exposure and the resulting path-delay degradation?
//
// # Structure
//
// Level j of the tree (j = 0 … k−1) is selected by input j: every pair
// of level-j nodes feeds a level-j+1 node through two NMOS pass
// transistors gated by in_j and !in_j. The 2^k leaves hold the truth
// table complemented (the output buffer inverts), so evaluating inputs
// returns truth[index] with index = Σ in_j·2^j.
//
// Stress analysis follows the same physics as package lut: an NMOS pass
// transistor is under PBTI stress when its gate is high and it passes a
// logic low; exactly 2^k − 1 tree transistors conduct for any input
// vector (one per internal node), and the conducting-path depth is
// k + 2 (k tree levels + buffer + routing switch).
package lutk

import (
	"errors"
	"fmt"

	"selfheal/internal/device"
	"selfheal/internal/units"
)

// LUT is a k-input pass-transistor look-up table. Its devices live in
// a device.Fabric of its own: the tree level by level, then the buffer
// pair and the routing switch, the order Transistors returns.
type LUT struct {
	name string
	k    int
	cfg  []bool // truth table, len 2^k, index = Σ in_j·2^j
	fab  *device.Fabric
	// off[j] is the fabric index of level j's first device. Level j
	// holds 2^(k-j) devices, two per level-j+1 node: off[j]+2n gated
	// by in_j (selects the high child), off[j]+2n+1 by !in_j (low
	// child).
	off []int
}

// MaxK bounds the supported LUT size; commercial fabrics top out at 6.
const MaxK = 8

// New builds a k-input LUT with all configuration cells zero.
func New(name string, k int, dp device.Params) (*LUT, error) {
	if k < 1 || k > MaxK {
		return nil, fmt.Errorf("lutk: k = %d outside 1..%d", k, MaxK)
	}
	l := &LUT{
		name: name,
		k:    k,
		cfg:  make([]bool, 1<<k),
		off:  make([]int, k+1),
	}
	for j := 0; j < k; j++ {
		l.off[j+1] = l.off[j] + 1<<(k-j)
	}
	kinds := make([]device.Kind, l.TransistorCount())
	kinds[l.bufP()] = device.PMOS
	l.fab = device.NewFabric(dp, kinds, l.deviceName)
	return l, nil
}

// deviceName formats the name of the device at fabric index i.
func (l *LUT) deviceName(i int) string {
	switch i {
	case l.bufP():
		return l.name + ".BufP"
	case l.bufP() + 1:
		return l.name + ".BufN"
	case l.bufP() + 2:
		return l.name + ".Route"
	}
	j := 0
	for i >= l.off[j+1] {
		j++
	}
	return fmt.Sprintf("%s.L%dT%d", l.name, j, i-l.off[j])
}

// bufP returns the buffer PMOS's fabric index; BufN and the routing
// switch follow it.
func (l *LUT) bufP() int { return l.off[l.k] }

// K returns the input count.
func (l *LUT) K() int { return l.k }

// Name returns the instance name.
func (l *LUT) Name() string { return l.name }

// TransistorCount returns the total device count:
// 2^(k+1) − 2 tree transistors + buffer pair + routing switch.
func (l *LUT) TransistorCount() int { return (1<<(l.k+1) - 2) + 3 }

// Configure programs the truth table (length must be 2^k).
func (l *LUT) Configure(truth []bool) error {
	if len(truth) != 1<<l.k {
		return fmt.Errorf("lutk: truth table length %d, want %d", len(truth), 1<<l.k)
	}
	copy(l.cfg, truth)
	return nil
}

// ConfigureFunc programs the truth table from a boolean function over
// the input vector.
func (l *LUT) ConfigureFunc(f func(in []bool) bool) {
	in := make([]bool, l.k)
	for idx := range l.cfg {
		for j := 0; j < l.k; j++ {
			in[j] = idx>>j&1 == 1
		}
		l.cfg[idx] = f(in)
	}
}

// ConfigureInverter programs out = !in[k−1] regardless of the other
// inputs — the CUT configuration of the paper's RO, generalized. The
// inverter input is the *last* one so it selects the root mux level,
// matching the 2-input cell of package lut where the toggling input
// drives the final stage while the statically held inputs select near
// the leaves (whose conducting transistors therefore sit under DC
// stress even in AC mode).
func (l *LUT) ConfigureInverter() {
	last := l.k - 1
	l.ConfigureFunc(func(in []bool) bool { return !in[last] })
}

// index folds an input vector into a truth-table index.
func (l *LUT) index(in []bool) int {
	idx := 0
	for j, v := range in {
		if v {
			idx |= 1 << j
		}
	}
	return idx
}

// Eval returns the LUT output for the input vector.
func (l *LUT) Eval(in []bool) (bool, error) {
	if len(in) != l.k {
		return false, fmt.Errorf("lutk: %d inputs, want %d", len(in), l.k)
	}
	return l.cfg[l.index(in)], nil
}

// nodeValues computes the complemented node values of every tree level
// for the given inputs: level 0 is the leaves (!cfg), level j+1 the
// mux outputs selected by in_j.
func (l *LUT) nodeValues(in []bool) [][]bool {
	vals := make([][]bool, l.k+1)
	vals[0] = make([]bool, 1<<l.k)
	for i, c := range l.cfg {
		vals[0][i] = !c
	}
	for j := 0; j < l.k; j++ {
		n := 1 << (l.k - j - 1)
		vals[j+1] = make([]bool, n)
		for node := 0; node < n; node++ {
			if in[j] {
				vals[j+1][node] = vals[j][2*node+1] // high child
			} else {
				vals[j+1][node] = vals[j][2*node]
			}
		}
	}
	return vals
}

// Stressed returns the transistors under BTI stress for a static input
// vector.
func (l *LUT) Stressed(in []bool) ([]device.Transistor, error) {
	idx, err := l.stressed(in)
	if err != nil {
		return nil, err
	}
	return l.views(idx), nil
}

// stressed returns the fabric indices of the devices Stressed returns.
func (l *LUT) stressed(in []bool) ([]int, error) {
	if len(in) != l.k {
		return nil, fmt.Errorf("lutk: %d inputs, want %d", len(in), l.k)
	}
	vals := l.nodeValues(in)
	var out []int
	for j := 0; j < l.k; j++ {
		for node := 0; node < 1<<(l.k-j-1); node++ {
			// The conducting transistor of this node pair passes the
			// selected child; stressed iff that value is low.
			var tr int
			var passed bool
			if in[j] {
				tr = l.off[j] + 2*node // gated by in_j
				passed = vals[j][2*node+1]
			} else {
				tr = l.off[j] + 2*node + 1 // gated by !in_j
				passed = vals[j][2*node]
			}
			if !passed {
				out = append(out, tr)
			}
		}
	}
	mo := vals[l.k][0]
	if !mo {
		out = append(out, l.bufP())
	} else {
		out = append(out, l.bufP()+1)
	}
	if q := !mo; !q {
		out = append(out, l.bufP()+2)
	}
	return out, nil
}

// ConductingPath returns the path of interest: the k selected tree
// transistors from leaf to root, the driving buffer device and the
// routing switch — depth k + 2.
func (l *LUT) ConductingPath(in []bool) ([]device.Transistor, error) {
	if len(in) != l.k {
		return nil, fmt.Errorf("lutk: %d inputs, want %d", len(in), l.k)
	}
	vals := l.nodeValues(in)
	path := make([]int, 0, l.k+2)
	node := l.index(in) // leaf index
	for j := 0; j < l.k; j++ {
		parent := node >> 1
		if in[j] {
			path = append(path, l.off[j]+2*parent)
		} else {
			path = append(path, l.off[j]+2*parent+1)
		}
		node = parent
	}
	buf := l.bufP() + 1
	if !vals[l.k][0] {
		buf = l.bufP()
	}
	path = append(path, buf, l.bufP()+2)
	return l.views(path), nil
}

// PathDelay returns the POI propagation delay in nanoseconds.
func (l *LUT) PathDelay(vdd units.Volt, in []bool) (float64, error) {
	path, err := l.ConductingPath(in)
	if err != nil {
		return 0, err
	}
	return device.PathDelay(vdd, path)
}

// Transistors returns views of every device in the cell: the tree
// level by level, then BufP, BufN and the routing switch.
func (l *LUT) Transistors() []device.Transistor {
	out := make([]device.Transistor, l.fab.Len())
	for i := range out {
		out[i] = l.fab.At(i)
	}
	return out
}

// views returns views of the devices at the given fabric indices.
func (l *LUT) views(idx []int) []device.Transistor {
	out := make([]device.Transistor, len(idx))
	for i, j := range idx {
		out[i] = l.fab.At(j)
	}
	return out
}

// Reset restores every device to the fresh state.
func (l *LUT) Reset() { l.fab.Reset() }

// Phase is a weighted static input pattern, mirroring lut.Phase for
// arbitrary k.
type Phase struct {
	In     []bool
	Weight float64
}

// InverterDCPhase freezes the inverter input in[k−1] at v with the
// other inputs held high.
func InverterDCPhase(k int, v bool) []Phase {
	in := make([]bool, k)
	for j := 0; j < k-1; j++ {
		in[j] = true
	}
	in[k-1] = v
	return []Phase{{In: in, Weight: 1}}
}

// InverterACPhase toggles the inverter input in[k−1] symmetrically with
// the other inputs held high.
func InverterACPhase(k int) []Phase {
	lo := make([]bool, k)
	hi := make([]bool, k)
	for j := 0; j < k-1; j++ {
		lo[j], hi[j] = true, true
	}
	hi[k-1] = true
	return []Phase{{In: lo, Weight: 0.5}, {In: hi, Weight: 0.5}}
}

// StressDuties returns, per transistor (aligned with Transistors()),
// the fraction of time the activity pattern keeps it stressed.
func (l *LUT) StressDuties(phases []Phase) ([]float64, error) {
	if len(phases) == 0 {
		return nil, errors.New("lutk: no phases")
	}
	sum := 0.0
	for _, ph := range phases {
		if ph.Weight < 0 {
			return nil, fmt.Errorf("lutk: negative phase weight %v", ph.Weight)
		}
		sum += ph.Weight
	}
	if sum < 0.999 || sum > 1.001 {
		return nil, fmt.Errorf("lutk: phase weights sum to %v, want 1", sum)
	}
	duties := make([]float64, l.fab.Len())
	for _, ph := range phases {
		stressed, err := l.stressed(ph.In)
		if err != nil {
			return nil, err
		}
		for _, i := range stressed {
			duties[i] += ph.Weight
		}
	}
	for i := range duties {
		duties[i] = units.Clamp(duties[i], 0, 1)
	}
	return duties, nil
}

// MeasuredDelay returns the phase-weighted POI delay in nanoseconds.
func (l *LUT) MeasuredDelay(vdd units.Volt, phases []Phase) (float64, error) {
	if len(phases) == 0 {
		return 0, errors.New("lutk: no phases")
	}
	total, weight := 0.0, 0.0
	for _, ph := range phases {
		d, err := l.PathDelay(vdd, ph.In)
		if err != nil {
			return 0, err
		}
		total += ph.Weight * d
		weight += ph.Weight
	}
	if weight < 0.999 || weight > 1.001 {
		return 0, fmt.Errorf("lutk: phase weights sum to %v, want 1", weight)
	}
	return total, nil
}
