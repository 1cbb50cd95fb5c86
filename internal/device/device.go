// Package device models the individual transistors that make up the
// FPGA's LUTs, buffers and routing switches: their bias-dependent BTI
// stress detection, their aging state, the first-order propagation-delay
// model of the paper (Eqs. 5–7) and a subthreshold leakage model used by
// the system-level metrics (aging slows circuits *and* — one silver
// lining — reduces leakage as Vth rises).
//
// Transistors live in a Fabric: flat arrays of per-transistor
// parameters plus one aging state per duty-history class, which a step
// advances once per distinct (class, action) pair. A Transistor is a
// view into one; New makes a standalone device in a fabric of its own.
package device

import (
	"errors"
	"fmt"
	"math"

	"selfheal/internal/td"
	"selfheal/internal/units"
)

// Kind distinguishes the two transistor polarities, which age under
// opposite bias: PMOS suffers NBTI (Vgs < 0), NMOS suffers PBTI
// (Vgs > 0; significant since high-k/metal-gate nodes).
type Kind uint8

const (
	NMOS Kind = iota
	PMOS
)

// String returns "NMOS" or "PMOS".
func (k Kind) String() string {
	if k == PMOS {
		return "PMOS"
	}
	return "NMOS"
}

// Params holds the electrical constants of a (40 nm-class) transistor.
type Params struct {
	Vth0 units.Volt // fresh threshold-voltage magnitude
	Vdd  units.Volt // nominal supply
	// Td0 is the transistor's fresh contribution to the propagation
	// delay of the path it sits on, in nanoseconds (Eq. 5 evaluated at
	// the fresh operating point).
	Td0NS float64
	// SubthresholdSwingMV is the subthreshold slope in mV/decade, used
	// by the leakage model. Typical 40 nm value ≈ 90 mV/dec.
	SubthresholdSwingMV float64
	// Ileak0NA is the fresh subthreshold leakage in nanoamps.
	Ileak0NA float64
}

// DefaultParams returns 40 nm-class constants consistent with the
// RO calibration: a 4-transistor path of interest per LUT stage with a
// 1.333 ns stage delay gives the paper's 5 MHz-class 75-stage oscillator.
func DefaultParams() Params {
	return Params{
		Vth0:                0.4,
		Vdd:                 1.2,
		Td0NS:               1.3333 / 4,
		SubthresholdSwingMV: 90,
		Ileak0NA:            10,
	}
}

// Validate reports whether the parameters are physically meaningful.
func (p Params) Validate() error {
	switch {
	case p.Vth0 <= 0:
		return errors.New("device: Vth0 must be positive")
	case p.Vdd <= p.Vth0:
		return errors.New("device: Vdd must exceed Vth0")
	case p.Td0NS <= 0:
		return errors.New("device: Td0NS must be positive")
	case p.SubthresholdSwingMV <= 0:
		return errors.New("device: subthreshold swing must be positive")
	case p.Ileak0NA < 0:
		return errors.New("device: leakage must be non-negative")
	}
	return nil
}

// Fabric holds a population of transistors as flat arrays: each one's
// polarity, fabricated threshold and fresh delay, and the index of its
// aging class. A class is one td.State shared by every transistor with
// the same bias history. That is the paper's Hypothesis 1 at work:
// under static inputs the stressed subset is fixed, and process
// variation lives only in Vth0 and Td0NS, which the TD model never
// reads, so transistors stepped alike hold bit-identical state and a
// 2,304-transistor die ages as a handful of classes.
//
// Step aging a whole fabric with BeginStep, Act and EndStep, or Sleep.
// Mutating a single transistor through its view moves it into a class
// of its own first. A Fabric is not safe for concurrent use.
type Fabric struct {
	p     Params // shared constants; Vth0 and Td0NS are per transistor
	kind  []Kind
	vth0  []units.Volt
	td0   []float64
	class []uint32
	name  func(i int) string

	states []td.State // one per class
	size   []int32    // members per class; 0 marks a free slot

	step step
}

// NewFabric returns len(kinds) fresh transistors with parameters p,
// all in one class. name formats transistor i's name; it is called
// only when a name is asked for.
func NewFabric(p Params, kinds []Kind, name func(i int) string) *Fabric {
	n := len(kinds)
	f := &Fabric{
		p:      p,
		kind:   kinds,
		vth0:   make([]units.Volt, n),
		td0:    make([]float64, n),
		class:  make([]uint32, n),
		name:   name,
		states: make([]td.State, 1),
		size:   []int32{int32(n)},
	}
	for i := range f.vth0 {
		f.vth0[i], f.td0[i] = p.Vth0, p.Td0NS
	}
	return f
}

// Len returns the number of transistors.
func (f *Fabric) Len() int { return len(f.class) }

// At returns a view of transistor i.
func (f *Fabric) At(i int) Transistor { return Transistor{f: f, i: i} }

// Vary sets transistor i's fabricated threshold and fresh delay — its
// sampled process variation.
func (f *Fabric) Vary(i int, vth0 units.Volt, td0NS float64) {
	f.vth0[i], f.td0[i] = vth0, td0NS
}

// Classes returns the number of distinct aging states held.
func (f *Fabric) Classes() int {
	n := 0
	for _, s := range f.size {
		if s > 0 {
			n++
		}
	}
	return n
}

// Leakage returns the summed subthreshold leakage of every transistor
// in nanoamps, summed in index order.
func (f *Fabric) Leakage() float64 {
	sum := 0.0
	for i := range f.class {
		sum += f.At(i).Leakage()
	}
	return sum
}

// MeanVthShift returns the average threshold shift in volts.
func (f *Fabric) MeanVthShift() float64 {
	sum := 0.0
	for _, c := range f.class {
		sum += f.states[c].Vth()
	}
	return sum / float64(len(f.class))
}

// Reset returns every transistor to the fresh state, in one class.
func (f *Fabric) Reset() {
	for i := range f.class {
		f.class[i] = 0
	}
	f.states = append(f.states[:0], td.State{})
	f.size = append(f.size[:0], int32(len(f.class)))
}

// ResetRange returns transistors lo … hi−1 to the fresh state.
func (f *Fabric) ResetRange(lo, hi int) {
	fresh := -1
	for c := range f.states {
		if f.size[c] > 0 && f.states[c].Identical(&td.State{}) {
			fresh = c
			break
		}
	}
	if fresh < 0 {
		fresh = f.newClass(td.State{})
	}
	for i := lo; i < hi; i++ {
		f.size[f.class[i]]--
		f.class[i] = uint32(fresh)
		f.size[fresh]++
	}
}

// newClass stores s in a free class slot, or a new one, with no
// members yet.
func (f *Fabric) newClass(s td.State) int {
	for c, n := range f.size {
		if n == 0 {
			f.states[c] = s
			return c
		}
	}
	f.states = append(f.states, s)
	f.size = append(f.size, 0)
	return len(f.states) - 1
}

// own moves transistor i into a class of its own, unless it is alone
// in its class already, and returns that class's state.
func (f *Fabric) own(i int) *td.State {
	c := int(f.class[i])
	if f.size[c] > 1 {
		n := f.newClass(f.states[c])
		f.size[c]--
		f.size[n] = 1
		f.class[i] = uint32(n)
		c = n
	}
	return &f.states[c]
}

// FabricState is a fabric's aging state: its class table. Class[i] is
// transistor i's class, States[c] and Size[c] class c's state and
// member count (0 marks a free slot). Per-transistor parameters are
// not part of it: they are fabricated, not aged.
type FabricState struct {
	Class  []uint32
	Size   []int32
	States []td.State
}

// Check reports whether s is a consistent class table for n
// transistors: every class index names a class, and every class size
// counts its members.
func (s *FabricState) Check(n int) error {
	if len(s.Class) != n {
		return fmt.Errorf("device: class table holds %d transistors, fabric has %d", len(s.Class), n)
	}
	if len(s.Size) != len(s.States) {
		return fmt.Errorf("device: %d class sizes for %d classes", len(s.Size), len(s.States))
	}
	count := make([]int32, len(s.States))
	for i, c := range s.Class {
		if int64(c) >= int64(len(count)) {
			return fmt.Errorf("device: transistor %d in class %d of %d", i, c, len(count))
		}
		count[c]++
	}
	for c, n := range count {
		if s.Size[c] != n {
			return fmt.Errorf("device: class %d has size %d but %d members", c, s.Size[c], n)
		}
	}
	return nil
}

// SaveState copies the fabric's class table into dst, reusing dst's
// slices.
func (f *Fabric) SaveState(dst *FabricState) {
	dst.Class = append(dst.Class[:0], f.class...)
	dst.Size = append(dst.Size[:0], f.size...)
	dst.States = append(dst.States[:0], f.states...)
}

// RestoreState sets the fabric's class table to a copy of src, which
// must pass Check for the fabric's size; the fabric is unchanged when
// it does not.
func (f *Fabric) RestoreState(src *FabricState) error {
	if err := src.Check(f.Len()); err != nil {
		return err
	}
	f.class = append(f.class[:0], src.Class...)
	f.size = append(f.size[:0], src.Size...)
	f.states = append(f.states[:0], src.States...)
	return nil
}

// Sleep heals every transistor for dt under reverse-bias magnitude
// vrev at temp: the unpowered die, where every class recovers alike.
func (f *Fabric) Sleep(p td.Params, vrev units.Volt, temp units.Kelvin, dt units.Seconds) {
	rc := td.RecoveryCond{VRev: abs(vrev), T: temp}
	for c := range f.states {
		if f.size[c] > 0 {
			f.states[c].Recover(p, rc, dt)
		}
	}
}

// step is the scratch of one powered step, reused from step to step
// so that a steady-state step allocates nothing.
type step struct {
	on    bool
	p     td.Params
	sc    td.StressCond // Duty is set per action
	rc    td.RecoveryCond
	dt    units.Seconds
	next  []td.State // the classes after the step
	nsize []int32
	// head[c] is the newest of old class c's (action → new class)
	// pairs, each linked to the previous one; -1 when c has none.
	head  []int32
	pairs []pair
}

type pair struct {
	key  uint64
	prev int32
	out  uint32
}

// acted marks, during a step, a class index that already refers to
// the step's new classes.
const acted = 1 << 31

// Action keys: a stress action is keyed by its duty's bits, which are
// never all zero or all one for a duty > 0.
const (
	keyHold    uint64 = 0
	keyRecover uint64 = ^uint64(0)
)

// BeginStep opens a powered step of dt with the rail at overdrive
// magnitude |v| and the die at temp. Act then gives each driven
// transistor its duty, and EndStep leaves every other transistor as
// it was and closes the step.
func (f *Fabric) BeginStep(p td.Params, v units.Volt, temp units.Kelvin, dt units.Seconds) {
	s := &f.step
	if s.on {
		panic("device: BeginStep inside a step")
	}
	*s = step{
		on: true, p: p, dt: dt,
		sc:    td.StressCond{V: abs(v), T: temp},
		rc:    td.RecoveryCond{T: temp},
		next:  s.next[:0],
		nsize: s.nsize[:0],
		head:  s.head[:0],
		pairs: s.pairs[:0],
	}
	for range f.states {
		s.head = append(s.head, -1)
	}
}

// Act drives transistors base … base+len(duties)−1 for the open step:
// one stressed a fraction duty > 0 of the time ages at that duty; any
// other recovers passively at 0 V while it carries a shift. Each
// transistor may be driven once per step.
func (f *Fabric) Act(base int, duties []float64) {
	s := &f.step
	for j, d := range duties {
		i := base + j
		c := f.class[i]
		if c&acted != 0 {
			panic(fmt.Sprintf("device: transistor %d driven twice in one step", i))
		}
		key := keyHold
		switch {
		case d > 0:
			key = math.Float64bits(d)
		case f.states[c].Vth() > 0:
			key = keyRecover
		}
		k := s.head[c]
		for k >= 0 && s.pairs[k].key != key {
			k = s.pairs[k].prev
		}
		if k < 0 {
			k = f.advance(c, key, d)
		}
		f.class[i] = s.pairs[k].out | acted
	}
}

// EndStep closes the open step: transistors no Act drove keep their
// state, and the step's classes replace the old ones.
func (f *Fabric) EndStep() {
	s := &f.step
	for i, c := range f.class {
		if c&acted != 0 {
			c &^= acted
		} else {
			k := s.head[c]
			for k >= 0 && s.pairs[k].key != keyHold {
				k = s.pairs[k].prev
			}
			if k < 0 {
				k = f.advance(c, keyHold, 0)
			}
			c = s.pairs[k].out
		}
		f.class[i] = c
		s.nsize[c]++
	}
	f.states, s.next = s.next, f.states
	f.size, s.nsize = s.nsize, f.size
	s.on = false
}

// advance integrates old class c under the action key (duty d for a
// stress key), once per step for each distinct (class, action) pair,
// merging a result bit-identical to one of the step's classes so far.
// It returns the new pair's index.
func (f *Fabric) advance(c uint32, key uint64, d float64) int32 {
	s := &f.step
	st := f.states[c]
	switch key {
	case keyHold:
	case keyRecover:
		st.Recover(s.p, s.rc, s.dt)
	default:
		sc := s.sc
		sc.Duty = d
		st.Stress(s.p, sc, s.dt)
	}
	out := -1
	for k := range s.next {
		if s.next[k].Identical(&st) {
			out = k
			break
		}
	}
	if out < 0 {
		s.next = append(s.next, st)
		s.nsize = append(s.nsize, 0)
		out = len(s.next) - 1
	}
	s.pairs = append(s.pairs, pair{key: key, prev: s.head[c], out: uint32(out)})
	s.head[c] = int32(len(s.pairs) - 1)
	return s.head[c]
}

// Transistor is a view of one device in a Fabric: its parameters,
// aging state and delay. A view is a small value; copies view the same
// device. Create a standalone device with New.
type Transistor struct {
	f *Fabric
	i int
}

// New returns a fresh standalone transistor, in a fabric of its own.
func New(name string, kind Kind, p Params) Transistor {
	return NewFabric(p, []Kind{kind}, func(int) string { return name }).At(0)
}

// Name returns the device's instance name.
func (t Transistor) Name() string { return t.f.name(t.i) }

// Kind returns the device's polarity.
func (t Transistor) Kind() Kind { return t.f.kind[t.i] }

// Params returns the device's electrical constants, with its own
// fabricated Vth0 and Td0NS.
func (t Transistor) Params() Params {
	p := t.f.p
	p.Vth0, p.Td0NS = t.f.vth0[t.i], t.f.td0[t.i]
	return p
}

// Stressed reports whether the given gate-source bias puts the device in
// its BTI stress region: Vgs > 0 for NMOS (PBTI), Vgs < 0 for PMOS
// (NBTI). A bias magnitude under half the threshold is treated as
// unstressed — pass transistors conducting a weak-high sit near
// Vgs ≈ Vth and accumulate negligible damage.
func (t Transistor) Stressed(vgs units.Volt) bool {
	half := t.f.vth0[t.i] / 2
	switch t.Kind() {
	case PMOS:
		return vgs < -half
	default:
		return vgs > half
	}
}

// VthShift returns the current total threshold shift magnitude in volts.
func (t Transistor) VthShift() float64 {
	return t.f.states[t.f.class[t.i]].Vth()
}

// Stress ages the device for dt under the given overdrive magnitude and
// temperature with the given duty cycle.
func (t Transistor) Stress(p td.Params, v units.Volt, temp units.Kelvin, duty float64, dt units.Seconds) {
	t.f.own(t.i).Stress(p, td.StressCond{V: abs(v), T: temp, Duty: duty}, dt)
}

// Recover heals the device for dt under the given reverse-bias magnitude
// and temperature.
func (t Transistor) Recover(p td.Params, vrev units.Volt, temp units.Kelvin, dt units.Seconds) {
	t.f.own(t.i).Recover(p, td.RecoveryCond{VRev: abs(vrev), T: temp}, dt)
}

// Delay returns the device's present contribution to path delay in
// nanoseconds at supply vdd, following the paper's first-order model:
//
//	td ∝ CL·Vdd/(Vdd − Vth)                     (Eq. 5)
//	Δtd ≈ td0 · ΔVth/(Vdd − Vth0)               (Eq. 6)
//
// so Delay = Td0·(1 + ΔVth/(Vdd − Vth0)), with the fresh Td0 itself
// rescaled when operating at a non-nominal supply.
func (t Transistor) Delay(vdd units.Volt) (float64, error) {
	f, i := t.f, t.i
	vth0 := f.vth0[i]
	if vdd <= vth0 {
		return 0, fmt.Errorf("device %s: supply %v at or below threshold %v, no switching",
			t.Name(), vdd, vth0)
	}
	od0 := float64(f.p.Vdd - vth0)
	od := float64(vdd - vth0)
	// Fresh delay rescaled to the operating supply (td ∝ Vdd/(Vdd−Vth)).
	fresh := f.td0[i] * (float64(vdd) / float64(f.p.Vdd)) * (od0 / od)
	return fresh * (1 + t.VthShift()/od), nil
}

// DelayShift returns Δtd in nanoseconds at the nominal supply (Eq. 6).
func (t Transistor) DelayShift() float64 {
	return t.f.td0[t.i] * t.VthShift() / float64(t.f.p.Vdd-t.f.vth0[t.i])
}

// Leakage returns the present subthreshold leakage in nanoamps:
// Isub ∝ 10^(−ΔVth/S). Aging reduces leakage — the one metric BTI
// improves — which the multi-core energy accounting credits.
func (t Transistor) Leakage() float64 {
	s := t.f.p.SubthresholdSwingMV / 1000 // V per decade
	return t.f.p.Ileak0NA * math.Pow(10, -t.VthShift()/s)
}

// Reset restores the fresh state.
func (t Transistor) Reset() { t.f.ResetRange(t.i, t.i+1) }

func abs(v units.Volt) units.Volt {
	if v < 0 {
		return -v
	}
	return v
}

// PathDelay sums the Delay of every transistor in the slice at supply
// vdd — the paper's Eq. 7: ΔTd = Σ Δtd over the path of interest.
func PathDelay(vdd units.Volt, path []Transistor) (float64, error) {
	total := 0.0
	for _, tr := range path {
		d, err := tr.Delay(vdd)
		if err != nil {
			return 0, err
		}
		total += d
	}
	return total, nil
}
