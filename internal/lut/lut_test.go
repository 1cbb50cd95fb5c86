package lut

import (
	"math"
	"testing"
	"testing/quick"

	"selfheal/internal/device"
	"selfheal/internal/td"
	"selfheal/internal/units"
)

func newLUT(t *testing.T) *LUT2 {
	t.Helper()
	return New("L0", device.DefaultParams())
}

// TestEvalExhaustive checks Eval against the truth table for all 16
// configurations and all 4 input patterns.
func TestEvalExhaustive(t *testing.T) {
	l := newLUT(t)
	for c := 0; c < 16; c++ {
		var cfg [4]bool
		for b := 0; b < 4; b++ {
			cfg[b] = c>>b&1 == 1
		}
		l.Configure(cfg)
		for i := 0; i < 4; i++ {
			in0, in1 := i>>1 == 1, i&1 == 1
			want := cfg[i]
			if got := l.Eval(in0, in1); got != want {
				t.Errorf("cfg %04b Eval(%v,%v) = %v, want %v", c, in0, in1, got, want)
			}
		}
	}
}

func TestConfigureFunc(t *testing.T) {
	l := newLUT(t)
	l.ConfigureFunc(func(in0, in1 bool) bool { return in0 != in1 }) // XOR
	for i := 0; i < 4; i++ {
		in0, in1 := i>>1 == 1, i&1 == 1
		if got := l.Eval(in0, in1); got != (in0 != in1) {
			t.Errorf("XOR Eval(%v,%v) = %v", in0, in1, got)
		}
	}
}

func TestConfigureInverter(t *testing.T) {
	l := newLUT(t)
	l.ConfigureInverter()
	if l.Eval(false, true) != true || l.Eval(true, true) != false {
		t.Error("inverter truth table wrong with in1 high")
	}
	// Robust to in1 low as well.
	if l.Eval(false, false) != true || l.Eval(true, false) != false {
		t.Error("inverter truth table wrong with in1 low")
	}
}

// TestInverterStressSets pins down the paper's Section 3.2 example: the
// DC stress sets for the LUT inverter are distinct for the two input
// values, have constant size (Hypothesis 1), and always include the
// statically stressed level-1 device.
func TestInverterStressSets(t *testing.T) {
	l := newLUT(t)
	l.ConfigureInverter()

	high := l.StressedMask(true, true)
	wantHigh := [NumTransistors]bool{M1: true, BufN: true, Route: true}
	if high != wantHigh {
		t.Errorf("stress mask in0=1: %v, want %v", high, wantHigh)
	}
	low := l.StressedMask(false, true)
	wantLow := [NumTransistors]bool{M1: true, M6: true, BufP: true}
	if low != wantLow {
		t.Errorf("stress mask in0=0: %v, want %v", low, wantLow)
	}

	// Hypothesis 1: constant stressed count once inputs are fixed.
	if len(l.StressSet(true, true)) != 3 || len(l.StressSet(false, true)) != 3 {
		t.Error("stress set size not constant")
	}
}

// TestStressSetDeterministic is Hypothesis 1 as a property: for any
// configuration and static inputs the stressed subset is a fixed
// function of (cfg, inputs).
func TestStressSetDeterministic(t *testing.T) {
	f := func(c uint8, i uint8) bool {
		l := New("p", device.DefaultParams())
		var cfg [4]bool
		for b := 0; b < 4; b++ {
			cfg[b] = c>>b&1 == 1
		}
		l.Configure(cfg)
		in0, in1 := i&1 == 1, i&2 == 2
		return l.StressedMask(in0, in1) == l.StressedMask(in0, in1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestStressMaskBufferComplement checks exactly one buffer device is
// stressed for any static pattern (its input is always driven).
func TestStressMaskBufferComplement(t *testing.T) {
	f := func(c uint8, i uint8) bool {
		l := New("p", device.DefaultParams())
		var cfg [4]bool
		for b := 0; b < 4; b++ {
			cfg[b] = c>>b&1 == 1
		}
		l.Configure(cfg)
		m := l.StressedMask(i&1 == 1, i&2 == 2)
		return m[BufP] != m[BufN]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestConductingPathDepth4(t *testing.T) {
	l := newLUT(t)
	l.ConfigureInverter()
	for i := 0; i < 4; i++ {
		in0, in1 := i>>1 == 1, i&1 == 1
		path := l.ConductingPath(in0, in1)
		if len(path) != 4 {
			t.Fatalf("POI depth = %d, want 4 (LD in the paper's Eq. 7)", len(path))
		}
		// Route is always the last element.
		if path[3] != l.Transistors()[Route] {
			t.Error("routing switch not on POI")
		}
	}
	// Different input selects a different level-1 device.
	p1 := l.ConductingPath(true, true)
	p0 := l.ConductingPath(false, true)
	if p1[0] == p0[0] {
		t.Error("level-1 selection insensitive to inputs")
	}
}

func TestFreshPathDelayCalibration(t *testing.T) {
	l := newLUT(t)
	l.ConfigureInverter()
	d, err := l.PathDelay(1.2, true, true)
	if err != nil {
		t.Fatal(err)
	}
	// 4 transistors × Td0 = stage delay ≈ 1.3333 ns → 75-stage RO at
	// 5 MHz.
	if math.Abs(d-1.3333) > 1e-3 {
		t.Errorf("fresh stage delay = %v ns, want ≈1.3333", d)
	}
}

func TestPathDelayErrorPropagates(t *testing.T) {
	l := newLUT(t)
	l.ConfigureInverter()
	if _, err := l.PathDelay(0.1, true, true); err == nil {
		t.Error("sub-threshold supply accepted")
	}
}

func TestStressDutiesDC(t *testing.T) {
	l := newLUT(t)
	l.ConfigureInverter()
	duties, err := l.StressDuties(DCPhase(true, true))
	if err != nil {
		t.Fatal(err)
	}
	want := [NumTransistors]float64{M1: 1, BufN: 1, Route: 1}
	if duties != want {
		t.Errorf("DC duties = %v, want %v", duties, want)
	}
}

// TestStressDutiesAC pins the structural insight: under AC stress the
// level-1 mux transistor M1 stays at duty 1 (its config cell never
// toggles) while the downstream devices toggle at duty 0.5.
func TestStressDutiesAC(t *testing.T) {
	l := newLUT(t)
	l.ConfigureInverter()
	duties, err := l.StressDuties(ACPhase())
	if err != nil {
		t.Fatal(err)
	}
	want := [NumTransistors]float64{M1: 1, M6: 0.5, BufP: 0.5, BufN: 0.5, Route: 0.5}
	if duties != want {
		t.Errorf("AC duties = %v, want %v", duties, want)
	}
}

func TestStressDutiesBadPhases(t *testing.T) {
	l := newLUT(t)
	cases := [][]Phase{
		nil,
		{{Weight: 0.4}},
		{{Weight: -0.5}, {Weight: 1.5}},
		{{Weight: 0.7}, {Weight: 0.7}},
	}
	for i, phases := range cases {
		if _, err := l.StressDuties(phases); err == nil {
			t.Errorf("case %d: bad phases accepted", i)
		}
		if _, err := l.MeasuredDelay(1.2, phases); err == nil {
			t.Errorf("case %d: MeasuredDelay accepted bad phases", i)
		}
	}
}

// TestHypothesis2RecoveryOnlyAffectsStressed: healing a LUT whose
// stress touched only some devices leaves the fresh devices exactly
// fresh.
func TestHypothesis2RecoveryOnlyAffectsStressed(t *testing.T) {
	l := newLUT(t)
	l.ConfigureInverter()
	tp := td.DefaultParams()
	hot := units.Celsius(110).Kelvin()

	duties, err := l.StressDuties(DCPhase(true, true))
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range l.Transistors() {
		if duties[i] > 0 {
			tr.Stress(tp, 1.2, hot, duties[i], 24*units.Hour)
		}
	}
	// All devices "recover" (the whole chip sleeps).
	for _, tr := range l.Transistors() {
		tr.Recover(tp, 0.3, hot, 6*units.Hour)
	}
	for i, tr := range l.Transistors() {
		if duties[i] == 0 && tr.VthShift() != 0 {
			t.Errorf("fresh transistor %s acquired shift %v during recovery",
				tr.Name(), tr.VthShift())
		}
		if duties[i] > 0 && tr.VthShift() <= 0 {
			t.Errorf("stressed transistor %s lost its entire shift", tr.Name())
		}
	}
}

// TestMeasuredDelayAveragesPhases: the RO-visible delay is the
// phase-weighted average, so a stress pattern that only slows one phase
// shows up at half weight.
func TestMeasuredDelayAveragesPhases(t *testing.T) {
	l := newLUT(t)
	l.ConfigureInverter()
	fresh, err := l.MeasuredDelay(1.2, ACPhase())
	if err != nil {
		t.Fatal(err)
	}
	tp := td.DefaultParams()
	hot := units.Celsius(110).Kelvin()
	// Stress only BufN (on the in0=1 phase path).
	l.Transistors()[BufN].Stress(tp, 1.2, hot, 1, 24*units.Hour)
	aged, err := l.MeasuredDelay(1.2, ACPhase())
	if err != nil {
		t.Fatal(err)
	}
	full, err := l.PathDelay(1.2, true, true)
	if err != nil {
		t.Fatal(err)
	}
	freshPhase, err := l.PathDelay(1.2, false, true)
	if err != nil {
		t.Fatal(err)
	}
	wantAvg := (full + freshPhase) / 2
	if math.Abs(aged-wantAvg) > 1e-12 {
		t.Errorf("measured delay %v, want %v", aged, wantAvg)
	}
	if aged <= fresh {
		t.Error("aging invisible in measured delay")
	}
}

func TestLeakageAndReset(t *testing.T) {
	l := newLUT(t)
	l.ConfigureInverter()
	fresh := l.Leakage()
	if fresh <= 0 {
		t.Fatal("no fresh leakage")
	}
	tp := td.DefaultParams()
	hot := units.Celsius(110).Kelvin()
	l.Transistors()[M1].Stress(tp, 1.2, hot, 1, 24*units.Hour)
	if aged := l.Leakage(); aged >= fresh {
		t.Errorf("leakage did not drop: %v -> %v", fresh, aged)
	}
	l.Reset()
	if got := l.Leakage(); got != fresh {
		t.Errorf("reset leakage = %v, want %v", got, fresh)
	}
	for _, tr := range l.Transistors() {
		if tr.VthShift() != 0 {
			t.Errorf("%s not reset", tr.Name())
		}
	}
}

// TestXorStressSets pins the stress analysis for a second realistic
// configuration: a XOR gate's stressed subset depends on both inputs,
// and every static pattern stresses exactly one level-1, one level-2
// and one buffer device plus possibly the routing switch.
func TestXorStressSets(t *testing.T) {
	l := newLUT(t)
	l.ConfigureFunc(func(a, b bool) bool { return a != b })
	for i := 0; i < 4; i++ {
		in0, in1 := i>>1 == 1, i&1 == 1
		mask := l.StressedMask(in0, in1)
		level1 := btoi(mask[M1]) + btoi(mask[M2]) + btoi(mask[M3]) + btoi(mask[M4])
		level2 := btoi(mask[M5]) + btoi(mask[M6])
		bufs := btoi(mask[BufP]) + btoi(mask[BufN])
		// XOR's complemented cells alternate, so for any static input
		// exactly one of the two conducting level-1 devices passes a
		// low, the conducting level-2 device may or may not, and
		// exactly one buffer device is biased.
		if level1 != 1 {
			t.Errorf("in=(%v,%v): %d level-1 devices stressed, want 1", in0, in1, level1)
		}
		if level2 > 1 {
			t.Errorf("in=(%v,%v): %d level-2 devices stressed", in0, in1, level2)
		}
		if bufs != 1 {
			t.Errorf("in=(%v,%v): %d buffer devices stressed, want 1", in0, in1, bufs)
		}
		// Route is stressed exactly when the XOR output is low.
		if mask[Route] != !l.Eval(in0, in1) {
			t.Errorf("in=(%v,%v): route stress %v, output %v", in0, in1, mask[Route], l.Eval(in0, in1))
		}
	}
}

// TestConstantConfigStressSets: a constant-false LUT never stresses its
// routing switch's high path and always stresses the same buffer device
// regardless of inputs — frozen logic has frozen wear.
func TestConstantConfigStressSets(t *testing.T) {
	l := newLUT(t)
	l.ConfigureFunc(func(a, b bool) bool { return false })
	first := l.StressedMask(false, false)
	for i := 1; i < 4; i++ {
		in0, in1 := i>>1 == 1, i&1 == 1
		mask := l.StressedMask(in0, in1)
		if mask[BufP] != first[BufP] || mask[BufN] != first[BufN] || mask[Route] != first[Route] {
			t.Errorf("in=(%v,%v): output-side stress changed for constant logic", in0, in1)
		}
	}
	// Constant-false output: route carries a low → stressed; buffer
	// input high (complemented store) → BufN stressed.
	if !first[Route] || !first[BufN] || first[BufP] {
		t.Errorf("constant-false stress pattern wrong: %v", first)
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func TestTransistorNaming(t *testing.T) {
	l := New("X3Y7", device.DefaultParams())
	if got := l.Transistors()[Route].Name(); got != "X3Y7.Route" {
		t.Errorf("Route name = %q", got)
	}
	if l.Name() != "X3Y7" {
		t.Errorf("Name = %q", l.Name())
	}
}

func BenchmarkStressDuties(b *testing.B) {
	l := New("b", device.DefaultParams())
	l.ConfigureInverter()
	phases := ACPhase()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.StressDuties(phases); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMeasuredDelay(b *testing.B) {
	l := New("b", device.DefaultParams())
	l.ConfigureInverter()
	phases := ACPhase()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.MeasuredDelay(1.2, phases); err != nil {
			b.Fatal(err)
		}
	}
}
