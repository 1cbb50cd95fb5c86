package lutk

import (
	"math"
	"testing"
	"testing/quick"

	"selfheal/internal/device"
	"selfheal/internal/lut"
	"selfheal/internal/td"
	"selfheal/internal/units"
)

func newLUT(t *testing.T, k int) *LUT {
	t.Helper()
	l, err := New("K", k, device.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func bits(k, idx int) []bool {
	in := make([]bool, k)
	for j := 0; j < k; j++ {
		in[j] = idx>>j&1 == 1
	}
	return in
}

func TestNewValidation(t *testing.T) {
	if _, err := New("x", 0, device.DefaultParams()); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := New("x", MaxK+1, device.DefaultParams()); err == nil {
		t.Error("k too large accepted")
	}
}

func TestTransistorCount(t *testing.T) {
	for k := 1; k <= 6; k++ {
		l := newLUT(t, k)
		want := (1<<(k+1) - 2) + 3
		if got := l.TransistorCount(); got != want {
			t.Errorf("k=%d: count = %d, want %d", k, got, want)
		}
		if got := len(l.Transistors()); got != want {
			t.Errorf("k=%d: Transistors() = %d, want %d", k, got, want)
		}
	}
}

// TestEvalExhaustive checks truth-table fidelity for k = 1..4 over all
// configurations sampled and all input vectors.
func TestEvalExhaustive(t *testing.T) {
	for k := 1; k <= 4; k++ {
		l := newLUT(t, k)
		// A hash-like truth table exercises both polarities everywhere.
		truth := make([]bool, 1<<k)
		for i := range truth {
			truth[i] = (i*2654435761)>>3&1 == 1
		}
		if err := l.Configure(truth); err != nil {
			t.Fatal(err)
		}
		for idx := 0; idx < 1<<k; idx++ {
			got, err := l.Eval(bits(k, idx))
			if err != nil {
				t.Fatal(err)
			}
			if got != truth[idx] {
				t.Errorf("k=%d idx=%d: Eval = %v, want %v", k, idx, got, truth[idx])
			}
		}
	}
}

func TestConfigureValidation(t *testing.T) {
	l := newLUT(t, 3)
	if err := l.Configure(make([]bool, 4)); err == nil {
		t.Error("short truth table accepted")
	}
	if _, err := l.Eval([]bool{true}); err == nil {
		t.Error("short input vector accepted")
	}
	if _, err := l.Stressed([]bool{true}); err == nil {
		t.Error("short input vector accepted by Stressed")
	}
	if _, err := l.ConductingPath([]bool{true}); err == nil {
		t.Error("short input vector accepted by ConductingPath")
	}
}

// TestMatchesLUT2 cross-validates the generic tree against the
// hand-built 2-input cell of package lut: same inverter configuration,
// same conducting-path depth and same stressed-device count for both
// static phases.
func TestMatchesLUT2(t *testing.T) {
	gen := newLUT(t, 2)
	gen.ConfigureInverter()
	ref := lut.New("ref", device.DefaultParams())
	ref.ConfigureInverter()

	for _, in0 := range []bool{false, true} {
		// lutk's inverter input is in[k−1]; lut's is in0. Same netlist
		// role: it selects the root mux level.
		in := []bool{true, in0}
		genPath, err := gen.ConductingPath(in)
		if err != nil {
			t.Fatal(err)
		}
		refPath := ref.ConductingPath(in0, true)
		if len(genPath) != len(refPath) {
			t.Errorf("in0=%v: path depth %d vs %d", in0, len(genPath), len(refPath))
		}
		genStressed, err := gen.Stressed(in)
		if err != nil {
			t.Fatal(err)
		}
		refStressed := ref.StressSet(in0, true)
		if len(genStressed) != len(refStressed) {
			t.Errorf("in0=%v: stressed %d vs %d devices", in0, len(genStressed), len(refStressed))
		}
	}
}

func TestPathDepthIsKPlus2(t *testing.T) {
	for k := 1; k <= 6; k++ {
		l := newLUT(t, k)
		l.ConfigureInverter()
		path, err := l.ConductingPath(bits(k, (1<<k)-1))
		if err != nil {
			t.Fatal(err)
		}
		if len(path) != k+2 {
			t.Errorf("k=%d: POI depth = %d, want %d", k, len(path), k+2)
		}
	}
}

func TestFreshPathDelayScalesWithK(t *testing.T) {
	dp := device.DefaultParams()
	var prev float64
	for k := 2; k <= 6; k++ {
		l, err := New("K", k, dp)
		if err != nil {
			t.Fatal(err)
		}
		l.ConfigureInverter()
		d, err := l.PathDelay(1.2, bits(k, 0))
		if err != nil {
			t.Fatal(err)
		}
		want := float64(k+2) * dp.Td0NS
		if math.Abs(d-want) > 1e-12 {
			t.Errorf("k=%d: fresh delay %v, want %v", k, d, want)
		}
		if d <= prev {
			t.Errorf("k=%d: delay not increasing with k", k)
		}
		prev = d
	}
}

// TestStressedCountProperty: for any configuration and input vector,
// the stressed set is a subset of the conducting devices plus exactly
// one buffer device, and its size is bounded by 2^k − 1 tree
// transistors + buffer + route.
func TestStressedCountProperty(t *testing.T) {
	f := func(cfgBits uint16, inBits uint8) bool {
		const k = 4
		l, err := New("p", k, device.DefaultParams())
		if err != nil {
			return false
		}
		truth := make([]bool, 1<<k)
		for i := range truth {
			truth[i] = cfgBits>>i&1 == 1
		}
		if err := l.Configure(truth); err != nil {
			return false
		}
		in := bits(k, int(inBits)&(1<<k-1))
		stressed, err := l.Stressed(in)
		if err != nil {
			return false
		}
		return len(stressed) <= (1<<k-1)+2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestStressedDeterministic is Hypothesis 1 for arbitrary k.
func TestStressedDeterministic(t *testing.T) {
	l := newLUT(t, 5)
	l.ConfigureInverter()
	in := bits(5, 17)
	a, err := l.Stressed(in)
	if err != nil {
		t.Fatal(err)
	}
	b, err := l.Stressed(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("non-deterministic stressed set: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("stressed set ordering changed")
		}
	}
}

func TestExactlyOneBufferStressed(t *testing.T) {
	for k := 1; k <= 5; k++ {
		l := newLUT(t, k)
		l.ConfigureInverter()
		for idx := 0; idx < 1<<k; idx++ {
			stressed, err := l.Stressed(bits(k, idx))
			if err != nil {
				t.Fatal(err)
			}
			bufs := 0
			bufP, bufN := l.fab.At(l.bufP()), l.fab.At(l.bufP()+1)
			for _, tr := range stressed {
				if tr == bufP || tr == bufN {
					bufs++
				}
			}
			if bufs != 1 {
				t.Errorf("k=%d idx=%d: %d buffer devices stressed, want 1", k, idx, bufs)
			}
		}
	}
}

func TestInverterPhases(t *testing.T) {
	dc := InverterDCPhase(4, true)
	if len(dc) != 1 || !dc[0].In[3] || !dc[0].In[0] || dc[0].Weight != 1 {
		t.Errorf("DC phase = %+v", dc)
	}
	if low := InverterDCPhase(4, false); low[0].In[3] || !low[0].In[0] {
		t.Errorf("DC low phase = %+v", low)
	}
	ac := InverterACPhase(4)
	if len(ac) != 2 || ac[0].In[3] || !ac[1].In[3] || !ac[0].In[0] {
		t.Errorf("AC phases = %+v", ac)
	}
	if ac[0].Weight+ac[1].Weight != 1 {
		t.Error("AC weights do not sum to 1")
	}
}

func TestStressDutiesValidation(t *testing.T) {
	l := newLUT(t, 3)
	l.ConfigureInverter()
	if _, err := l.StressDuties(nil); err == nil {
		t.Error("no phases accepted")
	}
	if _, err := l.StressDuties([]Phase{{In: bits(3, 0), Weight: 0.4}}); err == nil {
		t.Error("weights not summing to 1 accepted")
	}
	if _, err := l.StressDuties([]Phase{{In: bits(3, 0), Weight: -1}, {In: bits(3, 1), Weight: 2}}); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := l.MeasuredDelay(1.2, nil); err == nil {
		t.Error("MeasuredDelay with no phases accepted")
	}
	if _, err := l.MeasuredDelay(1.2, []Phase{{In: bits(3, 0), Weight: 0.2}}); err == nil {
		t.Error("MeasuredDelay with bad weights accepted")
	}
}

// relDegradation stresses an inverter-configured k-LUT for 24 h at
// 110 °C under the given activity and returns the oscillation-averaged
// relative POI delay degradation.
func relDegradation(t *testing.T, k int, ac bool) float64 {
	t.Helper()
	tp := td.DefaultParams()
	hot := units.Celsius(110).Kelvin()
	l := newLUT(t, k)
	l.ConfigureInverter()
	osc := InverterACPhase(k)
	fresh, err := l.MeasuredDelay(1.2, osc)
	if err != nil {
		t.Fatal(err)
	}
	activity := InverterDCPhase(k, true)
	if ac {
		activity = osc
	}
	duties, err := l.StressDuties(activity)
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range l.Transistors() {
		if duties[i] > 0 {
			tr.Stress(tp, 1.2, hot, duties[i], 24*units.Hour)
		}
	}
	aged, err := l.MeasuredDelay(1.2, osc)
	if err != nil {
		t.Fatal(err)
	}
	return (aged - fresh) / fresh
}

// TestAgingAcrossK is the ref-[18]-style LUT-implementation study at
// unit scale, pinning two structural findings of the pass-transistor
// tree:
//
//  1. Under DC stress the *relative* degradation is k-invariant: each
//     extra mux level adds one stressed on-path transistor and one unit
//     of fresh path depth, so the two cancel.
//  2. Under AC stress larger LUTs degrade *more* relatively: the
//     statically selected lower levels stay under DC stress (config
//     cells never toggle) and their count grows with k, while the
//     toggling devices only accumulate the reduced AC shift.
func TestAgingAcrossK(t *testing.T) {
	ks := []int{2, 4, 6}
	var dc, ac []float64
	for _, k := range ks {
		dc = append(dc, relDegradation(t, k, false))
		ac = append(ac, relDegradation(t, k, true))
	}
	for i, k := range ks {
		if dc[i] <= 0 || ac[i] <= 0 {
			t.Fatalf("k=%d: no degradation (dc=%v ac=%v)", k, dc[i], ac[i])
		}
	}
	// Finding 1: DC relative degradation k-invariant (±2 %).
	for i := 1; i < len(ks); i++ {
		if math.Abs(dc[i]-dc[0])/dc[0] > 0.02 {
			t.Errorf("DC degradation not k-invariant: k=%d %.5f vs k=2 %.5f", ks[i], dc[i], dc[0])
		}
	}
	// Finding 2: AC relative degradation strictly grows with k, and the
	// AC/DC ratio rises toward DC.
	for i := 1; i < len(ks); i++ {
		if ac[i] <= ac[i-1] {
			t.Errorf("AC degradation not increasing: k=%d %.5f vs k=%d %.5f",
				ks[i], ac[i], ks[i-1], ac[i-1])
		}
	}
	if r2, r6 := ac[0]/dc[0], ac[2]/dc[2]; r6 <= r2 {
		t.Errorf("AC/DC ratio not rising with k: %.3f (k=2) vs %.3f (k=6)", r2, r6)
	}
}

func TestReset(t *testing.T) {
	l := newLUT(t, 3)
	l.ConfigureInverter()
	tp := td.DefaultParams()
	l.Transistors()[0].Stress(tp, 1.2, units.Celsius(110).Kelvin(), 1, units.Hour)
	l.Reset()
	for _, tr := range l.Transistors() {
		if tr.VthShift() != 0 {
			t.Fatalf("%s not reset", tr.Name())
		}
	}
}

func BenchmarkStressedK6(b *testing.B) {
	l, err := New("b", 6, device.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	l.ConfigureInverter()
	in := bits(6, 21)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Stressed(in); err != nil {
			b.Fatal(err)
		}
	}
}
