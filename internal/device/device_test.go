package device

import (
	"math"
	"testing"
	"testing/quick"

	"selfheal/internal/td"
	"selfheal/internal/units"
)

var hot = units.Celsius(110).Kelvin()

func TestDefaultParamsValid(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	mods := []func(*Params){
		func(p *Params) { p.Vth0 = 0 },
		func(p *Params) { p.Vdd = p.Vth0 },
		func(p *Params) { p.Td0NS = 0 },
		func(p *Params) { p.SubthresholdSwingMV = 0 },
		func(p *Params) { p.Ileak0NA = -1 },
	}
	for i, mod := range mods {
		p := DefaultParams()
		mod(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d not rejected", i)
		}
	}
}

func TestKindString(t *testing.T) {
	if NMOS.String() != "NMOS" || PMOS.String() != "PMOS" {
		t.Error("Kind.String wrong")
	}
}

func TestStressedBiasRegions(t *testing.T) {
	n := New("n", NMOS, DefaultParams())
	p := New("p", PMOS, DefaultParams())
	cases := []struct {
		vgs          units.Volt
		nWant, pWant bool
	}{
		{1.2, true, false},   // full positive bias: PBTI stress for NMOS
		{-1.2, false, true},  // full negative bias: NBTI stress for PMOS
		{0, false, false},    // unbiased
		{0.1, false, false},  // below half-threshold: weak, ignored
		{-0.1, false, false}, // below half-threshold: weak, ignored
		{0.3, true, false},   // above half of Vth0=0.4
		{-0.3, false, true},
	}
	for _, c := range cases {
		if got := n.Stressed(c.vgs); got != c.nWant {
			t.Errorf("NMOS.Stressed(%v) = %v, want %v", c.vgs, got, c.nWant)
		}
		if got := p.Stressed(c.vgs); got != c.pWant {
			t.Errorf("PMOS.Stressed(%v) = %v, want %v", c.vgs, got, c.pWant)
		}
	}
}

func TestFreshDelayAtNominal(t *testing.T) {
	tr := New("m1", NMOS, DefaultParams())
	d, err := tr.Delay(1.2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d-tr.Params().Td0NS) > 1e-12 {
		t.Errorf("fresh delay = %v, want Td0 %v", d, tr.Params().Td0NS)
	}
}

func TestDelayGrowsWithAging(t *testing.T) {
	tr := New("m1", NMOS, DefaultParams())
	fresh, _ := tr.Delay(1.2)
	tr.Stress(td.DefaultParams(), 1.2, hot, 1, 24*units.Hour)
	aged, err := tr.Delay(1.2)
	if err != nil {
		t.Fatal(err)
	}
	if aged <= fresh {
		t.Errorf("aged delay %v not above fresh %v", aged, fresh)
	}
	// Eq. 6 check: Δtd = td0·ΔVth/(Vdd−Vth0).
	want := fresh * tr.VthShift() / 0.8
	if math.Abs((aged-fresh)-want) > 1e-12 {
		t.Errorf("Δtd = %v, want %v", aged-fresh, want)
	}
	if math.Abs(tr.DelayShift()-(aged-fresh)) > 1e-12 {
		t.Errorf("DelayShift = %v, want %v", tr.DelayShift(), aged-fresh)
	}
}

func TestDelayIncreasesAtLowerSupply(t *testing.T) {
	tr := New("m1", NMOS, DefaultParams())
	nominal, _ := tr.Delay(1.2)
	low, err := tr.Delay(1.0)
	if err != nil {
		t.Fatal(err)
	}
	if low <= nominal {
		t.Errorf("delay at 1.0 V (%v) not above 1.2 V (%v)", low, nominal)
	}
}

func TestDelayErrorsBelowThreshold(t *testing.T) {
	tr := New("m1", NMOS, DefaultParams())
	if _, err := tr.Delay(0.4); err == nil {
		t.Error("Delay at Vth accepted")
	}
	if _, err := tr.Delay(0); err == nil {
		t.Error("Delay at 0 V accepted")
	}
}

func TestRecoverReducesDelay(t *testing.T) {
	tr := New("m1", NMOS, DefaultParams())
	tp := td.DefaultParams()
	tr.Stress(tp, 1.2, hot, 1, 24*units.Hour)
	aged, _ := tr.Delay(1.2)
	tr.Recover(tp, 0.3, hot, 6*units.Hour)
	healed, _ := tr.Delay(1.2)
	if healed >= aged {
		t.Errorf("recovery did not reduce delay: %v -> %v", aged, healed)
	}
	fresh := tr.Params().Td0NS
	if healed < fresh {
		t.Errorf("recovered below fresh delay: %v < %v", healed, fresh)
	}
}

func TestNegativeVrevMagnitude(t *testing.T) {
	// Passing the rail voltage (−0.3) or its magnitude (0.3) must heal
	// identically: the model works with magnitudes.
	tp := td.DefaultParams()
	a := New("a", NMOS, DefaultParams())
	b := New("b", NMOS, DefaultParams())
	a.Stress(tp, 1.2, hot, 1, 24*units.Hour)
	b.Stress(tp, 1.2, hot, 1, 24*units.Hour)
	a.Recover(tp, -0.3, hot, 6*units.Hour)
	b.Recover(tp, 0.3, hot, 6*units.Hour)
	if a.VthShift() != b.VthShift() {
		t.Errorf("sign sensitivity: %v vs %v", a.VthShift(), b.VthShift())
	}
}

func TestLeakageDropsWithAging(t *testing.T) {
	tr := New("m1", NMOS, DefaultParams())
	fresh := tr.Leakage()
	if fresh != tr.Params().Ileak0NA {
		t.Errorf("fresh leakage = %v", fresh)
	}
	tr.Stress(td.DefaultParams(), 1.2, hot, 1, 24*units.Hour)
	if aged := tr.Leakage(); aged >= fresh {
		t.Errorf("leakage did not drop with aging: %v -> %v", fresh, aged)
	}
}

func TestLeakageDecadePerSwing(t *testing.T) {
	tr := New("m1", NMOS, DefaultParams())
	// Force a shift of exactly one subthreshold swing (90 mV) and check
	// a 10x leakage reduction using the td state indirectly: instead,
	// verify via the closed-form relationship on a small known shift.
	tr.Stress(td.DefaultParams(), 1.2, hot, 1, 24*units.Hour)
	shift := tr.VthShift()
	want := tr.Params().Ileak0NA * math.Pow(10, -shift/0.09)
	if got := tr.Leakage(); math.Abs(got-want) > 1e-9 {
		t.Errorf("leakage = %v, want %v", got, want)
	}
}

func TestReset(t *testing.T) {
	tr := New("m1", NMOS, DefaultParams())
	tr.Stress(td.DefaultParams(), 1.2, hot, 1, units.Hour)
	tr.Reset()
	if tr.VthShift() != 0 {
		t.Error("reset did not clear aging")
	}
}

func TestPathDelay(t *testing.T) {
	p := DefaultParams()
	path := []Transistor{New("a", NMOS, p), New("b", NMOS, p), New("c", PMOS, p), New("d", NMOS, p)}
	got, err := PathDelay(1.2, path)
	if err != nil {
		t.Fatal(err)
	}
	want := 4 * p.Td0NS
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("fresh path delay = %v, want %v", got, want)
	}
	// Stage delay calibration: 4 × Td0 ≈ 1.3333 ns.
	if math.Abs(got-1.3333) > 1e-3 {
		t.Errorf("stage delay = %v ns, want ≈1.3333 ns", got)
	}
	if _, err := PathDelay(0.2, path); err == nil {
		t.Error("path delay below threshold accepted")
	}
}

func TestPathDelayEmpty(t *testing.T) {
	got, err := PathDelay(1.2, nil)
	if err != nil || got != 0 {
		t.Errorf("empty path: %v, %v", got, err)
	}
}

func TestDelayMonotoneInShiftProperty(t *testing.T) {
	f := func(hours uint8) bool {
		tr := New("m", NMOS, DefaultParams())
		tp := td.DefaultParams()
		prev, _ := tr.Delay(1.2)
		for i := 0; i < int(hours%20); i++ {
			tr.Stress(tp, 1.2, hot, 1, units.Hour)
			d, err := tr.Delay(1.2)
			if err != nil || d < prev {
				return false
			}
			prev = d
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkDelay(b *testing.B) {
	tr := New("m1", NMOS, DefaultParams())
	tr.Stress(td.DefaultParams(), 1.2, hot, 1, 24*units.Hour)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Delay(1.2); err != nil {
			b.Fatal(err)
		}
	}
}

// TestFabricStepMatchesStandalone steps a fabric through random duties
// and conditions and every transistor of an identical set of
// standalone devices through the same actions one by one: each
// transistor's shift and delay must agree bit for bit, so aging by
// class loses nothing.
func TestFabricStepMatchesStandalone(t *testing.T) {
	const n = 40
	p := DefaultParams()
	tp := td.DefaultParams()
	kinds := make([]Kind, n)
	f := NewFabric(p, kinds, func(i int) string { return "f" })
	solo := make([]Transistor, n)
	for i := range solo {
		solo[i] = New("s", NMOS, p)
	}
	duties := []float64{0, 0.25, 0.5, 1}
	seed := uint64(12345)
	next := func(m int) int {
		seed = seed*6364136223846793005 + 1442695040888963407
		return int(seed>>33) % m
	}
	for step := 0; step < 60; step++ {
		temp := units.Celsius(20 + 45*next(3)).Kelvin()
		dt := units.Seconds(1 + next(4)*1800)
		if next(4) == 0 {
			vrev := units.Volt(0.3 * float64(next(2)))
			f.Sleep(tp, vrev, temp, dt)
			for _, s := range solo {
				s.Recover(tp, vrev, temp, dt)
			}
			continue
		}
		f.BeginStep(tp, 1.2, temp, dt)
		for i := 0; i < n; i++ {
			if next(5) == 0 {
				continue // not driven: holds its state
			}
			d := duties[next(len(duties))]
			f.Act(i, []float64{d})
			switch {
			case d > 0:
				solo[i].Stress(tp, 1.2, temp, d, dt)
			case solo[i].VthShift() > 0:
				solo[i].Recover(tp, 0, temp, dt)
			}
		}
		f.EndStep()
	}
	for i, s := range solo {
		got, want := f.At(i), s
		if math.Float64bits(got.VthShift()) != math.Float64bits(want.VthShift()) {
			t.Fatalf("transistor %d: shift %v, standalone %v", i, got.VthShift(), want.VthShift())
		}
		gd, _ := got.Delay(1.2)
		wd, _ := want.Delay(1.2)
		if math.Float64bits(gd) != math.Float64bits(wd) {
			t.Fatalf("transistor %d: delay %v, standalone %v", i, gd, wd)
		}
	}
}

// TestFabricViewMutationSplitsClass checks that aging one view moves
// only that transistor, and that resetting it rejoins the fresh class.
func TestFabricViewMutationSplitsClass(t *testing.T) {
	f := NewFabric(DefaultParams(), make([]Kind, 4), func(i int) string { return "t" })
	f.At(1).Stress(td.DefaultParams(), 1.2, hot, 1, units.Hour)
	for i := 0; i < 4; i++ {
		if aged := f.At(i).VthShift() > 0; aged != (i == 1) {
			t.Errorf("transistor %d aged = %v", i, aged)
		}
	}
	if c := f.Classes(); c != 2 {
		t.Errorf("%d classes after aging one view, want 2", c)
	}
	f.At(1).Reset()
	if c := f.Classes(); c != 1 || f.At(1).VthShift() != 0 {
		t.Errorf("after reset: %d classes, shift %v", c, f.At(1).VthShift())
	}
}
