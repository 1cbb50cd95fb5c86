package fpga

import (
	"math"
	"testing"

	"selfheal/internal/device"
	"selfheal/internal/lut"
	"selfheal/internal/rng"
	"selfheal/internal/units"
)

func newChip(t *testing.T, seed uint64) *Chip {
	t.Helper()
	c, err := NewChip("test", DefaultParams(), rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestDefaultParamsValid(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	mods := []func(*Params){
		func(p *Params) { p.Rows = 0 },
		func(p *Params) { p.Cols = -1 },
		func(p *Params) { p.NominalVdd = 0 },
		func(p *Params) { p.ChipSigmaFrac = -0.1 },
		func(p *Params) { p.LocalSigmaFrac = -0.1 },
		func(p *Params) { p.VthSigmaV = -0.1 },
		func(p *Params) { p.Device.Td0NS = 0 },
		func(p *Params) { p.TD.K1 = 0 },
	}
	for i, mod := range mods {
		p := DefaultParams()
		mod(&p)
		if _, err := NewChip("bad", p, rng.New(1)); err == nil {
			t.Errorf("mutation %d not rejected", i)
		}
	}
}

func TestChipConstruction(t *testing.T) {
	c := newChip(t, 1)
	cols, rows := c.Size()
	if cols != 16 || rows != 16 {
		t.Fatalf("size = %dx%d", cols, rows)
	}
	if c.ID() != "test" {
		t.Errorf("ID = %q", c.ID())
	}
	n := 0
	c.Transistors(func(device.Transistor) { n++ })
	if n != 16*16*int(lut.NumTransistors) {
		t.Errorf("transistor count = %d", n)
	}
}

func TestChipToChipVariation(t *testing.T) {
	// Distinct seeds must give distinct process corners; same seed must
	// replay identically.
	a := newChip(t, 10)
	b := newChip(t, 11)
	a2 := newChip(t, 10)
	if a.ChipFactor() == b.ChipFactor() {
		t.Error("distinct seeds gave identical chip factor")
	}
	if a.ChipFactor() != a2.ChipFactor() {
		t.Error("same seed did not replay")
	}
	// Chip factor should be near 1 with ~1 % sigma.
	if math.Abs(a.ChipFactor()-1) > 0.06 {
		t.Errorf("chip factor %v implausibly far from 1", a.ChipFactor())
	}
}

func TestWithinDieVariation(t *testing.T) {
	c := newChip(t, 2)
	l, err := c.LUT(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	trs := l.Transistors()
	same := 0
	for i := 1; i < len(trs); i++ {
		if trs[i].Params().Td0NS == trs[0].Params().Td0NS {
			same++
		}
	}
	if same == len(trs)-1 {
		t.Error("no within-die Td0 variation sampled")
	}
}

func TestLUTBounds(t *testing.T) {
	c := newChip(t, 3)
	if _, err := c.LUT(-1, 0); err == nil {
		t.Error("negative x accepted")
	}
	if _, err := c.LUT(0, 16); err == nil {
		t.Error("out-of-range y accepted")
	}
	if _, err := c.LUT(15, 15); err != nil {
		t.Errorf("valid cell rejected: %v", err)
	}
	if c.Used(-1, 5) {
		t.Error("out-of-range Used returned true")
	}
}

func TestMapInverterChain(t *testing.T) {
	c := newChip(t, 4)
	m, err := c.MapInverterChain("ro", 75)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Cells) != 75 {
		t.Fatalf("mapped %d cells", len(m.Cells))
	}
	// All mapped cells are inverters and marked used.
	usedCount := 0
	c.Cells(func(x, y int, cell *lut.LUT2, used bool) {
		if used {
			usedCount++
			if cell.Eval(true, true) != false || cell.Eval(false, true) != true {
				t.Errorf("cell (%d,%d) not an inverter", x, y)
			}
		}
	})
	if usedCount != 75 {
		t.Errorf("used count = %d", usedCount)
	}
}

func TestMapInverterChainSnakeAdjacency(t *testing.T) {
	c := newChip(t, 5)
	m, err := c.MapInverterChain("ro", 40)
	if err != nil {
		t.Fatal(err)
	}
	// Row 0 runs left→right, row 1 right→left: stage 16 (first of row 1)
	// must sit at x=15.
	if got := m.Cells[16].Name(); got != "test.X15Y1" {
		t.Errorf("stage 16 at %q, want test.X15Y1", got)
	}
	if got := m.Cells[31].Name(); got != "test.X0Y1" {
		t.Errorf("stage 31 at %q, want test.X0Y1", got)
	}
}

func TestMapInverterChainErrors(t *testing.T) {
	c := newChip(t, 6)
	if _, err := c.MapInverterChain("ro", 0); err == nil {
		t.Error("zero-length chain accepted")
	}
	if _, err := c.MapInverterChain("ro", 16*16+1); err == nil {
		t.Error("oversized chain accepted")
	}
	if _, err := c.MapInverterChain("a", 10); err != nil {
		t.Fatal(err)
	}
	// A second design goes onto the remaining cells without overlap.
	b, err := c.MapInverterChain("b", 10)
	if err != nil {
		t.Fatalf("second design rejected: %v", err)
	}
	if b.Cells[0].Name() == "test.X0Y0" {
		t.Error("second design reused an occupied cell")
	}
	if c.FreeCells() != 16*16-20 {
		t.Errorf("free cells = %d", c.FreeCells())
	}
	// Exhausting the fabric fails and rolls back cleanly.
	free := c.FreeCells()
	if _, err := c.MapInverterChain("huge", free+1); err == nil {
		t.Error("over-capacity mapping accepted")
	}
	if c.FreeCells() != free {
		t.Errorf("failed mapping leaked cells: %d free, want %d", c.FreeCells(), free)
	}
}

func TestChainFreshDelayCalibration(t *testing.T) {
	p := DefaultParams()
	p.ChipSigmaFrac = 0 // nominal die for the calibration check
	p.LocalSigmaFrac = 0
	p.VthSigmaV = 0
	c, err := NewChip("nom", p, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	m, err := c.MapInverterChain("ro", 75)
	if err != nil {
		t.Fatal(err)
	}
	d, err := m.MeasuredDelay(1.2)
	if err != nil {
		t.Fatal(err)
	}
	// 75 stages × 1.3333 ns ≈ 100 ns — the 5 MHz-class oscillator.
	if math.Abs(d-100) > 0.1 {
		t.Errorf("fresh chain delay = %v ns, want ≈100 ns", d)
	}
}

func TestMeasuredDelayGrowsWithStress(t *testing.T) {
	c := newChip(t, 8)
	m, err := c.MapInverterChain("ro", 75)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := m.MeasuredDelay(1.2)
	if err != nil {
		t.Fatal(err)
	}
	hot := units.Celsius(110).Kelvin()
	tp := c.Params().TD
	for i, cell := range m.Cells {
		duties, err := cell.StressDuties(m.StagePhases(i, false, true))
		if err != nil {
			t.Fatal(err)
		}
		for j, tr := range cell.Transistors() {
			if duties[j] > 0 {
				tr.Stress(tp, 1.2, hot, duties[j], 24*units.Hour)
			}
		}
	}
	aged, err := m.MeasuredDelay(1.2)
	if err != nil {
		t.Fatal(err)
	}
	if aged <= fresh {
		t.Errorf("no degradation: %v -> %v", fresh, aged)
	}
	// Ballpark of the paper's 2.2 % after 24 h DC at 110 °C.
	pct := (aged - fresh) / fresh * 100
	if pct < 1.5 || pct > 3.0 {
		t.Errorf("24h DC degradation = %.2f %%, want ~2.2 %%", pct)
	}
}

func TestStagePhases(t *testing.T) {
	c := newChip(t, 9)
	m, err := c.MapInverterChain("ro", 4)
	if err != nil {
		t.Fatal(err)
	}
	// AC: every stage toggles.
	if got := m.StagePhases(2, true, false); len(got) != 2 {
		t.Errorf("AC phases = %v", got)
	}
	// DC frozen at in0=true: stages alternate true/false.
	p0 := m.StagePhases(0, false, true)
	p1 := m.StagePhases(1, false, true)
	if len(p0) != 1 || len(p1) != 1 {
		t.Fatal("DC phases not single")
	}
	if p0[0].In0 != true || p1[0].In0 != false {
		t.Errorf("DC alternation wrong: %v %v", p0, p1)
	}
}

func TestResetClearsAgingAndMapping(t *testing.T) {
	c := newChip(t, 12)
	m, err := c.MapInverterChain("ro", 10)
	if err != nil {
		t.Fatal(err)
	}
	hot := units.Celsius(110).Kelvin()
	m.Cells[0].Transistors()[0].Stress(c.Params().TD, 1.2, hot, 1, units.Hour)
	if c.MeanVthShift() == 0 {
		t.Fatal("stress had no effect")
	}
	c.Reset()
	if c.MeanVthShift() != 0 {
		t.Error("reset left aging")
	}
	if c.Used(0, 0) {
		t.Error("reset left cells used")
	}
	// Remapping after reset succeeds.
	if _, err := c.MapInverterChain("ro2", 10); err != nil {
		t.Errorf("remap failed: %v", err)
	}
}

func TestLeakageDropsWithAging(t *testing.T) {
	c := newChip(t, 13)
	fresh := c.Leakage()
	hot := units.Celsius(110).Kelvin()
	c.Transistors(func(tr device.Transistor) {
		tr.Stress(c.Params().TD, 1.2, hot, 1, 24*units.Hour)
	})
	if aged := c.Leakage(); aged >= fresh {
		t.Errorf("die leakage did not drop: %v -> %v", fresh, aged)
	}
}

func TestBitstreamRoundTrip(t *testing.T) {
	c := newChip(t, 14)
	if _, err := c.MapInverterChain("ro", 20); err != nil {
		t.Fatal(err)
	}
	l, _ := c.LUT(3, 5)
	l.ConfigureFunc(func(a, b bool) bool { return a && b })
	bs := c.ExtractBitstream()

	// Program a second die with the same bitstream.
	c2 := newChip(t, 15)
	if err := c2.LoadBitstream(bs); err != nil {
		t.Fatal(err)
	}
	for y := 0; y < 16; y++ {
		for x := 0; x < 16; x++ {
			a, _ := c.LUT(x, y)
			b, _ := c2.LUT(x, y)
			if a.Config() != b.Config() {
				t.Fatalf("config mismatch at (%d,%d)", x, y)
			}
			if c.Used(x, y) != c2.Used(x, y) {
				t.Fatalf("used mismatch at (%d,%d)", x, y)
			}
		}
	}
}

func TestBitstreamErrors(t *testing.T) {
	c := newChip(t, 16)
	if err := c.LoadBitstream(make(Bitstream, 10)); err == nil {
		t.Error("short bitstream accepted")
	}
	bs := c.ExtractBitstream()
	bs[0] |= 0x80 // undefined bit
	if err := c.LoadBitstream(bs); err == nil {
		t.Error("undefined bits accepted")
	}
}

func TestBitstreamDoesNotHeal(t *testing.T) {
	c := newChip(t, 17)
	hot := units.Celsius(110).Kelvin()
	c.Transistors(func(tr device.Transistor) {
		tr.Stress(c.Params().TD, 1.2, hot, 1, units.Hour)
	})
	before := c.MeanVthShift()
	if err := c.LoadBitstream(c.ExtractBitstream()); err != nil {
		t.Fatal(err)
	}
	if c.MeanVthShift() != before {
		t.Error("reprogramming altered aging state")
	}
}

func TestTDParamsAccessible(t *testing.T) {
	c := newChip(t, 18)
	if err := c.Params().TD.Validate(); err != nil {
		t.Errorf("chip TD params invalid: %v", err)
	}
}

func BenchmarkNewChip(b *testing.B) {
	p := DefaultParams()
	for i := 0; i < b.N; i++ {
		if _, err := NewChip("b", p, rng.New(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMeasuredDelay75(b *testing.B) {
	c, err := NewChip("b", DefaultParams(), rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	m, err := c.MapInverterChain("ro", 75)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.MeasuredDelay(1.2); err != nil {
			b.Fatal(err)
		}
	}
}
