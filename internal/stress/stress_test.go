package stress

import (
	"errors"
	"math"
	"testing"

	"selfheal/internal/fpga"
	"selfheal/internal/lut"
	"selfheal/internal/rng"
	"selfheal/internal/ro"
	"selfheal/internal/units"
)

func nominalChip(t *testing.T, seed uint64) *fpga.Chip {
	t.Helper()
	p := fpga.DefaultParams()
	p.ChipSigmaFrac = 0
	p.LocalSigmaFrac = 0
	p.VthSigmaV = 0
	c, err := fpga.NewChip("nom", p, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// rig builds a chip + RO + engine wired like the paper's bench.
func rig(t *testing.T, seed uint64) (*fpga.Chip, *ro.Oscillator, *Engine) {
	t.Helper()
	chip := nominalChip(t, seed)
	osc, err := ro.New(chip, "cut", ro.DefaultParams(), rng.New(seed+100))
	if err != nil {
		t.Fatal(err)
	}
	eng := New(chip)
	if err := eng.AddActivity(Activity{Mapping: osc.Mapping(), AC: false, FrozenIn0: true}); err != nil {
		t.Fatal(err)
	}
	return chip, osc, eng
}

// trueDelay reads the noiseless chain delay.
func trueDelay(t *testing.T, osc *ro.Oscillator) float64 {
	t.Helper()
	d, err := osc.Mapping().MeasuredDelay(1.2)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDC24hCalibration is the end-to-end wearout calibration: 24 h DC
// stress at 110 °C / 1.2 V degrades the RO by ≈2.2 % (paper Fig. 5 /
// Table 2).
func TestDC24hCalibration(t *testing.T) {
	_, osc, eng := rig(t, 1)
	fresh := trueDelay(t, osc)
	if err := eng.Step(1.2, 110, 24*units.Hour); err != nil {
		t.Fatal(err)
	}
	aged := trueDelay(t, osc)
	pct := (aged - fresh) / fresh * 100
	if math.Abs(pct-2.2) > 0.25 {
		t.Errorf("24h DC degradation = %.3f %%, want 2.2 ± 0.25 %%", pct)
	}
}

// TestACHalfOfDC is Fig. 4 at system level: AC stress degrades about
// half as much as DC under identical conditions.
func TestACHalfOfDC(t *testing.T) {
	_, oscDC, engDC := rig(t, 2)
	freshDC := trueDelay(t, oscDC)
	if err := engDC.Step(1.2, 110, 24*units.Hour); err != nil {
		t.Fatal(err)
	}
	dc := trueDelay(t, oscDC) - freshDC

	chipAC := nominalChip(t, 2)
	oscAC, err := ro.New(chipAC, "cut", ro.DefaultParams(), rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	engAC := New(chipAC)
	if err := engAC.AddActivity(Activity{Mapping: oscAC.Mapping(), AC: true}); err != nil {
		t.Fatal(err)
	}
	freshAC := trueDelay(t, oscAC)
	if err := engAC.Step(1.2, 110, 24*units.Hour); err != nil {
		t.Fatal(err)
	}
	ac := trueDelay(t, oscAC) - freshAC

	if ratio := ac / dc; math.Abs(ratio-0.5) > 0.08 {
		t.Errorf("AC/DC degradation ratio = %.3f, want ≈0.5", ratio)
	}
}

// TestRecoveredFractionsEndToEnd reproduces Table 4 at system level:
// after 24 h DC stress at 110 °C, six hours of sleep recover ≈36 / 47 /
// 56 / 72 % of the delay shift under the four paper conditions.
func TestRecoveredFractionsEndToEnd(t *testing.T) {
	cases := []struct {
		name string
		vdd  units.Volt
		temp units.Celsius
		want float64
	}{
		{"R20Z6", 0, 20, 0.36},
		{"AR20N6", -0.3, 20, 0.47},
		{"AR110Z6", 0, 110, 0.56},
		{"AR110N6", -0.3, 110, 0.724},
	}
	for _, c := range cases {
		_, osc, eng := rig(t, 10)
		fresh := trueDelay(t, osc)
		if err := eng.Step(1.2, 110, 24*units.Hour); err != nil {
			t.Fatal(err)
		}
		aged := trueDelay(t, osc)
		if err := eng.Step(c.vdd, c.temp, 6*units.Hour); err != nil {
			t.Fatal(err)
		}
		healed := trueDelay(t, osc)
		frac := (aged - healed) / (aged - fresh)
		if math.Abs(frac-c.want) > 0.02 {
			t.Errorf("%s: recovered fraction = %.3f, want ≈%.3f", c.name, frac, c.want)
		}
	}
}

// TestACPartiallySelfHealing: the paper calls AC stress "a partially
// self-healing process" — transistors out of their stress region while
// the chip runs recover passively. After DC stress, continuing to run
// the chip with the RO frozen at the opposite input must shrink the
// previously stressed devices' shift.
func TestACPartiallySelfHealing(t *testing.T) {
	_, osc, eng := rig(t, 4)
	if err := eng.Step(1.2, 110, 24*units.Hour); err != nil {
		t.Fatal(err)
	}
	// BufN of stage 0 (frozen at in0=1) carries full DC stress.
	tr := osc.Mapping().Cells[0].Transistors()[lut.BufN]
	before := tr.VthShift()
	if before == 0 {
		t.Fatal("expected BufN stressed")
	}
	// Flip the frozen input: BufN of stage 0 leaves its stress region
	// but the chip keeps running at temperature.
	if err := eng.SetAC("cut", false, false); err != nil {
		t.Fatal(err)
	}
	if err := eng.Step(1.2, 110, 6*units.Hour); err != nil {
		t.Fatal(err)
	}
	after := tr.VthShift()
	if after >= before {
		t.Errorf("no passive recovery during operation: %v -> %v", before, after)
	}
	// Passive on-line recovery is much weaker than the accelerated
	// sleep recovery (negative rail), which would have removed most of
	// the recoverable part.
	if (before-after)/before > 0.6 {
		t.Errorf("passive recovery implausibly strong: %.1f %%", (before-after)/before*100)
	}
}

func TestIdleCellsAgeWhenEnabled(t *testing.T) {
	chip, _, eng := rig(t, 5)
	if err := eng.Step(1.2, 110, 24*units.Hour); err != nil {
		t.Fatal(err)
	}
	// An unused cell (RO occupies the first 75 of 256) must carry some
	// quiescent-pattern stress.
	idle, err := chip.LUT(15, 15)
	if err != nil {
		t.Fatal(err)
	}
	if chip.Used(15, 15) {
		t.Fatal("cell unexpectedly used")
	}
	shift := 0.0
	for _, tr := range idle.Transistors() {
		shift += tr.VthShift()
	}
	if shift == 0 {
		t.Error("idle cell did not age with StressIdleCells on")
	}
}

func TestIdleCellsSkippedWhenDisabled(t *testing.T) {
	chip, _, eng := rig(t, 6)
	eng.StressIdleCells = false
	if err := eng.Step(1.2, 110, 24*units.Hour); err != nil {
		t.Fatal(err)
	}
	idle, err := chip.LUT(15, 15)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range idle.Transistors() {
		if tr.VthShift() != 0 {
			t.Fatalf("idle transistor %s aged with StressIdleCells off", tr.Name())
		}
	}
}

func TestAddActivityValidation(t *testing.T) {
	chipA := nominalChip(t, 7)
	chipB := nominalChip(t, 8)
	oscB, err := ro.New(chipB, "cut", ro.DefaultParams(), rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	eng := New(chipA)
	if err := eng.AddActivity(Activity{Mapping: nil}); err == nil {
		t.Error("nil mapping accepted")
	}
	if err := eng.AddActivity(Activity{Mapping: oscB.Mapping()}); err == nil {
		t.Error("foreign mapping accepted")
	}
}

func TestChipAccessor(t *testing.T) {
	chip, _, eng := rig(t, 40)
	if eng.Chip() != chip {
		t.Error("Chip() returned a different die")
	}
}

func TestProtectValidation(t *testing.T) {
	chipA := nominalChip(t, 41)
	chipB := nominalChip(t, 42)
	eng := New(chipA)
	if err := eng.Protect(nil); err == nil {
		t.Error("nil mapping accepted")
	}
	mB, err := chipB.MapInverterChain("m", 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Protect(mB); err == nil {
		t.Error("foreign mapping accepted")
	}
}

func TestProtectedCellsSkipStressButRecover(t *testing.T) {
	chip := nominalChip(t, 43)
	eng := New(chip)
	protected, err := chip.MapInverterChain("island", 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Protect(protected); err != nil {
		t.Fatal(err)
	}
	// Active operation: protected cells must stay fresh even though
	// idle-cell stressing is on.
	if err := eng.Step(1.2, 110, 12*units.Hour); err != nil {
		t.Fatal(err)
	}
	for _, cell := range protected.Cells {
		for _, tr := range cell.Transistors() {
			if tr.VthShift() != 0 {
				t.Fatalf("protected transistor %s aged", tr.Name())
			}
		}
	}
	// Pre-damage one protected transistor by hand; continued operation
	// must passively heal it (the island recovers while the die runs).
	tr := protected.Cells[0].Transistors()[0]
	tr.Stress(chip.Params().TD, 1.2, units.Celsius(110).Kelvin(), 1, 12*units.Hour)
	before := tr.VthShift()
	if err := eng.Step(1.2, 110, 6*units.Hour); err != nil {
		t.Fatal(err)
	}
	if tr.VthShift() >= before {
		t.Errorf("protected island did not passively heal: %v -> %v", before, tr.VthShift())
	}
}

func TestAddActivityCellPhasesValidation(t *testing.T) {
	chip := nominalChip(t, 44)
	eng := New(chip)
	m, err := chip.MapInverterChain("m", 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.AddActivity(Activity{Mapping: m, CellPhases: make([][]lut.Phase, 2)}); err == nil {
		t.Error("mismatched CellPhases length accepted")
	}
	phases := make([][]lut.Phase, 5)
	for i := range phases {
		phases[i] = lut.DCPhase(false, true)
	}
	if err := eng.AddActivity(Activity{Mapping: m, CellPhases: phases}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Step(1.2, 110, units.Hour); err != nil {
		t.Fatal(err)
	}
	if chip.MeanVthShift() == 0 {
		t.Error("custom cell phases produced no aging")
	}
}

func TestSetACUnknownName(t *testing.T) {
	_, _, eng := rig(t, 11)
	if err := eng.SetAC("nope", true, false); err == nil {
		t.Error("unknown design name accepted")
	}
}

func TestStepPanicsOnNegativeDuration(t *testing.T) {
	_, _, eng := rig(t, 12)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	eng.Step(1.2, 110, -1)
}

func TestStepZeroIsNoOp(t *testing.T) {
	chip, _, eng := rig(t, 13)
	if err := eng.Step(1.2, 110, 0); err != nil {
		t.Fatal(err)
	}
	if chip.MeanVthShift() != 0 || eng.Elapsed() != 0 {
		t.Error("zero step changed state")
	}
}

func TestElapsedAccounting(t *testing.T) {
	_, _, eng := rig(t, 14)
	eng.Step(1.2, 110, units.Hour)
	eng.Step(0, 20, 30*units.Minute)
	if got := eng.Elapsed(); got != units.Hour+30*units.Minute {
		t.Errorf("elapsed = %v", got)
	}
}

func TestRunSamplingCallback(t *testing.T) {
	_, _, eng := rig(t, 15)
	var times []units.Seconds
	err := eng.Run(1.2, 110, 20*units.Minute, 6, func(tt units.Seconds) error {
		times = append(times, tt)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(times) != 6 || times[0] != 20*units.Minute || times[5] != 2*units.Hour {
		t.Errorf("sample times = %v", times)
	}
	// Error from the callback aborts the run.
	boom := errors.New("boom")
	err = eng.Run(1.2, 110, units.Minute, 3, func(units.Seconds) error { return boom })
	if !errors.Is(err, boom) {
		t.Errorf("callback error not propagated: %v", err)
	}
	if err := eng.Run(1.2, 110, units.Minute, -1, nil); err == nil {
		t.Error("negative step count accepted")
	}
}

// TestSteppedEqualsOneShot: integrating a stress phase in many small
// steps must land on the same state as a single large step (the TD
// state machine is consistent under subdivision).
func TestSteppedEqualsOneShot(t *testing.T) {
	_, oscA, engA := rig(t, 16)
	if err := engA.Step(1.2, 110, 24*units.Hour); err != nil {
		t.Fatal(err)
	}
	_, oscB, engB := rig(t, 16)
	for i := 0; i < 72; i++ {
		if err := engB.Step(1.2, 110, 20*units.Minute); err != nil {
			t.Fatal(err)
		}
	}
	a := trueDelay(t, oscA)
	b := trueDelay(t, oscB)
	if math.Abs(a-b) > 1e-9 {
		t.Errorf("one-shot %v != stepped %v", a, b)
	}
}

// TestSawtoothCycles: repeated stress/recover cycles must be bounded
// (with rejuvenation) while pure stress keeps growing — the Fig. 9
// mechanism, asserted here at small scale.
func TestSawtoothCycles(t *testing.T) {
	_, oscA, engA := rig(t, 17)
	fresh := trueDelay(t, oscA)
	var cycledPeaks []float64
	for c := 0; c < 4; c++ {
		if err := engA.Step(1.2, 110, 24*units.Hour); err != nil {
			t.Fatal(err)
		}
		cycledPeaks = append(cycledPeaks, trueDelay(t, oscA)-fresh)
		if err := engA.Step(-0.3, 110, 6*units.Hour); err != nil {
			t.Fatal(err)
		}
	}
	_, oscB, engB := rig(t, 17)
	freshB := trueDelay(t, oscB)
	if err := engB.Step(1.2, 110, 4*30*units.Hour); err != nil {
		t.Fatal(err)
	}
	continuous := trueDelay(t, oscB) - freshB

	// The rejuvenated chip's final peak stays below the continuously
	// stressed chip's shift.
	if last := cycledPeaks[len(cycledPeaks)-1]; last >= continuous {
		t.Errorf("rejuvenation did not bound degradation: %v vs %v", last, continuous)
	}
	// Peaks grow slowly (permanent accumulation) but the increment must
	// shrink cycle over cycle.
	d1 := cycledPeaks[1] - cycledPeaks[0]
	d3 := cycledPeaks[3] - cycledPeaks[2]
	if d3 >= d1 {
		t.Errorf("peak increments not shrinking: %v then %v", d1, d3)
	}
}

func TestRecoveryAffectsWholeDie(t *testing.T) {
	chip, _, eng := rig(t, 18)
	if err := eng.Step(1.2, 110, 24*units.Hour); err != nil {
		t.Fatal(err)
	}
	before := chip.MeanVthShift()
	if err := eng.Step(-0.3, 110, 6*units.Hour); err != nil {
		t.Fatal(err)
	}
	if after := chip.MeanVthShift(); after >= before {
		t.Errorf("die-wide recovery failed: %v -> %v", before, after)
	}
}

// TestYearLongSoak drives a chip through a simulated year of mixed
// operation — circadian cycles, occasional deep stress weeks, cold
// storage — and checks the state stays physical throughout: finite,
// non-negative, bounded, and still healable at the end.
func TestYearLongSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("year-long soak")
	}
	chip, osc, eng := rig(t, 99)
	fresh := trueDelay(t, osc)
	week := 0
	for day := 0; day < 365; day++ {
		switch {
		case week%8 == 7:
			// Maintenance week: cold storage.
			if err := eng.Step(0, 20, 24*units.Hour); err != nil {
				t.Fatal(err)
			}
		case week%8 == 6:
			// Burn week: continuous hot stress.
			if err := eng.Step(1.2, 110, 24*units.Hour); err != nil {
				t.Fatal(err)
			}
		default:
			// Circadian operation.
			if err := eng.Step(1.2, 85, 19*units.Hour); err != nil {
				t.Fatal(err)
			}
			if err := eng.Step(-0.3, 110, 5*units.Hour); err != nil {
				t.Fatal(err)
			}
		}
		if day%7 == 6 {
			week++
		}
		if day%30 != 0 {
			continue
		}
		d := trueDelay(t, osc)
		if math.IsNaN(d) || math.IsInf(d, 0) {
			t.Fatalf("day %d: non-finite delay", day)
		}
		if d < fresh {
			t.Fatalf("day %d: delay %v below fresh %v", day, d, fresh)
		}
		if (d-fresh)/fresh > 0.05 {
			t.Fatalf("day %d: degradation %v%% implausible under circadian care",
				day, (d-fresh)/fresh*100)
		}
	}
	// Still healable: one deep rejuvenation removes most of the
	// recoverable damage even after a year of history.
	before := trueDelay(t, osc)
	if err := eng.Step(-0.3, 110, 12*units.Hour); err != nil {
		t.Fatal(err)
	}
	after := trueDelay(t, osc)
	if after >= before {
		t.Error("year-old chip no longer heals")
	}
	if chip.MeanVthShift() < 0 {
		t.Error("negative mean shift")
	}
}

func BenchmarkStep20min(b *testing.B) {
	chip, err := fpga.NewChip("b", fpga.DefaultParams(), rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	osc, err := ro.New(chip, "cut", ro.DefaultParams(), rng.New(2))
	if err != nil {
		b.Fatal(err)
	}
	eng := New(chip)
	if err := eng.AddActivity(Activity{Mapping: osc.Mapping(), AC: false, FrozenIn0: true}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.Step(1.2, 110, 20*units.Minute); err != nil {
			b.Fatal(err)
		}
	}
}

// TestStepAllocatesNothing holds a steady-state Step to zero heap
// allocations across powered AC and DC steps, a protected island,
// idle-cell aging and sleep: its plan lives in reused scratch.
func TestStepAllocatesNothing(t *testing.T) {
	chip, osc, eng := rig(t, 31)
	ref, err := chip.MapInverterChain("ref", 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Protect(ref); err != nil {
		t.Fatal(err)
	}
	cycle := func() {
		for _, ac := range []bool{true, false} {
			if err := eng.SetAC(osc.Mapping().Name, ac, true); err != nil {
				t.Fatal(err)
			}
			if err := eng.Step(1.2, 110, units.Hour); err != nil {
				t.Fatal(err)
			}
		}
		if err := eng.Step(-0.3, 110, units.Hour); err != nil {
			t.Fatal(err)
		}
	}
	cycle()
	if n := testing.AllocsPerRun(20, cycle); n != 0 {
		t.Errorf("steady-state Step allocates %v times per cycle, want 0", n)
	}
	if n := chip.Fabric().Classes(); n > 16 {
		t.Errorf("chip holds %d aging classes, want a handful", n)
	}
}
