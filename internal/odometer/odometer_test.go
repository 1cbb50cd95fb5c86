package odometer

import (
	"math"
	"testing"

	"selfheal/internal/fpga"
	"selfheal/internal/rng"
	"selfheal/internal/stress"
	"selfheal/internal/units"
)

func rig(t *testing.T, seed uint64) (*fpga.Chip, *stress.Engine, *Sensor) {
	t.Helper()
	chip, err := fpga.NewChip("odo", fpga.DefaultParams(), rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	eng := stress.New(chip)
	s, err := New(chip, eng, "odometer", DefaultParams(), rng.New(seed+7))
	if err != nil {
		t.Fatal(err)
	}
	return chip, eng, s
}

func TestDefaultParamsValid(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidation(t *testing.T) {
	p := DefaultParams()
	p.NoisePPM = -1
	if err := p.Validate(); err == nil {
		t.Error("negative noise accepted")
	}
	p = DefaultParams()
	p.RO.Stages = 4
	if err := p.Validate(); err == nil {
		t.Error("bad RO params accepted")
	}
	chipA, err := fpga.NewChip("a", fpga.DefaultParams(), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	chipB, err := fpga.NewChip("b", fpga.DefaultParams(), rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	engB := stress.New(chipB)
	if _, err := New(chipA, engB, "x", DefaultParams(), rng.New(3)); err == nil {
		t.Error("mismatched engine accepted")
	}
	if _, err := New(chipA, nil, "x", DefaultParams(), rng.New(3)); err == nil {
		t.Error("nil engine accepted")
	}
}

func TestFreshReadsNearZero(t *testing.T) {
	_, _, s := rig(t, 1)
	r, err := s.Measure(1.2)
	if err != nil {
		t.Fatal(err)
	}
	// Fresh differential reading is zero up to the ppm noise floor —
	// the within-die process offset must have been calibrated out.
	if math.Abs(r.DegradationPPM) > 10 {
		t.Errorf("fresh reading = %.1f ppm, want ≈0", r.DegradationPPM)
	}
}

func TestReferenceStaysFreshUnderStress(t *testing.T) {
	_, eng, s := rig(t, 2)
	if err := eng.Step(1.2, 110, 24*units.Hour); err != nil {
		t.Fatal(err)
	}
	for _, cell := range s.Reference().Mapping().Cells {
		for _, tr := range cell.Transistors() {
			if tr.VthShift() != 0 {
				t.Fatalf("reference transistor %s aged: %v", tr.Name(), tr.VthShift())
			}
		}
	}
	// The stressed oscillator, by contrast, must have aged.
	aged := 0.0
	for _, cell := range s.Stressed().Mapping().Cells {
		for _, tr := range cell.Transistors() {
			aged += tr.VthShift()
		}
	}
	if aged == 0 {
		t.Fatal("stressed oscillator did not age")
	}
}

func TestDegradationTracksStress(t *testing.T) {
	_, eng, s := rig(t, 3)
	var prev float64
	for i := 0; i < 4; i++ {
		if err := eng.Step(1.2, 110, 6*units.Hour); err != nil {
			t.Fatal(err)
		}
		r, err := s.Measure(1.2)
		if err != nil {
			t.Fatal(err)
		}
		if r.DegradationPPM <= prev {
			t.Fatalf("step %d: reading %.0f ppm not above previous %.0f", i, r.DegradationPPM, prev)
		}
		prev = r.DegradationPPM
	}
	if r, _ := s.Measure(1.2); r.BeatHz <= 0 {
		t.Error("no beat frequency after stress")
	}
}

// TestResolutionBeatsCounter quantifies why the odometer exists: its
// read-out scatter is orders of magnitude below the single-RO counter's
// ±0.1 % (1000 ppm) noise floor.
func TestResolutionBeatsCounter(t *testing.T) {
	_, eng, s := rig(t, 4)
	if err := eng.Step(1.2, 110, units.Hour); err != nil {
		t.Fatal(err)
	}
	var readings []float64
	for i := 0; i < 200; i++ {
		r, err := s.Measure(1.2)
		if err != nil {
			t.Fatal(err)
		}
		readings = append(readings, r.DegradationPPM)
	}
	mean := 0.0
	for _, v := range readings {
		mean += v
	}
	mean /= float64(len(readings))
	variance := 0.0
	for _, v := range readings {
		variance += (v - mean) * (v - mean)
	}
	sigma := math.Sqrt(variance / float64(len(readings)-1))
	if sigma > 5 {
		t.Errorf("odometer scatter = %.1f ppm, want ≤5 ppm", sigma)
	}
	if mean <= 0 {
		t.Errorf("mean reading %.1f ppm not positive after stress", mean)
	}
}

// TestCommonModeCancels: the differential reading is insensitive to the
// measurement supply, unlike a raw frequency read.
func TestCommonModeCancels(t *testing.T) {
	_, eng, s := rig(t, 5)
	if err := eng.Step(1.2, 110, 12*units.Hour); err != nil {
		t.Fatal(err)
	}
	at12, err := s.Measure(1.2)
	if err != nil {
		t.Fatal(err)
	}
	at11, err := s.Measure(1.1)
	if err != nil {
		t.Fatal(err)
	}
	// Raw frequencies shift by ~10 % between rails; the differential
	// ppm reading must move far less (residual second-order terms and
	// noise only).
	rel := math.Abs(at12.DegradationPPM-at11.DegradationPPM) / math.Max(at12.DegradationPPM, 1)
	if rel > 0.25 {
		t.Errorf("common-mode leakage: %.0f vs %.0f ppm across rails", at12.DegradationPPM, at11.DegradationPPM)
	}
}

func TestMeasureRestoresFrozenMode(t *testing.T) {
	_, eng, s := rig(t, 6)
	s.Stressed().Freeze(true)
	if err := eng.SetAC(s.Stressed().Mapping().Name, false, true); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Measure(1.2); err != nil {
		t.Fatal(err)
	}
	if s.Stressed().Enabled() {
		t.Error("measurement left the stressed RO enabled")
	}
}

func BenchmarkMeasure(b *testing.B) {
	chip, err := fpga.NewChip("b", fpga.DefaultParams(), rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	eng := stress.New(chip)
	s, err := New(chip, eng, "odo", DefaultParams(), rng.New(2))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Measure(1.2); err != nil {
			b.Fatal(err)
		}
	}
}
