package selfheal

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"selfheal/internal/rng"
)

// stateOp is one step of a seeded chip history: an AC or DC stress, a
// sleep at 0 V or −0.3 V (each behind an unpowered chamber ramp when
// the temperature changes), with or without sampling, or a read.
type stateOp struct {
	kind        int // 0 stress, 1 sleep, 2 read
	tempC, vdd  float64
	ac          bool
	hours       float64
	sampleHours float64
}

func stateHistory(seed uint64, n int) []stateOp {
	src := rng.New(seed)
	temps := []float64{20, 85, 110}
	ops := make([]stateOp, n)
	for i := range ops {
		op := stateOp{kind: src.Intn(3), tempC: temps[src.Intn(3)], hours: []float64{0.5, 1, 6}[src.Intn(3)]}
		if src.Bernoulli(0.5) {
			op.sampleHours = 0.5
		}
		switch op.kind {
		case 0:
			op.vdd = []float64{1.0, 1.2, 1.32}[src.Intn(3)]
			op.ac = src.Bernoulli(0.5)
		case 1:
			op.vdd = []float64{0, -0.3}[src.Intn(2)]
		}
		ops[i] = op
	}
	return ops
}

// out appends an op's results to a transcript as float64 bits.
type transcript []uint64

func (t *transcript) add(vs ...float64) {
	for _, v := range vs {
		*t = append(*t, math.Float64bits(v))
	}
}

func runBench(t *testing.T, c *Chip, ops []stateOp, tr *transcript) {
	t.Helper()
	for _, op := range ops {
		var trace []TracePoint
		var err error
		switch op.kind {
		case 0:
			trace, err = c.Stress(StressCondition{TempC: op.tempC, Vdd: op.vdd, AC: op.ac}, op.hours, op.sampleHours)
		case 1:
			trace, err = c.Rejuvenate(SleepCondition{TempC: op.tempC, Vdd: op.vdd}, op.hours, op.sampleHours)
		default:
			var r Reading
			r, err = c.Measure()
			tr.add(float64(r.Counts), r.FrequencyHz, r.DelayNS, r.DegradationPct)
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range trace {
			tr.add(p.Hours, p.DelayNS)
		}
		tr.add(c.MeanVthShiftV(), c.LeakageNA())
	}
}

func runMonitored(t *testing.T, m *MonitoredChip, ops []stateOp, tr *transcript) {
	t.Helper()
	for _, op := range ops {
		var err error
		switch op.kind {
		case 0:
			err = m.Stress(StressCondition{TempC: op.tempC, Vdd: op.vdd, AC: op.ac}, op.hours)
		case 1:
			err = m.Rejuvenate(SleepCondition{TempC: op.tempC, Vdd: op.vdd}, op.hours)
		default:
			var r OdometerReading
			r, err = m.Read()
			tr.add(r.BeatHz, r.DegradationPPM)
		}
		if err != nil {
			t.Fatal(err)
		}
		tr.add(m.chip.MeanVthShift(), m.chip.Leakage())
	}
}

// TestStateRoundTripContinues is the codec's exactness property: over
// seeded bench and monitored histories, a chip saved at any point,
// encoded, decoded into a freshly fabricated chip of the same seed and
// run on gives the same transcript, bit for bit, as the original chip
// run on — and both end in the same encoded state.
func TestStateRoundTripContinues(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		ops := stateHistory(seed, 24)
		for _, cut := range []int{0, 5, 13, 24} {
			t.Run(fmt.Sprintf("bench/seed=%d/cut=%d", seed, cut), func(t *testing.T) {
				a, err := NewChip("c", seed)
				if err != nil {
					t.Fatal(err)
				}
				var ta, tb transcript
				runBench(t, a, ops[:cut], &ta)
				var st ChipState
				a.SaveState(&st)
				enc, err := st.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				var dec ChipState
				if err := dec.UnmarshalBinary(enc); err != nil {
					t.Fatal(err)
				}
				b, err := NewChip("c", seed)
				if err != nil {
					t.Fatal(err)
				}
				if err := b.RestoreState(&dec); err != nil {
					t.Fatal(err)
				}
				ta = ta[:0]
				runBench(t, a, ops[cut:], &ta)
				runBench(t, b, ops[cut:], &tb)
				checkSame(t, ta, tb, a, b)
			})
			t.Run(fmt.Sprintf("monitored/seed=%d/cut=%d", seed, cut), func(t *testing.T) {
				a, err := NewMonitoredChip("m", seed)
				if err != nil {
					t.Fatal(err)
				}
				var ta, tb transcript
				runMonitored(t, a, ops[:cut], &ta)
				var st MonitoredChipState
				a.SaveState(&st)
				enc, err := st.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				var dec MonitoredChipState
				if err := dec.UnmarshalBinary(enc); err != nil {
					t.Fatal(err)
				}
				b, err := NewMonitoredChip("m", seed)
				if err != nil {
					t.Fatal(err)
				}
				if err := b.RestoreState(&dec); err != nil {
					t.Fatal(err)
				}
				ta = ta[:0]
				runMonitored(t, a, ops[cut:], &ta)
				runMonitored(t, b, ops[cut:], &tb)
				checkSame(t, ta, tb, a, b)
			})
		}
	}
}

// checkSame compares two transcripts and the two chips' final
// encoded states.
func checkSame(t *testing.T, ta, tb transcript, a, b interface{ encoded(t *testing.T) []byte }) {
	t.Helper()
	if len(ta) != len(tb) {
		t.Fatalf("transcripts of %d and %d values", len(ta), len(tb))
	}
	for i := range ta {
		if ta[i] != tb[i] {
			t.Fatalf("value %d: %g (%#x) continuing, %g (%#x) after the round trip",
				i, math.Float64frombits(ta[i]), ta[i], math.Float64frombits(tb[i]), tb[i])
		}
	}
	if ea, eb := a.encoded(t), b.encoded(t); !bytes.Equal(ea, eb) {
		t.Fatal("final states differ")
	}
}

func (c *Chip) encoded(t *testing.T) []byte {
	var st ChipState
	c.SaveState(&st)
	b, err := st.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func (m *MonitoredChip) encoded(t *testing.T) []byte {
	var st MonitoredChipState
	m.SaveState(&st)
	b, err := st.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestStateRefusesMismatchedChip: a state decodes against its own kind
// only, and a bench state does not restore into a chip of another
// size.
func TestStateRefusesMismatchedChip(t *testing.T) {
	c, err := NewChip("c", 1)
	if err != nil {
		t.Fatal(err)
	}
	var mon MonitoredChipState
	if err := mon.UnmarshalBinary(c.encoded(t)); err == nil {
		t.Fatal("a bench state decoded as a monitored one")
	}
	var st ChipState
	c.SaveState(&st)
	st.fabric.Class = st.fabric.Class[1:]
	if err := c.RestoreState(&st); err == nil {
		t.Fatal("a state one transistor short restored")
	}
}

// BenchmarkChipSaveState is the restore point a fleet op takes before
// it simulates: one copy of a bench chip's state into a reused buffer.
func BenchmarkChipSaveState(b *testing.B) {
	c, err := NewChip("c", 1)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := c.Stress(AcceleratedStress(), 24, 12); err != nil {
		b.Fatal(err)
	}
	var st ChipState
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.SaveState(&st)
	}
}
