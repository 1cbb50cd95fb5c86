package selfheal

import (
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"strings"
	"testing"

	"selfheal/internal/fpga"
	"selfheal/internal/lut"
	"selfheal/internal/measure"
	"selfheal/internal/rng"
	"selfheal/internal/stress"
	"selfheal/internal/units"
)

// TestPhysicsGolden replays seeded operation histories on every chip
// kind — bench chips, monitored chips with their protected reference
// island, PUF chips, netlist Logic chips driven by per-cell phases, and
// a bare die whose engine exercises duplicate activities, idle-cell
// switching and Reset — and holds every reading, trace point, mean Vth
// shift, leakage and per-cell digest to testdata/physics.golden as
// float64 bits. The histories cover unpowered chamber ramps, AC and DC
// stress with both frozen inputs, sleep at 0 V and −0.3 V and the
// sampling overhead. A diff means the simulated physics changed: every
// journal replays it, so regenerate the file only for a deliberate
// model change.
func TestPhysicsGolden(t *testing.T) {
	g := &golden{}
	for seed := uint64(1); seed <= 3; seed++ {
		goldenBench(t, g, seed)
		goldenMonitored(t, g, seed)
		goldenPUF(t, g, seed)
		goldenLogic(t, g, seed)
	}
	goldenBareDie(t, g)
	want, err := os.ReadFile("testdata/physics.golden")
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(g.b.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var got, exp string
		if i < len(gl) {
			got = gl[i]
		}
		if i < len(wl) {
			exp = wl[i]
		}
		if got != exp {
			t.Fatalf("testdata/physics.golden line %d:\n got %s\nwant %s", i+1, got, exp)
		}
	}
}

// golden accumulates the transcript: one value per line, its float64
// bits in hex (the compared part) followed by %g for a human reader.
type golden struct{ b strings.Builder }

func (g *golden) val(label string, v float64) {
	fmt.Fprintf(&g.b, "%s %016x %g\n", label, math.Float64bits(v), v)
}

func (g *golden) text(label, v string) { fmt.Fprintf(&g.b, "%s %s\n", label, v) }

func (g *golden) trace(label string, pts []TracePoint) {
	for i, p := range pts {
		g.val(fmt.Sprintf("%s[%d].h", label, i), p.Hours)
		g.val(fmt.Sprintf("%s[%d].ns", label, i), p.DelayNS)
	}
}

// die records the die-level health figures — what a Chip's
// MeanVthShiftV and LeakageNA return — and the per-cell digest.
func (g *golden) die(t *testing.T, label string, c *fpga.Chip) {
	t.Helper()
	g.val(label+" mean_vth", c.MeanVthShift())
	g.val(label+" leakage", c.Leakage())
	g.cells(t, label, c)
}

// cells records a digest of every cell on the die: its leakage and
// its path delay for all four input patterns, so a change to any
// transistor on any path shows.
func (g *golden) cells(t *testing.T, label string, c *fpga.Chip) {
	t.Helper()
	h := fnv.New64a()
	var buf [8]byte
	put := func(v float64) {
		bits := math.Float64bits(v)
		for i := range buf {
			buf[i] = byte(bits >> (8 * i))
		}
		h.Write(buf[:])
	}
	var err error
	c.Cells(func(_, _ int, cell *lut.LUT2, _ bool) {
		put(cell.Leakage())
		for k := 0; k < 4; k++ {
			d, e := cell.PathDelay(1.2, k>>1 == 1, k&1 == 1)
			if e != nil && err == nil {
				err = e
			}
			put(d)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	g.text(label+" cells", fmt.Sprintf("%016x", h.Sum64()))
}

var (
	goldenTemps = []float64{20, 85, 110}
	goldenHours = []float64{0.5, 1, 2, 3}
	goldenEvery = []float64{0, 0.5, 1}
)

func goldenBench(t *testing.T, g *golden, seed uint64) {
	c, err := NewChip(fmt.Sprintf("gb%d", seed), seed)
	if err != nil {
		t.Fatal(err)
	}
	pre := fmt.Sprintf("bench%d", seed)
	g.val(pre+" fresh", c.FreshDelayNS())
	ops := []string{"ac", "measure", "dc1", "sleep0", "dc0", "sleep-0.3", "measure", "reset", "dc0", "ac", "sleep-0.3", "measure"}
	r := rng.New(seed * 7919)
	for op := range ops {
		kind := ops[(op+3*int(seed))%len(ops)]
		label := fmt.Sprintf("%s op%d", pre, op)
		temp := goldenTemps[r.Intn(len(goldenTemps))]
		hours := goldenHours[r.Intn(len(goldenHours))]
		every := goldenEvery[r.Intn(len(goldenEvery))]
		g.text(label, fmt.Sprintf("%s %g°C %gh/%gh", kind, temp, hours, every))
		var pts []TracePoint
		switch kind {
		case "reset":
			c.bench.Chip.Reset()
		case "ac", "dc1":
			pts, err = c.Stress(StressCondition{TempC: temp, Vdd: 1.2, AC: kind == "ac"}, hours, every)
		case "dc0":
			// DC stress with the chain input frozen low, which the
			// public API (frozen high) does not reach.
			s, e := c.bench.RunPhase(measure.PhaseSpec{
				Name: "dc0", Kind: measure.Stress, Duration: units.HoursToSeconds(hours),
				TempC: units.Celsius(temp), Vdd: 1.2, FrozenIn0: false,
				SampleEvery: units.HoursToSeconds(every),
			})
			if err = e; err == nil {
				pts = tracePoints(s.Times(), s.Values())
			}
		case "sleep0", "sleep-0.3":
			vdd := 0.0
			if kind == "sleep-0.3" {
				vdd = -0.3
			}
			pts, err = c.Rejuvenate(SleepCondition{TempC: temp, Vdd: vdd}, hours, every)
		case "measure":
			var m Reading
			m, err = c.Measure()
			g.val(label+" counts", float64(m.Counts))
			g.val(label+" hz", m.FrequencyHz)
			g.val(label+" ns", m.DelayNS)
			g.val(label+" pct", m.DegradationPct)
		}
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		g.trace(label+" trace", pts)
		g.val(label+" mean_vth_v", c.MeanVthShiftV())
		g.val(label+" leakage_na", c.LeakageNA())
		g.cells(t, label, c.bench.Chip)
	}
}

func goldenMonitored(t *testing.T, g *golden, seed uint64) {
	m, err := NewMonitoredChip(fmt.Sprintf("gm%d", seed), seed)
	if err != nil {
		t.Fatal(err)
	}
	pre := fmt.Sprintf("monitored%d", seed)
	ops := []string{"stress", "read", "sleep0", "read", "stress", "sleep-0.3", "read", "stress", "read", "sleep-0.3"}
	r := rng.New(seed * 104729)
	for op := range ops {
		kind := ops[(op+int(seed))%len(ops)]
		label := fmt.Sprintf("%s op%d", pre, op)
		temp := goldenTemps[r.Intn(len(goldenTemps))]
		hours := goldenHours[r.Intn(len(goldenHours))]
		g.text(label, fmt.Sprintf("%s %g°C %gh", kind, temp, hours))
		switch kind {
		case "stress":
			err = m.Stress(StressCondition{TempC: temp, Vdd: 1.2}, hours)
		case "sleep0":
			err = m.Rejuvenate(SleepCondition{TempC: temp, Vdd: 0}, hours)
		case "sleep-0.3":
			err = m.Rejuvenate(SleepCondition{TempC: temp, Vdd: -0.3}, hours)
		case "read":
			var rd OdometerReading
			rd, err = m.Read()
			g.val(label+" beat_hz", rd.BeatHz)
			g.val(label+" ppm", rd.DegradationPPM)
		}
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		g.die(t, label, m.chip)
	}
}

func goldenPUF(t *testing.T, g *golden, seed uint64) {
	p, err := NewPUFChip(fmt.Sprintf("gp%d", seed), seed)
	if err != nil {
		t.Fatal(err)
	}
	pre := fmt.Sprintf("puf%d", seed)
	ops := []string{"read", "stress", "read", "sleep-0.3", "read", "stress", "stress", "read"}
	r := rng.New(seed * 1299709)
	for op, kind := range ops {
		label := fmt.Sprintf("%s op%d", pre, op)
		temp := goldenTemps[r.Intn(len(goldenTemps))]
		hours := goldenHours[r.Intn(len(goldenHours))] * 8
		switch kind {
		case "stress":
			g.text(label, fmt.Sprintf("stress %g°C %gh", temp, hours))
			err = p.Stress(StressCondition{TempC: temp, Vdd: 1.32}, hours)
		case "sleep-0.3":
			g.text(label, fmt.Sprintf("sleep-0.3 %g°C %gh", temp, hours))
			err = p.Rejuvenate(SleepCondition{TempC: temp, Vdd: -0.3}, hours)
		case "read":
			var bits []bool
			bits, err = p.Read()
			s := make([]byte, len(bits))
			for i, b := range bits {
				s[i] = '0'
				if b {
					s[i] = '1'
				}
			}
			g.text(label, "read "+string(s))
			if err == nil {
				var flips int
				flips, err = p.FlippedBits()
				g.val(label+" flipped", float64(flips))
			}
			if err == nil {
				var rel float64
				rel, err = p.Reliability(3)
				g.val(label+" reliability", rel)
			}
		}
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		g.die(t, label, p.chip)
	}
}

func goldenLogic(t *testing.T, g *golden, seed uint64) {
	l, err := NewAdderLogic(4, seed)
	if err != nil {
		t.Fatal(err)
	}
	pre := fmt.Sprintf("logic%d", seed)
	g.val(pre+" fresh", l.FreshCriticalPathNS())
	r := rng.New(seed * 15485863)
	for op := 0; op < 6; op++ {
		label := fmt.Sprintf("%s op%d", pre, op)
		temp := goldenTemps[r.Intn(len(goldenTemps))]
		hours := goldenHours[r.Intn(len(goldenHours))] * 4
		if r.Intn(3) == 0 {
			g.text(label, fmt.Sprintf("sleep -0.3V %g°C %gh", temp, hours))
			err = l.Rejuvenate(SleepCondition{TempC: temp, Vdd: -0.3}, hours)
		} else {
			bias := []float64{0.2, 0.5, 0.8}[r.Intn(3)]
			g.text(label, fmt.Sprintf("workload %g°C %gh bias %g", temp, hours, bias))
			err = l.StressWithWorkload(StressCondition{TempC: temp, Vdd: 1.2}, hours, bias)
		}
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		d, err := l.CriticalPathNS()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		g.val(label+" critical_ns", d)
		g.die(t, label, l.chip)
	}
}

// goldenBareDie drives the stress engine directly through the cases
// the chip kinds above never reach: the same mapping registered twice
// (so its cells age twice per step), a protected island, idle-cell
// aging switched on and off, short sampling-length steps, and a die
// Reset followed by more aging.
func goldenBareDie(t *testing.T, g *golden) {
	chip, err := fpga.NewChip("gd", fpga.DefaultParams(), rng.New(99))
	if err != nil {
		t.Fatal(err)
	}
	a, err := chip.MapInverterChain("a", 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := chip.MapInverterChain("b", 5)
	if err != nil {
		t.Fatal(err)
	}
	eng := stress.New(chip)
	for _, act := range []stress.Activity{
		{Mapping: a, AC: true},
		{Mapping: a, FrozenIn0: false},
	} {
		if err := eng.AddActivity(act); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Protect(b); err != nil {
		t.Fatal(err)
	}
	steps := []struct {
		vdd  units.Volt
		temp units.Celsius
		dt   units.Seconds
		idle bool
		ac   bool
	}{
		{1.2, 110, 6 * units.Hour, true, true},
		{1.2, 110, 3, true, false},
		{0, 85, units.Hour, true, true},
		{1.32, 85, 2 * units.Hour, false, false},
		{-0.3, 110, 4 * units.Hour, false, true},
		{1.2, 20, 30 * units.Minute, true, true},
		{1.2, 110, 3, false, true},
		{-0.3, 20, units.Hour, true, false},
	}
	for i, s := range steps {
		if i == 5 {
			chip.Reset()
			g.text("bare reset", "")
		}
		eng.StressIdleCells = s.idle
		if err := eng.SetAC("a", s.ac, false); err != nil {
			t.Fatal(err)
		}
		if err := eng.Step(s.vdd, s.temp, s.dt); err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("bare step%d", i)
		for _, m := range []*fpga.Mapping{a, b} {
			d, err := m.MeasuredDelay(1.2)
			if err != nil {
				t.Fatal(err)
			}
			g.val(label+" "+m.Name, d)
		}
		g.die(t, label, chip)
	}
}
