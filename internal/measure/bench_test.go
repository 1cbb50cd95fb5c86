package measure

import (
	"fmt"
	"runtime"
	"testing"

	"selfheal/internal/rng"
	"selfheal/internal/units"
)

// The chip benchmarks behind BENCH_engine.json's chip rows: what one
// fleet chip costs to fabricate, to age through an hour of DC stress
// and to read, and how much heap it keeps live.

func BenchmarkNewBench(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewBench(fmt.Sprintf("b%d", i), DefaultBenchParams(), rng.New(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStressPhase runs one 1 h DC stress phase at 110 °C / 1.2 V,
// sampled only at its boundaries, on a chip whose chamber has settled.
func BenchmarkStressPhase(b *testing.B) {
	bench := benchChip(b)
	spec := PhaseSpec{Name: "dc", Kind: Stress, Duration: units.Hour, TempC: 110, Vdd: 1.2, FrozenIn0: true}
	if _, err := bench.RunPhase(spec); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunPhase(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAveragedRead takes one recorded sample: AvgReads averaged
// counter reads plus the sampling overhead's aging step.
func BenchmarkAveragedRead(b *testing.B) {
	bench := benchChip(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Sample(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChipHeap reports the live heap each of 200 fabricated
// benches holds: HeapAlloc after a GC, less the same before them.
func BenchmarkChipHeap(b *testing.B) {
	const chips = 200
	var perChip float64
	for i := 0; i < b.N; i++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		benches := make([]*Bench, chips)
		for j := range benches {
			var err error
			if benches[j], err = NewBench(fmt.Sprintf("h%d", j), DefaultBenchParams(), rng.New(uint64(j))); err != nil {
				b.Fatal(err)
			}
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		perChip = float64(after.HeapAlloc-before.HeapAlloc) / chips
		runtime.KeepAlive(benches)
	}
	b.ReportMetric(perChip, "heap-B/chip")
}

func benchChip(b *testing.B) *Bench {
	b.Helper()
	bench, err := NewBench("bench", DefaultBenchParams(), rng.New(7))
	if err != nil {
		b.Fatal(err)
	}
	return bench
}
