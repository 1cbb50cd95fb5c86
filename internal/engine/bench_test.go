package engine

import (
	"context"
	"fmt"
	"testing"

	"selfheal/internal/store"
)

// mixSpec is chip i of the five-way condition mix: DC stress, AC
// stress, a hotter bin, circadian schedules, and a sleeping cohort.
func mixSpec(i int, id string) Spec {
	sp := Spec{ID: id, TempC: 80, Vdd: 1.2, Duty: 1}
	switch i % 5 {
	case 1:
		sp.Duty = 0.5
	case 2:
		sp.TempC, sp.Vdd = 105, 1.32
	case 3:
		sp.Schedule = &Schedule{StressEpochs: 16, SleepEpochs: 8, SleepTempC: 40, SleepVdd: -0.3}
	case 4:
		sp.Phase = PhaseSleepName
		sp.TempC, sp.Vdd = 45, -0.25
	}
	return sp
}

// benchEngine builds an engine with n chips spread over the five-way
// condition mix.
func benchEngine(b *testing.B, n int) *Engine {
	b.Helper()
	e, err := New(store.NewMem[any](), Config{EpochHours: 0.5, FlushEpochs: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { e.Close() })
	ctx := context.Background()
	const batch = 8192
	specs := make([]Spec, 0, batch)
	flush := func() {
		res, err := e.RegisterBatch(ctx, specs)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range res {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
		specs = specs[:0]
	}
	for i := 0; i < n; i++ {
		specs = append(specs, mixSpec(i, fmt.Sprintf("bench-%07d", i)))
		if len(specs) == batch {
			flush()
		}
	}
	if len(specs) > 0 {
		flush()
	}
	return e
}

// BenchmarkEngineTick measures one full-fleet epoch advance — the
// engine's hot path — at three fleet sizes. The derived metrics are
// what BENCH_engine.json records: ns per chip-epoch and chips aged per
// wall-clock second.
func BenchmarkEngineTick(b *testing.B) {
	for _, n := range []int{10_000, 100_000, 1_000_000} {
		b.Run(fmt.Sprintf("chips=%d", n), func(b *testing.B) {
			e := benchEngine(b, n)
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Tick(ctx)
			}
			b.StopTimer()
			perChip := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / float64(n)
			b.ReportMetric(perChip, "ns/chip-epoch")
			b.ReportMetric(1e9/perChip, "chips/sec")
		})
	}
}

// BenchmarkEngineSnapshot measures snapshot publication cost (the
// per-tick copy) and lookup cost at 100k chips.
func BenchmarkEngineSnapshot(b *testing.B) {
	e := benchEngine(b, 100_000)
	b.Run("publish", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e.tickMu.Lock()
			e.publishSnapshotLocked()
			e.tickMu.Unlock()
		}
	})
	b.Run("lookup", func(b *testing.B) {
		snap := e.Snapshot()
		for i := 0; i < b.N; i++ {
			if _, ok := snap.Chip("bench-0050000"); !ok {
				b.Fatal("probe chip missing")
			}
		}
	})
	b.Run("top50", func(b *testing.B) {
		snap := e.Snapshot()
		for i := 0; i < b.N; i++ {
			if got := snap.TopByOdometer(50); len(got) != 50 {
				b.Fatalf("top-50 returned %d", len(got))
			}
		}
	})
}
