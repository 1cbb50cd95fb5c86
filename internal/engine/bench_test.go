package engine

import (
	"context"
	"fmt"
	"testing"
	"time"

	"selfheal/internal/journal"
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
	registerMix(b, e, n)
	return e
}

// registerMix registers n chips of the five-way mix in batches.
func registerMix(b *testing.B, e *Engine, n int) {
	b.Helper()
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

// BenchmarkEngineReplay times a restart of 10k chips of the five-way
// mix — store.Open of the journal plus New — after 1k, 4k and 16k
// epochs of ticking, and reports the live records the restart read and
// the bytes per chip of the checkpoint it restored. The first open of
// each journal compacts it and is not timed.
func BenchmarkEngineReplay(b *testing.B) {
	const chips = 10_000
	for _, epochs := range []int{1_000, 4_000, 16_000} {
		b.Run(fmt.Sprintf("epochs=%d", epochs), func(b *testing.B) {
			dir := b.TempDir()
			cfg := Config{EpochHours: 0.5}
			st, _, err := store.Open[any](dir, store.JournalOptions{})
			if err != nil {
				b.Fatal(err)
			}
			e, err := New(st, cfg)
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			specs := make([]Spec, chips)
			for i := range specs {
				specs[i] = mixSpec(i, fmt.Sprintf("bench-%07d", i))
			}
			if _, err := e.RegisterBatch(ctx, specs); err != nil {
				b.Fatal(err)
			}
			for i := 0; i < epochs; i++ {
				e.Tick(ctx)
			}
			if err := e.Close(); err != nil {
				b.Fatal(err)
			}
			if err := st.Close(); err != nil {
				b.Fatal(err)
			}
			var live, ckptBytes int
			for i := 0; i <= b.N; i++ {
				if i == 1 {
					b.ResetTimer()
				}
				st, _, err := store.Open[any](dir, store.JournalOptions{})
				if err != nil {
					b.Fatal(err)
				}
				e, err := New(st, cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				recs := st.Replay()
				live, ckptBytes = len(recs), 0
				for _, r := range recs {
					if r.Op == store.OpEngineCheckpoint {
						ckptBytes += len(r.State)
					}
				}
				e.Close()
				if err := st.Close(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(live), "records")
			b.ReportMetric(float64(ckptBytes)/chips, "ckpt-B/chip")
		})
	}
}

// BenchmarkEngineCheckpoint measures one checkpoint of 10k, 100k and
// 1M chips of the five-way mix on a journal in a temporary directory.
// ns/op is the flush that encodes it and commits its chunks with their
// fsync, all under the tick lock; encode-ms is the encode alone, and
// compact-ms the compaction the journal runs after it, which holds the
// journal lock while it rewrites the checkpoint into the snapshot. The
// first checkpoint, which supersedes the registrations, is not timed.
func BenchmarkEngineCheckpoint(b *testing.B) {
	for _, n := range []int{10_000, 100_000, 1_000_000} {
		b.Run(fmt.Sprintf("chips=%d", n), func(b *testing.B) {
			j, err := journal.Open(b.TempDir(), journal.Options{CompactEvery: -1})
			if err != nil {
				b.Fatal(err)
			}
			e, err := New(store.NewJournaled[any](store.NewMem[any](), j), Config{EpochHours: 0.5, FlushEpochs: 1 << 30})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() {
				e.Close()
				j.Close()
			})
			registerMix(b, e, n)
			ctx := context.Background()
			var encode, compact time.Duration
			size := 0
			for i := 0; i <= b.N; i++ {
				if i == 1 {
					encode, compact = 0, 0
					b.ResetTimer()
				}
				e.tickMu.Lock()
				e.pendingEpochs, e.sinceCkpt = 1, checkpointEvery
				err := e.flushLocked(ctx)
				e.tickMu.Unlock()
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				start := time.Now()
				e.tickMu.Lock()
				size = len(e.encodeCheckpoint())
				e.tickMu.Unlock()
				encode += time.Since(start)
				start = time.Now()
				if err := j.Compact(); err != nil {
					b.Fatal(err)
				}
				compact += time.Since(start)
				b.StartTimer()
			}
			ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) / float64(b.N) }
			b.ReportMetric(ms(encode), "encode-ms")
			b.ReportMetric(ms(compact), "compact-ms")
			b.ReportMetric(float64(size)/float64(n), "ckpt-B/chip")
		})
	}
}
