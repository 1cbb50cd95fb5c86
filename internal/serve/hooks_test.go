package serve

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"math"
	"sort"
	"sync"
	"testing"

	"selfheal/internal/engine"
	"selfheal/internal/faults"
	"selfheal/internal/fpga"
	"selfheal/internal/guard"
	"selfheal/internal/obs/tsdb"
	"selfheal/internal/rng"
	"selfheal/internal/store"
)

// sortedReduction is the reference the equivalence test holds
// engine.Reducer to: the sort-based reductions the two hooks ran before
// they shared one — the guard's median and raw MAD of sorted deltas and
// median of sorted Vth, the recorder's negate-then-sort margins and
// sorted aging rates read at nearest rank — filled into a Reduction.
func sortedReduction(snap, prev *engine.Snapshot) *engine.Reduction {
	median := func(xs []float64) float64 {
		sort.Float64s(xs)
		n := len(xs)
		if n%2 == 1 {
			return xs[n/2]
		}
		return (xs[n/2-1] + xs[n/2]) / 2
	}
	percentile := func(sorted []float64, p float64) float64 {
		return sorted[int(p*float64(len(sorted)-1))]
	}
	r := &engine.Reduction{Snap: snap, Prev: prev}
	var vths, margins, deltas []float64
	for pi := range snap.Parts {
		r.PrevVth[pi] = snap.PrevVth(prev, pi)
		for i, v := range snap.Parts[pi].Vth {
			vths = append(vths, v)
			margins = append(margins, -v)
			if p := r.PrevVth[pi][i]; !math.IsNaN(p) {
				deltas = append(deltas, v-p)
			}
		}
	}
	if len(vths) > 0 {
		r.VthMedian = median(vths)
		sort.Float64s(margins)
		r.MarginMin, r.MarginP50, r.MarginP95 = margins[0], percentile(margins, 0.50), percentile(margins, 0.95)
	}
	if len(deltas) > 0 {
		r.Deltas = len(deltas)
		rates := append([]float64(nil), deltas...)
		sort.Float64s(rates)
		r.DeltaP50, r.DeltaP95, r.DeltaMax = percentile(rates, 0.50), percentile(rates, 0.95), rates[len(rates)-1]
		r.DeltaMedian = median(deltas)
		devs := make([]float64, len(deltas))
		for i, x := range deltas {
			devs[i] = math.Abs(x - r.DeltaMedian)
		}
		r.DeltaMAD = median(devs)
	}
	return r
}

// reductionDiff names the first published statistic on which two
// reductions differ bit for bit ("" when none does).
func reductionDiff(got, want *engine.Reduction) string {
	if got.Deltas != want.Deltas {
		return fmt.Sprintf("Deltas %d vs %d", got.Deltas, want.Deltas)
	}
	for _, f := range []struct {
		name      string
		got, want float64
	}{
		{"VthMedian", got.VthMedian, want.VthMedian},
		{"MarginMin", got.MarginMin, want.MarginMin},
		{"MarginP50", got.MarginP50, want.MarginP50},
		{"MarginP95", got.MarginP95, want.MarginP95},
		{"DeltaMedian", got.DeltaMedian, want.DeltaMedian},
		{"DeltaMAD", got.DeltaMAD, want.DeltaMAD},
		{"DeltaP50", got.DeltaP50, want.DeltaP50},
		{"DeltaP95", got.DeltaP95, want.DeltaP95},
		{"DeltaMax", got.DeltaMax, want.DeltaMax},
	} {
		if math.Float64bits(f.got) != math.Float64bits(f.want) {
			return fmt.Sprintf("%s %v vs %v", f.name, f.got, f.want)
		}
	}
	return ""
}

// hookArena is one engine with the serve layer's two per-epoch hooks —
// guard, then telemetry — fed by the reduction reduce builds, against a
// seeded adversary and a small spare fabric.
type hookArena struct {
	eng   *engine.Engine
	guard *guard.Guard
	telem *telemetry
}

func newHookArena(t *testing.T, reduce func(snap, prev *engine.Snapshot) *engine.Reduction, chips int) *hookArena {
	t.Helper()
	a := &hookArena{telem: newTelemetry(1024, newSLOMonitor(sloConfig{}))}
	var err error
	a.eng, err = engine.New(store.NewMem[any](), engine.Config{
		EpochHours: 0.5, Workers: 1,
		OnEpoch: func(epoch uint64, snap, prev *engine.Snapshot) {
			r := reduce(snap, prev)
			a.guard.OnEpoch(epoch, r)
			a.telem.record(epoch, r, a.eng, a.guard, nil, 0, 0)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.eng.Close() })
	adv, err := faults.NewAdversary(faults.AdversaryConfig{Seed: 11, Victims: 24, Start: 6, DenyP: 0.3, CancelP: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	sp := fpga.DefaultParams()
	sp.Rows, sp.Cols = 8, 8
	spare, err := fpga.NewChip("spare", sp, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if a.guard, err = guard.New(guard.Deps{Engine: a.eng, Adversary: adv, Spare: spare}, guard.Config{}); err != nil {
		t.Fatal(err)
	}
	specs := make([]engine.Spec, chips)
	for i := range specs {
		specs[i] = arenaSpec(i)
	}
	a.register(t, specs...)
	return a
}

// arenaSpec is chip i of the five-way condition mix: DC stress, AC
// stress, a hotter bin, a circadian schedule and a sleeping cohort.
func arenaSpec(i int) engine.Spec {
	sp := engine.Spec{ID: fmt.Sprintf("h%05d", i), TempC: 80, Vdd: 1.2, Duty: 1}
	switch i % 5 {
	case 1:
		sp.Duty = 0.5
	case 2:
		sp.TempC, sp.Vdd = 105, 1.32
	case 3:
		sp.Schedule = &engine.Schedule{StressEpochs: 16, SleepEpochs: 8, SleepTempC: 40, SleepVdd: -0.3}
	case 4:
		sp.Phase = engine.PhaseSleepName
		sp.TempC, sp.Vdd = 45, -0.25
	}
	return sp
}

func (a *hookArena) register(t *testing.T, specs ...engine.Spec) {
	t.Helper()
	res, err := a.eng.RegisterBatch(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Err != nil {
			t.Fatalf("register %s: %v", r.ID, r.Err)
		}
	}
}

// TestEpochHooksMatchSortedReductions runs two identical seeded arenas
// — five-way mix, one duty toggle per epoch, an adversary opening at
// epoch 6, a remove+register that leaves an odd fleet mid-run — one
// fed by one engine.Reducer and one by the sort-based reference, and holds
// every published statistic, the retained guard alerts, the guard
// metrics and every telemetry series to bit-for-bit equality. Only the
// wall-clock series (tick_seconds, epoch_lag_seconds) are left out.
func TestEpochHooksMatchSortedReductions(t *testing.T) {
	const chips, epochs, churnAt = 4000, 240, 120
	var diffs []string
	var rd engine.Reducer
	selected := newHookArena(t, func(snap, prev *engine.Snapshot) *engine.Reduction {
		r := rd.Reduce(snap, prev)
		if d := reductionDiff(r, sortedReduction(snap, prev)); d != "" && len(diffs) < 5 {
			diffs = append(diffs, fmt.Sprintf("epoch %d: %s", snap.Epoch, d))
		}
		return r
	}, chips)
	sorted := newHookArena(t, sortedReduction, chips)

	ctx := context.Background()
	for ep := 1; ep <= epochs; ep++ {
		for _, a := range []*hookArena{selected, sorted} {
			// One duty toggle per epoch, walking the DC-stress cohort.
			id := arenaSpec(5 * (ep % (chips / 5))).ID
			if err := a.eng.SetCondition(ctx, id, engine.Cond{TempC: 80, Vdd: 1.2, Duty: 0.25 + 0.5*float64(ep%2)}); err != nil {
				t.Fatal(err)
			}
			if ep == churnAt {
				for _, i := range []int{7, 8, 9} {
					if err := a.eng.Remove(ctx, arenaSpec(i).ID); err != nil {
						t.Fatal(err)
					}
				}
				a.register(t, arenaSpec(chips), arenaSpec(chips+1))
			}
			a.eng.Tick(ctx)
		}
	}
	if len(diffs) > 0 {
		t.Fatalf("engine.Reducer differs from the sorted reference:\n%v", diffs)
	}

	alertsA, alertsB := selected.guard.Alerts(0), sorted.guard.Alerts(0)
	if len(alertsA) != len(alertsB) {
		t.Fatalf("retained alerts: %d vs %d", len(alertsA), len(alertsB))
	}
	for i := range alertsA {
		x, y := alertsA[i], alertsB[i]
		if x.Seq != y.Seq || x.Epoch != y.Epoch || x.Kind != y.Kind || x.Chip != y.Chip ||
			x.Detail != y.Detail || math.Float64bits(x.DeltaV) != math.Float64bits(y.DeltaV) {
			t.Fatalf("alert %d: %+v vs %+v", i, x, y)
		}
	}
	m := selected.guard.MetricsSnapshot()
	if m != sorted.guard.MetricsSnapshot() {
		t.Fatalf("guard metrics: %+v vs %+v", m, sorted.guard.MetricsSnapshot())
	}
	// The comparison must have had something to compare: the arena
	// convicts, remaps, heals and releases.
	if m.AlertsTotal == 0 || m.RemapsTotal == 0 || m.ReleasesTotal == 0 || m.RejuvenationEpochsTotal == 0 {
		t.Fatalf("arena too quiet to compare: %+v", m)
	}

	names := selected.telem.db.Names()
	if fmt.Sprint(names) != fmt.Sprint(sorted.telem.db.Names()) {
		t.Fatalf("series names: %v vs %v", names, sorted.telem.db.Names())
	}
	for _, name := range names {
		if name == "tick_seconds" || name == "epoch_lag_seconds" {
			continue
		}
		a, b := selected.telem.db.Select(name, tsdb.Query{}), sorted.telem.db.Select(name, tsdb.Query{})
		if len(a) != len(b) || len(a) == 0 {
			t.Fatalf("series %s: %d vs %d samples", name, len(a), len(b))
		}
		for i := range a {
			if a[i].Epoch != b[i].Epoch || math.Float64bits(a[i].Value) != math.Float64bits(b[i].Value) {
				t.Fatalf("series %s sample %d: %+v vs %+v", name, i, a[i], b[i])
			}
		}
	}
}

// TestRacingTicksKeepEpochOrder races manual ticks. onEpoch runs one
// epoch at a time and drops any epoch no newer than the last it hooked,
// so every telemetry series holds strictly increasing epochs.
func TestRacingTicksKeepEpochOrder(t *testing.T) {
	s, err := New(Config{EngineEnabled: true, EngineEpoch: -1, GuardEnabled: true,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ctx := context.Background()
	specs := make([]engine.Spec, 200)
	for i := range specs {
		specs[i] = arenaSpec(i)
	}
	if _, err := s.aging.RegisterBatch(ctx, specs); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				s.aging.Tick(ctx)
			}
		}()
	}
	wg.Wait()
	names := s.telem.db.Names()
	if len(names) == 0 {
		t.Fatal("no telemetry recorded")
	}
	for _, name := range names {
		samples := s.telem.db.Select(name, tsdb.Query{})
		for i := 1; i < len(samples); i++ {
			if samples[i].Epoch <= samples[i-1].Epoch {
				t.Fatalf("%s: epoch %d recorded after %d", name, samples[i].Epoch, samples[i-1].Epoch)
			}
		}
	}
}

// BenchmarkEpochHooks measures one epoch of the per-epoch hooks as New
// wires them — the shared reduction, the guard and the telemetry
// recorder — at three fleet sizes. Each chip's duty is drawn on its
// own, so Vth and its deltas are distinct values rather than the
// five-way mix's handful. scripts/bench-engine records the result in
// BENCH_engine.json.
func BenchmarkEpochHooks(b *testing.B) {
	for _, n := range []int{10_000, 100_000, 1_000_000} {
		b.Run(fmt.Sprintf("chips=%d", n), func(b *testing.B) {
			s, err := New(Config{EngineEnabled: true, EngineEpoch: -1, GuardEnabled: true,
				Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(s.Close)
			ctx := context.Background()
			duty := rng.New(uint64(n))
			specs := make([]engine.Spec, 0, 8192)
			for i := 0; i < n; i++ {
				specs = append(specs, engine.Spec{ID: fmt.Sprintf("b%07d", i), TempC: 80, Vdd: 1.2, Duty: duty.Float64()})
				if len(specs) < cap(specs) && i < n-1 {
					continue
				}
				res, err := s.aging.RegisterBatch(ctx, specs)
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
			// Two ticks give the hooks a previous snapshot to diff against.
			s.aging.Tick(ctx)
			prev := s.aging.Snapshot()
			s.aging.Tick(ctx)
			snap := s.aging.Snapshot()
			epoch := snap.Epoch
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				epoch++
				s.onEpoch(epoch, snap, prev)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/chip-epoch")
		})
	}
}
