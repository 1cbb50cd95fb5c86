package engine

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"selfheal/internal/store"
)

// reopen closes e and its store, opens the journal in dir again, and
// returns the engine replayed from it.
func reopen(t *testing.T, e *Engine, st store.Store[any], dir string, cfg Config) *Engine {
	t.Helper()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, _, err := store.Open[any](dir, store.JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st2.Close() })
	e2, err := New(st2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e2.Close() })
	return e2
}

// sameFleet fails unless got holds exactly want's epoch and chips, with
// every chip's ΔVth, odometer, phase and duty bit-identical.
func sameFleet(t *testing.T, got, want *Snapshot) {
	t.Helper()
	if got.Epoch != want.Epoch || got.SimHours != want.SimHours || got.Chips != want.Chips {
		t.Fatalf("replayed epoch=%d hours=%g chips=%d, want epoch=%d hours=%g chips=%d",
			got.Epoch, got.SimHours, got.Chips, want.Epoch, want.SimHours, want.Chips)
	}
	for pi := range want.Parts {
		for _, id := range want.Parts[pi].IDs {
			w, _ := want.Chip(id)
			g, ok := got.Chip(id)
			if !ok {
				t.Fatalf("chip %s missing after replay", id)
			}
			if g != w {
				t.Fatalf("chip %s replayed as %+v, want %+v", id, g, w)
			}
		}
	}
}

// TestBatchRefusesRepeatedChip: every item of a condition or schedule
// batch is checked against the engine as it stood before the batch, so
// a chip may appear only once per batch, as in a registration batch,
// and live and replayed state agree.
func TestBatchRefusesRepeatedChip(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	cfg := Config{EpochHours: 0.5, Workers: 2}
	st, _, err := store.Open[any](dir, store.JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"x", "y"} {
		if err := e.Register(ctx, Spec{ID: id, TempC: 80, Vdd: 1.2, Duty: 1}); err != nil {
			t.Fatal(err)
		}
	}
	e.Tick(ctx)
	conds, err := e.SetConditionBatch(ctx, []CondChange{
		{ID: "x", Cond: Cond{TempC: 110, Vdd: 1.3, Duty: 1}},
		{ID: "y", Cond: Cond{TempC: 95, Vdd: 1.25, Duty: 0.5}},
		{ID: "x", Cond: Cond{Phase: PhaseSleepName, TempC: 110, Vdd: -0.3, Duty: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	scheds, err := e.SetScheduleBatch(ctx, []SchedChange{
		{ID: "y", Schedule: Schedule{StressEpochs: 1, SleepEpochs: 2, SleepTempC: 110, SleepVdd: -0.3}},
		{ID: "x", Schedule: Schedule{StressEpochs: 2, SleepEpochs: 1, SleepTempC: 40, SleepVdd: 0}},
		{ID: "y", Schedule: Schedule{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, res := range map[string][]RegResult{"condition": conds, "schedule": scheds} {
		for i, r := range res {
			if i < 2 && r.Err != nil {
				t.Fatalf("%s item %d (%s): %v", name, i, r.ID, r.Err)
			}
			if i == 2 && (r.Err == nil || !strings.Contains(r.Err.Error(), "twice")) {
				t.Fatalf("%s item %d repeats chip %s; err = %v, want a refusal", name, i, r.ID, r.Err)
			}
		}
	}
	for i := 0; i < 5; i++ {
		e.Tick(ctx)
	}
	live := e.Snapshot()
	sameFleet(t, reopen(t, e, st, dir, cfg).Snapshot(), live)
}

// TestBatchCommitsInOrderWhole: a batch's records land in the journal
// in input order, and a write fault on any of them refuses every item,
// applying none.
func TestBatchCommitsInOrderWhole(t *testing.T) {
	ctx := context.Background()
	st, _, err := store.Open[any](t.TempDir(), store.JournalOptions{
		Hook: func(op string, line []byte) ([]byte, error) {
			if strings.Contains(string(line), `"id":"bad"`) {
				return nil, fmt.Errorf("injected write fault")
			}
			return line, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	e, err := New(st, Config{EpochHours: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	spec := func(id string) Spec { return Spec{ID: id, TempC: 80, Vdd: 1.2, Duty: 1} }
	res, err := e.RegisterBatch(ctx, []Spec{spec("a"), spec("bad"), spec("c")})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Err == nil {
			t.Fatalf("item %s registered although its batch hit a write fault", r.ID)
		}
	}
	if st := e.Stats(); st.Chips != 0 || st.CommitErrors != 3 {
		t.Fatalf("after the failed batch: %d chips, %d commit errors; want 0 and 3", st.Chips, st.CommitErrors)
	}
	ids := []string{"e9", "e1", "e5", "e0", "e7", "e3"}
	var specs []Spec
	for _, id := range ids {
		specs = append(specs, spec(id))
	}
	if _, err := e.RegisterBatch(ctx, specs); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, rec := range st.Replay() {
		got = append(got, rec.ID)
	}
	if strings.Join(got, ",") != strings.Join(ids, ",") {
		t.Fatalf("journal order %v, want the batch's %v", got, ids)
	}
}

// TestConcurrentWritesReplayExact: writers on several goroutines —
// registrations, multi-chip condition and schedule batches over a
// shared pool, removals — race a ticking goroutine on a durable
// journal, and the reopened engine replays to the last live snapshot
// bit for bit. Journal order must equal application order for that to
// hold.
func TestConcurrentWritesReplayExact(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	cfg := Config{EpochHours: 0.5, FlushEpochs: 3, Workers: 2}
	st, _, err := store.Open[any](dir, store.JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const pool = 12
	shared := make([]Spec, pool)
	for i := range shared {
		shared[i] = Spec{ID: fmt.Sprintf("s%02d", i), TempC: 70 + float64(i), Vdd: 1.2, Duty: 1}
	}
	if res, err := e.RegisterBatch(ctx, shared); err != nil {
		t.Fatal(err)
	} else if err := batchErr(res); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	ticked := make(chan struct{})
	go func() {
		defer close(ticked)
		for {
			select {
			case <-stop:
				return
			default:
				e.Tick(ctx)
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < replayWriters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < replayRounds; r++ {
				own := fmt.Sprintf("w%d-%02d", w, r)
				if err := e.Register(ctx, Spec{ID: own, TempC: 90, Vdd: 1.25, Duty: 0.5 + 0.01*float64(r)}); err != nil {
					t.Errorf("register %s: %v", own, err)
					return
				}
				conds := []CondChange{{ID: own, Cond: Cond{TempC: 100, Vdd: 1.3, Duty: 0.9}}}
				for k := 0; k < 3; k++ {
					id := shared[(w+r+4*k)%pool].ID
					c := Cond{TempC: 85 + float64(w), Vdd: 1.1 + 0.01*float64(r), Duty: 0.25 * float64(k+1)}
					if (w+r+k)%3 == 0 {
						c = Cond{Phase: PhaseSleepName, TempC: 110, Vdd: -0.3, Duty: 1}
					}
					conds = append(conds, CondChange{ID: id, Cond: c})
				}
				res, err := e.SetConditionBatch(ctx, conds)
				if err == nil {
					err = batchErr(res)
				}
				if err != nil {
					t.Errorf("writer %d round %d conditions: %v", w, r, err)
					return
				}
				scheds := []SchedChange{
					{ID: own, Schedule: Schedule{StressEpochs: 2, SleepEpochs: 1, SleepTempC: 110, SleepVdd: -0.3}},
					{ID: shared[(w*5+r)%pool].ID, Schedule: Schedule{StressEpochs: uint64(1 + r%3), SleepEpochs: 2, SleepTempC: 60, SleepVdd: 0}},
					{ID: shared[(w*5+r+6)%pool].ID},
				}
				if res, err = e.SetScheduleBatch(ctx, scheds); err == nil {
					err = batchErr(res)
				}
				if err != nil {
					t.Errorf("writer %d round %d schedules: %v", w, r, err)
					return
				}
				if r%3 == 2 {
					prev := fmt.Sprintf("w%d-%02d", w, r-1)
					if err := e.Remove(ctx, prev); err != nil {
						t.Errorf("remove %s: %v", prev, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-ticked
	if t.Failed() {
		return
	}
	if st := e.Stats(); st.AdvanceError != "" || st.CommitErrors != 0 {
		t.Fatalf("advance error %q, %d commit errors", st.AdvanceError, st.CommitErrors)
	}
	live := e.Snapshot()
	if live.Epoch == 0 {
		t.Fatal("no epoch advanced while the writers ran")
	}
	sameFleet(t, reopen(t, e, st, dir, cfg).Snapshot(), live)
}

// batchErr is the first per-item error of a batch.
func batchErr(res []RegResult) error {
	for _, r := range res {
		if r.Err != nil {
			return fmt.Errorf("%s: %w", r.ID, r.Err)
		}
	}
	return nil
}
