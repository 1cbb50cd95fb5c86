package repl

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"selfheal/internal/engine"
	"selfheal/internal/journal"
	"selfheal/internal/store"
)

// recordingLog keeps every record committed through it, in commit
// order, beside the live history the journal keeps.
type recordingLog struct {
	store.Log
	mu  sync.Mutex
	all []store.Record
}

func (l *recordingLog) AppendBatch(ctx context.Context, recs []store.Record) error {
	err := l.Log.AppendBatch(ctx, recs)
	if err == nil {
		l.mu.Lock()
		l.all = append(l.all, recs...)
		l.mu.Unlock()
	}
	return err
}

// promote opens a replica's data directory as a promotion does and
// rebuilds the engine from it, returning the engine and the time both
// took.
func promote(t *testing.T, dir string) (*engine.Engine, time.Duration) {
	t.Helper()
	start := time.Now()
	st, _, err := store.Open[any](dir, store.JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	e, err := engine.New(st, engine.Config{EpochHours: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	took := time.Since(start)
	t.Cleanup(func() { e.Close() })
	return e, took
}

// sameEngine fails unless got's snapshot equals want's chip for chip.
func sameEngine(t *testing.T, what string, got, want *engine.Snapshot) {
	t.Helper()
	if got.Epoch != want.Epoch || got.SimHours != want.SimHours || got.Chips != want.Chips {
		t.Fatalf("%s: epoch %d, %g h, %d chips; want epoch %d, %g h, %d chips",
			what, got.Epoch, got.SimHours, got.Chips, want.Epoch, want.SimHours, want.Chips)
	}
	for pi := range want.Parts {
		for _, id := range want.Parts[pi].IDs {
			w, _ := want.Chip(id)
			if g, ok := got.Chip(id); !ok || g != w {
				t.Fatalf("%s: chip %s is %+v, want %+v", what, id, g, w)
			}
		}
	}
}

// TestLargeEngineCheckpointReplicates: a 40k-chip engine checkpoint,
// past MaxFrame as one JSON batch, reaches one follower on the live
// tail and another through a snapshot resync, in frames within
// MaxFrame, and each promoted follower's engine equals the primary's.
// It logs the promotion time beside that of a checkpoint-free journal
// of the same history.
func TestLargeEngineCheckpointReplicates(t *testing.T) {
	var maxTail atomic.Int64
	p, addr := startPrimary(t, ModeSemiSync, func(size int) (bool, time.Duration, error) {
		for {
			cur := maxTail.Load()
			if int64(size) <= cur || maxTail.CompareAndSwap(cur, int64(size)) {
				return false, 0, nil
			}
		}
	})
	tailDir := t.TempDir()
	tailF := startFollower(t, tailDir, addr)
	deadline := time.Now().Add(10 * time.Second)
	for !p.hasFollower() || !tailF.Connected() {
		if time.Now().After(deadline) {
			t.Fatal("follower never connected")
		}
		time.Sleep(5 * time.Millisecond)
	}
	log := &recordingLog{Log: p}
	st := store.NewJournaled[any](store.NewMem[any](), log)
	e, err := engine.New(st, engine.Config{EpochHours: 0.5, FlushEpochs: 16})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	specs := make([]engine.Spec, 0, 4096)
	for i := 0; i < replChips; i++ {
		sp := engine.Spec{ID: fmt.Sprintf("r%06d", i), TempC: 80, Vdd: 1.2, Duty: 1}
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
		specs = append(specs, sp)
		if len(specs) == cap(specs) || i == replChips-1 {
			res, err := e.RegisterBatch(ctx, specs)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range res {
				if r.Err != nil {
					t.Fatal(r.Err)
				}
			}
			specs = specs[:0]
		}
	}
	for e.Stats().Epoch < 260 {
		e.Tick(ctx)
	}
	if err := e.Close(); err != nil { // flushes the pending epochs
		t.Fatal(err)
	}
	want := e.Snapshot()

	ckptJSON := 0
	for _, r := range p.Records() {
		if r.Op == store.OpEngineCheckpoint {
			line, _ := json.Marshal(r)
			ckptJSON += len(line)
		}
	}
	if ckptJSON <= MaxFrame {
		t.Fatalf("the checkpoint is %d bytes of JSON, want it past MaxFrame (%d)", ckptJSON, MaxFrame)
	}
	waitConverged(t, p, tailF)
	if got := maxTail.Load(); got > MaxFrame || got == 0 {
		t.Fatalf("largest tail frame %d bytes, want within MaxFrame (%d)", got, MaxFrame)
	}
	snapDir := t.TempDir()
	snapF := startFollower(t, snapDir, addr)
	waitConverged(t, p, snapF)
	t.Logf("checkpoint: %d chips, %d bytes of JSON; largest tail frame %d bytes", replChips, ckptJSON, maxTail.Load())

	if err := tailF.Close(); err != nil {
		t.Fatal(err)
	}
	if err := snapF.Close(); err != nil {
		t.Fatal(err)
	}
	fromTail, _ := promote(t, tailDir)
	sameEngine(t, "promoted after the live tail", fromTail.Snapshot(), want)
	fromSnap, took := promote(t, snapDir)
	sameEngine(t, "promoted after a snapshot resync", fromSnap.Snapshot(), want)

	// The same history without checkpoints: each group becomes the
	// epoch record of the flush window it stood in for, from the epochs
	// recorded before it to the epoch count its encoding starts with.
	fullDir := t.TempDir()
	fj, err := journal.Open(fullDir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var full []store.Record
	var total, ckptEpoch uint64
	open := false
	for _, r := range log.all {
		switch r.Op {
		case store.OpEngineCheckpoint:
			if !open {
				ckptEpoch = binary.LittleEndian.Uint64(r.State[1:9])
				open = true
			}
			if r.Final {
				full = append(full, store.Record{Op: store.OpEngineEpoch, Epochs: ckptEpoch - total, Hours: 0.5})
				total, open = ckptEpoch, false
			}
			continue
		case store.OpEngineEpoch:
			total += r.Epochs
		}
		full = append(full, r)
	}
	for i := range full {
		full[i].Seq = uint64(i + 1)
	}
	if err := fj.ResetTo(full, uint64(len(full))); err != nil {
		t.Fatal(err)
	}
	if err := fj.Close(); err != nil {
		t.Fatal(err)
	}
	resim, tookFull := promote(t, fullDir)
	sameEngine(t, "promoted from a checkpoint-free journal", resim.Snapshot(), want)
	t.Logf("promotion (store open + engine replay) at epoch %d: %v from checkpoint plus tail (%d epochs re-run), %v from the checkpoint-free journal (%d epochs)",
		want.Epoch, took.Round(time.Millisecond), fromSnap.Stats().ReplayedEpochs, tookFull.Round(time.Millisecond), resim.Stats().ReplayedEpochs)
}
