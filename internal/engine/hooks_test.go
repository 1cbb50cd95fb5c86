package engine

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// hookRig is an engine whose OnEpoch hook hands each tick's snapshot
// pair to the test, on the caller's goroutine.
type hookRig struct {
	e      *Engine
	onTick func(epoch uint64, snap, prev *Snapshot)
}

func newHookRig(t *testing.T, n int) *hookRig {
	t.Helper()
	r := &hookRig{}
	r.e = memEngine(t, Config{EpochHours: 0.5, Workers: 1, OnEpoch: func(epoch uint64, snap, prev *Snapshot) {
		if r.onTick != nil {
			r.onTick(epoch, snap, prev)
		}
	}})
	specs := make([]Spec, n)
	for i := range specs {
		specs[i] = mixSpec(i, fmt.Sprintf("h%05d", i))
	}
	mustRegister(t, r.e, specs...)
	return r
}

func mustRegister(t *testing.T, e *Engine, specs ...Spec) {
	t.Helper()
	res, err := e.RegisterBatch(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Err != nil {
			t.Fatalf("register %s: %v", r.ID, r.Err)
		}
	}
}

// TestPrevVthSharedIDs: with no membership change between two ticks,
// every partition's previous Vth is prev's own array, handed back
// without a single allocation.
func TestPrevVthSharedIDs(t *testing.T) {
	r := newHookRig(t, 500)
	var snap, prev *Snapshot
	r.onTick = func(_ uint64, s, p *Snapshot) { snap, prev = s, p }
	r.e.Tick(context.Background())
	r.e.Tick(context.Background())
	if prev == nil || prev.Epoch+1 != snap.Epoch {
		t.Fatalf("second tick's prev is not the first tick's snapshot (nil: %v)", prev == nil)
	}
	for pi := range snap.Parts {
		got := snap.PrevVth(prev, pi)
		want := prev.Parts[pi].Vth
		if len(got) != len(want) || len(got) == 0 || &got[0] != &want[0] {
			t.Fatalf("partition %d: PrevVth is not prev's array (len %d vs %d)", pi, len(got), len(want))
		}
	}
	if allocs := testing.AllocsPerRun(100, func() {
		for pi := range snap.Parts {
			snap.PrevVth(prev, pi)
		}
	}); allocs != 0 {
		t.Fatalf("shared-id PrevVth allocated %v times per call set, want 0", allocs)
	}
}

// TestPrevVthAfterMembershipChange: a register and a remove between
// ticks break the id sharing; chips are then matched by id, and the
// newcomer has no previous reading.
func TestPrevVthAfterMembershipChange(t *testing.T) {
	ctx := context.Background()
	r := newHookRig(t, 200)
	var before *Snapshot
	r.onTick = func(_ uint64, s, _ *Snapshot) { before = s }
	r.e.Tick(ctx)
	if err := r.e.Remove(ctx, "h00003"); err != nil {
		t.Fatal(err)
	}
	mustRegister(t, r.e, Spec{ID: "late", TempC: 110, Vdd: 1.32, Duty: 1})
	var snap, prev *Snapshot
	r.onTick = func(_ uint64, s, p *Snapshot) { snap, prev = s, p }
	r.e.Tick(ctx)
	if prev != before {
		t.Fatal("prev is not the previous tick's snapshot")
	}
	seen := 0
	for pi := range snap.Parts {
		got := snap.PrevVth(prev, pi)
		pv := &snap.Parts[pi]
		if len(got) != len(pv.IDs) {
			t.Fatalf("partition %d: %d previous readings for %d chips", pi, len(got), len(pv.IDs))
		}
		for i, id := range pv.IDs {
			old, ok := prev.Chip(id)
			switch {
			case !ok && !math.IsNaN(got[i]):
				t.Fatalf("%s unknown to prev but reads %v", id, got[i])
			case ok && got[i] != old.VthShift:
				t.Fatalf("%s: previous Vth %v, want %v", id, got[i], old.VthShift)
			}
			if id == "late" {
				seen++
			}
		}
	}
	if seen != 1 {
		t.Fatalf("newcomer seen %d times", seen)
	}
}

// TestPrevVthNilKnowsNoChip: the first tick after New has no prev,
// and a nil prev knows no chip.
func TestPrevVthNilKnowsNoChip(t *testing.T) {
	r := newHookRig(t, 50)
	var snap, prev *Snapshot
	calls := 0
	r.onTick = func(_ uint64, s, p *Snapshot) { snap, prev, calls = s, p, calls+1 }
	r.e.Tick(context.Background())
	if calls != 1 || prev != nil {
		t.Fatalf("first tick: %d calls, prev nil: %v; want one call with nil prev", calls, prev == nil)
	}
	for pi := range snap.Parts {
		got := snap.PrevVth(nil, pi)
		if len(got) != len(snap.Parts[pi].IDs) {
			t.Fatalf("partition %d: %d readings for %d chips", pi, len(got), len(snap.Parts[pi].IDs))
		}
		for i, v := range got {
			if !math.IsNaN(v) {
				t.Fatalf("partition %d chip %d: nil prev reads %v", pi, i, v)
			}
		}
	}
}

// TestHookDeltasMatchReference drives a seeded five-way-mix engine
// through duty toggles every epoch and a remove+register between two
// ticks, and checks on every hooked epoch that PrevVth gives exactly
// what a hook-private map of the previous hooked epoch's Vth by id
// gave: the same chips with a known delta, bit-identical values.
func TestHookDeltasMatchReference(t *testing.T) {
	ctx := context.Background()
	const n = 2000
	r := newHookRig(t, n)
	ref := map[string]float64{}
	epochs := 0
	r.onTick = func(epoch uint64, snap, prev *Snapshot) {
		epochs++
		known := 0
		next := make(map[string]float64, snap.Chips)
		for pi := range snap.Parts {
			pv := &snap.Parts[pi]
			got := snap.PrevVth(prev, pi)
			for i, id := range pv.IDs {
				want, ok := ref[id]
				switch {
				case ok != !math.IsNaN(got[i]):
					t.Fatalf("epoch %d %s: reference known=%v, PrevVth %v", epoch, id, ok, got[i])
				case ok && math.Float64bits(got[i]) != math.Float64bits(want):
					t.Fatalf("epoch %d %s: PrevVth %v, reference %v", epoch, id, got[i], want)
				}
				if ok {
					known++
				}
				next[id] = pv.Vth[i]
			}
		}
		if epoch > 1 && known == 0 {
			t.Fatalf("epoch %d: no chip had a delta", epoch)
		}
		ref = next
	}
	rnd := rand.New(rand.NewSource(14))
	for ep := 1; ep <= 40; ep++ {
		i := rnd.Intn(n)
		sp := mixSpec(i, "")
		if err := r.e.SetCondition(ctx, fmt.Sprintf("h%05d", i), Cond{
			Phase: sp.Phase, TempC: sp.TempC, Vdd: sp.Vdd, Duty: rnd.Float64(),
		}); err != nil {
			t.Fatal(err)
		}
		if ep == 20 {
			for _, id := range []string{"h00007", "h01234"} {
				if err := r.e.Remove(ctx, id); err != nil {
					t.Fatal(err)
				}
			}
			mustRegister(t, r.e, mixSpec(7, "h00007"), mixSpec(3, "late-3"))
		}
		r.e.Tick(ctx)
	}
	if epochs != 40 {
		t.Fatalf("hook ran %d times over 40 ticks", epochs)
	}
}

// TestConcurrentTicksCarryOwnPrev: with ticks racing from several
// goroutines, every hook call still gets the snapshot pair of its own
// tick — prev exactly one epoch behind — however the calls interleave.
func TestConcurrentTicksCarryOwnPrev(t *testing.T) {
	r := newHookRig(t, 100)
	var mu sync.Mutex
	seen := map[uint64]bool{}
	r.onTick = func(epoch uint64, snap, prev *Snapshot) {
		if snap.Epoch != epoch || (epoch == 1) != (prev == nil) || (prev != nil && prev.Epoch+1 != epoch) {
			t.Errorf("epoch %d: snap epoch %d, prev nil: %v", epoch, snap.Epoch, prev == nil)
		}
		mu.Lock()
		seen[epoch] = true
		mu.Unlock()
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				r.e.Tick(context.Background())
			}
		}()
	}
	wg.Wait()
	if len(seen) != 100 {
		t.Fatalf("hook saw %d distinct epochs over 100 ticks", len(seen))
	}
}
