package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"selfheal/internal/store"
)

func newTestService(t *testing.T, opts ...Option) *Service {
	t.Helper()
	s, err := NewService(store.NewMem[*ChipEntry](), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestLifecycle(t *testing.T) {
	s := newTestService(t)
	chip, err := s.Create(context.Background(), CreateSpec{ID: "c0", Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if chip.ID != "c0" || chip.Kind != KindBench || chip.FreshDelayNS <= 0 {
		t.Fatalf("create = %+v", chip)
	}
	if _, err := s.Create(context.Background(), CreateSpec{ID: "c0", Seed: 7}); !errors.As(err, &DuplicateError{}) {
		t.Fatalf("duplicate create error = %v", err)
	}
	if _, err := s.Create(context.Background(), CreateSpec{ID: "m0", Seed: 3, Kind: KindMonitored}); err != nil {
		t.Fatal(err)
	}

	if _, err := s.Stress(context.Background(), "c0", PhaseRequest{TempC: 110, Vdd: 1.32, AC: true, Hours: 24}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Rejuvenate(context.Background(), "c0", PhaseRequest{TempC: 110, Vdd: -0.3, Hours: 6}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Measure(context.Background(), "c0"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Odometer(context.Background(), "m0"); err != nil {
		t.Fatal(err)
	}
	// Sensor reads against the wrong kind are kind mismatches.
	if _, err := s.Measure(context.Background(), "m0"); !errors.Is(err, ErrKindMismatch) {
		t.Fatalf("measure on monitored = %v", err)
	}
	if _, err := s.Odometer(context.Background(), "c0"); !errors.Is(err, ErrKindMismatch) {
		t.Fatalf("odometer on bench = %v", err)
	}
	// Missing chips are NotFoundError everywhere.
	if _, err := s.Stress(context.Background(), "ghost", PhaseRequest{TempC: 85, Vdd: 1.2, Hours: 1}); !errors.As(err, &NotFoundError{}) {
		t.Fatalf("stress on ghost = %v", err)
	}

	list := s.List()
	if len(list) != 2 || list[0].ID != "c0" || list[1].ID != "m0" {
		t.Fatalf("list = %+v", list)
	}
	usage := s.Usage()
	if u := usage["c0"]; u.StressSeconds != 24*3600 || u.HealSeconds != 6*3600 || u.Ops != 3 {
		t.Fatalf("usage[c0] = %+v", u)
	}

	existed, err := s.Delete(context.Background(), "c0")
	if err != nil || !existed {
		t.Fatalf("delete = %v, %v", existed, err)
	}
	if existed, _ := s.Delete(context.Background(), "c0"); existed {
		t.Fatal("second delete reported the chip existed")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
}

// hookStore overrides Commit/Durable on an inner store — both a test
// double for commit failures and a proof that alternative persistence
// backends plug in behind the Store interface without the fleet layer
// noticing.
type hookStore struct {
	Store
	commit func(store.Record) error
}

func (h *hookStore) Commit(_ context.Context, rec store.Record) error { return h.commit(rec) }
func (h *hookStore) Durable() bool                                    { return true }

// TestCreateRollbackVisibleToWaiters pins the create-rollback race: a
// request that looks the entry up while the create's commit is in
// flight and blocks on the chip lock must observe the rollback (not
// found) when the commit fails — if it instead committed its own
// operation, the history would hold a stress record for a chip with no
// create record and every subsequent replay would fail.
func TestCreateRollbackVisibleToWaiters(t *testing.T) {
	inCommit := make(chan struct{})
	waiterReady := make(chan struct{})
	waiterErr := make(chan error, 1)

	hs := &hookStore{Store: store.NewMem[*ChipEntry]()}
	s, err := NewService(hs)
	if err != nil {
		t.Fatal(err)
	}
	errCommit := errors.New("injected commit failure")
	hs.commit = func(rec store.Record) error {
		if rec.Op != store.OpCreate {
			return nil
		}
		close(inCommit)
		<-waiterReady
		time.Sleep(10 * time.Millisecond) // let the waiter reach entry.mu
		return errCommit
	}

	go func() {
		<-inCommit
		e, ok := s.Get("c0")
		if !ok {
			waiterErr <- errors.New("chip not visible during commit")
			return
		}
		close(waiterReady)
		// Blocks on the chip lock until Create's rollback releases it.
		waiterErr <- e.apply(context.Background(), OpSpec{Op: BatchOpStress, ID: "c0",
			PhaseRequest: PhaseRequest{TempC: 100, Vdd: 0.9, Hours: 1}}, &OpResult{}, store.Record{}, nil)
	}()

	_, err = s.Create(context.Background(), CreateSpec{ID: "c0", Seed: 1, Kind: KindBench})
	if !errors.Is(err, errCommit) {
		t.Fatalf("Create error = %v, want it to wrap the store's %v", err, errCommit)
	}
	if werr := <-waiterErr; !errors.As(werr, &NotFoundError{}) {
		t.Fatalf("waiter Stress error = %v, want NotFoundError (rollback must be visible)", werr)
	}
	if _, ok := s.Get("c0"); ok {
		t.Fatal("chip still registered after rollback")
	}
}

// TestFleetShardCollisionHammer drives concurrent create/delete/stress/
// measure/list traffic onto chip ids that all hash to one store shard,
// under -race. This is the fleet-level assertion of the lock hierarchy
// documented in internal/store: chip locks are taken above shard locks,
// and iteration visitors (List, Usage) take chip locks only after the
// shard lock is released.
func TestFleetShardCollisionHammer(t *testing.T) {
	s := newTestService(t)
	anchor := "hammer"
	want := store.ShardOf(anchor)
	var ids []string
	for i := 0; len(ids) < 6; i++ {
		id := fmt.Sprintf("%s-%d", anchor, i)
		if store.ShardOf(id) == want {
			ids = append(ids, id)
		}
		if i > 100000 {
			t.Fatal("could not build colliding id set")
		}
	}

	const workers = 6
	const rounds = 60
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := ids[w%len(ids)]
			for i := 0; i < rounds; i++ {
				switch i % 5 {
				case 0:
					s.Create(context.Background(), CreateSpec{ID: id, Seed: uint64(w + 1)})
				case 1:
					s.Stress(context.Background(), id, PhaseRequest{TempC: 85, Vdd: 1.2, Hours: 0.1})
				case 2:
					s.Measure(context.Background(), id)
				case 3:
					s.Usage() // visitor takes chip locks under ForEach
				case 4:
					s.Delete(context.Background(), id)
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestCreateBatchPartialFailure(t *testing.T) {
	s := newTestService(t, WithBatchWorkers(4))
	if _, err := s.Create(context.Background(), CreateSpec{ID: "taken", Seed: 1}); err != nil {
		t.Fatal(err)
	}
	specs := []CreateSpec{
		{ID: "a", Seed: 1},
		{ID: "taken", Seed: 2},              // duplicate
		{ID: "b", Seed: 3, Kind: "quantum"}, // unknown kind
		{ID: "c", Seed: 4, Kind: KindMonitored},
	}
	results := s.CreateBatch(context.Background(), specs)
	if len(results) != len(specs) {
		t.Fatalf("got %d results for %d specs", len(results), len(specs))
	}
	for i, res := range results {
		if res.ID != specs[i].ID {
			t.Fatalf("results[%d].ID = %q, want %q (order must match input)", i, res.ID, specs[i].ID)
		}
	}
	if results[0].Err != nil || results[0].Chip == nil {
		t.Fatalf("results[0] = %+v", results[0])
	}
	if !errors.As(results[1].Err, &DuplicateError{}) || results[1].Error == "" {
		t.Fatalf("results[1] = %+v", results[1])
	}
	if results[2].Err == nil {
		t.Fatalf("results[2] = %+v", results[2])
	}
	if results[3].Err != nil || results[3].Chip == nil || results[3].Chip.Kind != KindMonitored {
		t.Fatalf("results[3] = %+v", results[3])
	}
	// The failures didn't block the successes.
	if s.Len() != 3 {
		t.Fatalf("fleet size = %d, want 3", s.Len())
	}
}

func TestApplyBatchMixedOps(t *testing.T) {
	s := newTestService(t)
	if _, err := s.Create(context.Background(), CreateSpec{ID: "c0", Seed: 7}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create(context.Background(), CreateSpec{ID: "m0", Seed: 3, Kind: KindMonitored}); err != nil {
		t.Fatal(err)
	}
	ops := []OpSpec{
		{Op: BatchOpStress, ID: "c0", PhaseRequest: PhaseRequest{TempC: 110, Vdd: 1.32, Hours: 24}},
		{Op: BatchOpMeasure, ID: "c0"},
		{Op: BatchOpStress, ID: "m0", PhaseRequest: PhaseRequest{TempC: 85, Vdd: 1.2, Hours: 48}},
		{Op: BatchOpOdometer, ID: "m0"},
		{Op: BatchOpRejuvenate, ID: "ghost", PhaseRequest: PhaseRequest{TempC: 110, Vdd: -0.3, Hours: 6}},
		{Op: "teleport", ID: "c0"},
	}
	results := s.ApplyBatch(context.Background(), ops)
	if len(results) != len(ops) {
		t.Fatalf("got %d results", len(results))
	}
	if results[0].Err != nil || results[0].Phase == nil || results[0].Phase.Phase != "stress" {
		t.Fatalf("results[0] = %+v", results[0])
	}
	if results[1].Err != nil || results[1].Reading == nil {
		t.Fatalf("results[1] = %+v", results[1])
	}
	if results[2].Err != nil || results[2].Phase == nil {
		t.Fatalf("results[2] = %+v", results[2])
	}
	if results[3].Err != nil || results[3].Odometer == nil {
		t.Fatalf("results[3] = %+v", results[3])
	}
	if !errors.As(results[4].Err, &NotFoundError{}) {
		t.Fatalf("results[4] = %+v", results[4])
	}
	if results[5].Err == nil || results[5].Error == "" {
		t.Fatalf("results[5] = %+v", results[5])
	}
}

// TestApplyBatchDeterministicPerChip: items targeting the same chip in
// one batch serialize on its lock, so a single-chip batch's effect is
// the same as issuing the ops sequentially — the property that keeps
// batches replayable.
func TestApplyBatchDeterministicPerChip(t *testing.T) {
	sequential := newTestService(t)
	batched := newTestService(t, WithBatchWorkers(8))
	for _, s := range []*Service{sequential, batched} {
		if _, err := s.Create(context.Background(), CreateSpec{ID: "c0", Seed: 7}); err != nil {
			t.Fatal(err)
		}
	}
	phase := PhaseRequest{TempC: 110, Vdd: 1.32, Hours: 5}
	for i := 0; i < 4; i++ {
		if _, err := sequential.Stress(context.Background(), "c0", phase); err != nil {
			t.Fatal(err)
		}
	}
	ops := make([]OpSpec, 4)
	for i := range ops {
		ops[i] = OpSpec{Op: BatchOpStress, ID: "c0", PhaseRequest: phase}
	}
	for _, res := range batched.ApplyBatch(context.Background(), ops) {
		if res.Err != nil {
			t.Fatalf("batch item failed: %+v", res)
		}
	}
	want, err := sequential.Measure(context.Background(), "c0")
	if err != nil {
		t.Fatal(err)
	}
	got, err := batched.Measure(context.Background(), "c0")
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("batched measure = %+v, sequential = %+v", got, want)
	}
}

// TestBatchRunsChipItemsInInputOrder: a batch runs each chip's items
// on one worker in input order, so a measure after a stress of the same
// chip reads the stressed die, and of two creates of one id the first
// wins. Every reading must equal the one a fleet applying the same ops
// one at a time gives.
func TestBatchRunsChipItemsInInputOrder(t *testing.T) {
	ctx := context.Background()
	sequential := newTestService(t)
	batched := newTestService(t, WithBatchWorkers(8))
	for round := 0; round < 20; round++ {
		specs := []CreateSpec{{ID: fmt.Sprintf("d%d", round), Seed: 1}}
		var ops []OpSpec
		for i := 0; i < 5; i++ {
			id := fmt.Sprintf("r%d-c%d", round, i)
			specs = append(specs, CreateSpec{ID: id, Seed: uint64(i + 1)})
			ops = append(ops,
				OpSpec{Op: BatchOpStress, ID: id, PhaseRequest: PhaseRequest{TempC: 110, Vdd: 1.2, Hours: 1}},
				OpSpec{Op: BatchOpMeasure, ID: id})
		}
		specs = append(specs, CreateSpec{ID: specs[0].ID, Seed: 2})
		created := batched.CreateBatch(ctx, specs)
		if created[0].Err != nil || !errors.As(created[len(specs)-1].Err, &DuplicateError{}) {
			t.Fatalf("round %d: first create %+v, second %+v; want the first to win", round, created[0], created[len(specs)-1])
		}
		for _, sp := range specs[:len(specs)-1] {
			if _, err := sequential.Create(ctx, sp); err != nil {
				t.Fatal(err)
			}
		}
		for k, res := range batched.ApplyBatch(ctx, ops) {
			want := sequential.Apply(ctx, ops[k])
			if res.Err != nil || want.Err != nil {
				t.Fatalf("round %d item %d: %v / %v", round, k, res.Err, want.Err)
			}
			if ops[k].Op == BatchOpMeasure && *res.Reading != *want.Reading {
				t.Fatalf("round %d: %s read %+v, want %+v, the reading after its stress", round, ops[k].ID, *res.Reading, *want.Reading)
			}
		}
	}
}

func TestBatchCancellation(t *testing.T) {
	s := newTestService(t, WithBatchWorkers(1))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	specs := make([]CreateSpec, 8)
	for i := range specs {
		specs[i] = CreateSpec{ID: fmt.Sprintf("c%d", i), Seed: uint64(i + 1)}
	}
	results := s.CreateBatch(ctx, specs)
	canceled := 0
	for _, res := range results {
		if errors.Is(res.Err, context.Canceled) {
			canceled++
		}
	}
	if canceled == 0 {
		t.Fatalf("no items reported the cancellation: %+v", results)
	}
	if len(results) != len(specs) {
		t.Fatalf("got %d results, want %d", len(results), len(specs))
	}
}

// TestDurableReplayRoundTrip drives the journaling decorator through
// the fleet API and proves a fresh service rebuilt from the same store
// directory lands on the bit-identical aged state.
func TestDurableReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	open := func() *Service {
		st, _, err := store.Open[*ChipEntry](dir, store.JournalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewService(st)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	s1 := open()
	if _, err := s1.Create(context.Background(), CreateSpec{ID: "c0", Seed: 7}); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Stress(context.Background(), "c0", PhaseRequest{TempC: 110, Vdd: 1.32, AC: true, Hours: 24}); err != nil {
		t.Fatal(err)
	}
	want, err := s1.Measure(context.Background(), "c0")
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := open()
	defer s2.Close()
	// Create + stress; the trailing measure is pruned on open so the
	// first post-restart read reproduces the pre-crash one.
	if n := s2.ReplayedRecords(); n != 2 {
		t.Fatalf("replayed %d records, want 2", n)
	}
	got, err := s2.Measure(context.Background(), "c0")
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("replayed measure = %+v, want %+v", got, want)
	}
}
