package fleet

import (
	"context"
	"fmt"
	"runtime"
	"sort"

	"selfheal/internal/obs"
	"selfheal/internal/store"
)

// Store is the chip table the fleet runs on — any store.Store holding
// fleet entries. Assemble a durable fleet with store.Open (journal
// backend) or an ephemeral one with store.NewMem.
type Store = store.Store[*ChipEntry]

// Option tunes a Service.
type Option func(*Service)

// WithBatchWorkers bounds the batch pipeline's worker pool (default
// GOMAXPROCS). Values below 1 keep the default.
func WithBatchWorkers(n int) Option {
	return func(s *Service) {
		if n >= 1 {
			s.workers = n
		}
	}
}

// Service is the fleet: chip lifecycle and operation application over
// a pluggable Store. All methods are safe for concurrent use; the
// concurrency and durability models are described in the package
// comment.
type Service struct {
	st       Store
	workers  int
	replayed int
}

// NewService assembles a fleet over st, replaying the store's durable
// history first: every simulation is deterministic per seed, so
// re-running the persisted operations lands every chip on its exact
// pre-shutdown aged state (including the usage accounting). A
// checkpoint record is restored, not re-run, so each chip costs its
// fabrication plus the records after its newest checkpoint.
func NewService(st Store, opts ...Option) (*Service, error) {
	s := &Service{st: st, workers: runtime.GOMAXPROCS(0)}
	for _, opt := range opts {
		opt(s)
	}
	recs := st.Replay()
	for _, rec := range recs {
		if err := s.applyRecord(rec); err != nil {
			return nil, fmt.Errorf("fleet: replay: record %d (%s %s): %w", rec.Seq, rec.Op, rec.ID, err)
		}
	}
	s.replayed = len(recs)
	return s, nil
}

// applyRecord re-runs one persisted operation without re-committing it.
func (s *Service) applyRecord(rec store.Record) error {
	switch rec.Op {
	case store.OpCreate:
		entry, err := newChipEntry(CreateSpec{ID: rec.ID, Seed: rec.Seed, Kind: rec.Kind})
		if err != nil {
			return err
		}
		if !s.st.Insert(rec.ID, entry) {
			return DuplicateError{ID: rec.ID}
		}
		return nil
	case store.OpStress, store.OpRejuvenate, store.OpMeasure, store.OpOdometer:
		if rec.Checkpoint() {
			return s.restoreCheckpoint(rec)
		}
		// Sensor reads age the die and consume noise draws; they re-run
		// too (discarding the reading) so the RNG stream lines up exactly.
		return s.apply(context.Background(), OpSpec{Op: string(rec.Op), ID: rec.ID, PhaseRequest: PhaseRequest{
			TempC: rec.TempC, Vdd: rec.Vdd, AC: rec.AC,
			Hours: rec.Hours, SampleHours: rec.SampleHours,
		}}, false).Err
	case store.OpDelete:
		_, err := s.delete(context.Background(), rec.ID, nil)
		return err
	case store.OpQuarantine, store.OpRelease:
		entry, ok := s.st.Lookup(rec.ID)
		if !ok {
			return NotFoundError{ID: rec.ID}
		}
		_, err := entry.setQuarantined(context.Background(), rec.Op == store.OpQuarantine, rec.Kind, nil)
		return err
	default:
		if store.IsEngineOp(rec.Op) {
			// Engine records share the journal but belong to the aging
			// engine's replay (engine.New consumes the same history).
			return nil
		}
		return fmt.Errorf("unknown op %q", rec.Op)
	}
}

// restoreCheckpoint replays a checkpoint record as a create: the
// records before it, the chip's create included, are no longer live.
// It fabricates the chip from the record's seed and kind and sets it
// to the record's state instead of re-running the phase.
func (s *Service) restoreCheckpoint(rec store.Record) error {
	entry, err := newChipEntry(CreateSpec{ID: rec.ID, Seed: rec.Seed, Kind: rec.Kind})
	if err != nil {
		return err
	}
	if !s.st.Insert(rec.ID, entry) {
		return DuplicateError{ID: rec.ID}
	}
	return entry.restoreCheckpoint(rec)
}

// commit returns the store-commit callback for an operation's record,
// or nil when the store provides no durability — the entry methods
// then skip the call entirely, matching the replay path. The captured
// context carries the request's trace into the journal's stage/commit
// spans; it does not cancel the commit. A failed commit wraps the
// store's error, and the operation is rolled back so it can be
// retried — unless the error is store.ErrIndeterminate: the record is
// then in the journal, and the operation stays applied, as replay
// will apply it.
func (s *Service) commit(ctx context.Context) func(store.Record) error {
	if !s.st.Durable() {
		return nil
	}
	return func(rec store.Record) error {
		if err := s.st.Commit(ctx, rec); err != nil {
			return fmt.Errorf("fleet: %s could not be committed: %w", rec.Op, err)
		}
		return nil
	}
}

// lookup finds a chip, timing the sharded-store access as a
// store.lookup span when ctx carries a trace.
func (s *Service) lookup(ctx context.Context, id string) (*ChipEntry, bool) {
	_, sp := obs.StartSpan(ctx, "store.lookup",
		obs.String("chip_id", id), obs.Int("shard", store.ShardOf(id)))
	e, ok := s.st.Lookup(id)
	sp.End()
	return e, ok
}

// Create fabricates a chip and registers it. The (expensive,
// deterministic) fabrication runs outside all locks; if two racers
// fabricate the same id, exactly one wins and the other gets a
// DuplicateError. The new entry's chip lock is held until the commit
// lands, so no stress/delete on the chip can be persisted ahead of its
// create record; a failed commit rolls the registration back, making a
// retried create safe, unless its record is in the journal (store.InLog).
func (s *Service) Create(ctx context.Context, spec CreateSpec) (ChipResponse, error) {
	if spec.Kind == "" {
		spec.Kind = KindBench
	}
	_, fab := obs.StartSpan(ctx, "chip.fabricate",
		obs.String("chip_id", spec.ID), obs.String("kind", spec.Kind))
	entry, err := newChipEntry(spec)
	fab.SetError(err)
	fab.End()
	if err != nil {
		return ChipResponse{}, err
	}
	commit := s.commit(ctx)
	entry.mu.Lock()
	defer entry.mu.Unlock()
	_, ins := obs.StartSpan(ctx, "store.insert",
		obs.String("chip_id", spec.ID), obs.Int("shard", store.ShardOf(spec.ID)))
	ok := s.st.Insert(spec.ID, entry)
	ins.End()
	if !ok {
		return ChipResponse{}, DuplicateError{ID: spec.ID}
	}
	if commit != nil {
		if err := commit(store.Record{
			Op: store.OpCreate, ID: spec.ID, Seed: spec.Seed, Kind: spec.Kind,
		}); err != nil {
			if store.InLog(err) {
				return ChipResponse{}, err
			}
			// A concurrent request may already hold a reference from Lookup
			// and be blocked on entry.mu; marking the entry deleted (we
			// still hold the lock) makes such waiters see the rollback and
			// 404 instead of persisting an operation for a chip whose
			// create record never reached disk — which would poison the
			// history and fail every subsequent replay.
			entry.deleted = true
			s.st.Remove(spec.ID)
			return ChipResponse{}, err
		}
	}
	return entry.Info(), nil
}

// Delete retires a chip: it marks the entry deleted under the chip
// lock (waiting out any in-flight operation, whose persisted record
// therefore precedes the delete record), commits, and removes it from
// the store. The first return reports whether the chip existed; a
// failed commit rolls the mark back so the delete can be retried,
// unless its record is in the journal (store.InLog).
func (s *Service) Delete(ctx context.Context, id string) (bool, error) {
	return s.delete(ctx, id, s.commit(ctx))
}

func (s *Service) delete(ctx context.Context, id string, commit func(store.Record) error) (bool, error) {
	e, ok := s.lookup(ctx, id)
	if !ok {
		return false, nil
	}
	e.lock(ctx)
	defer e.mu.Unlock()
	if e.deleted {
		return false, nil
	}
	e.deleted = true
	var err error
	if commit != nil {
		err = commit(store.Record{Op: store.OpDelete, ID: id})
	}
	if err != nil && !store.InLog(err) {
		e.deleted = false
		return true, err
	}
	s.st.Remove(id)
	return true, err
}

// Get returns the chip registered under id.
func (s *Service) Get(id string) (*ChipEntry, bool) { return s.st.Lookup(id) }

// Quarantine marks a chip quarantined: mutations refuse with
// QuarantinedError until Release, reads keep serving. The transition is
// journaled (the reason rides in the record's Kind field), so replay
// restores the quarantine set exactly. The first return reports whether
// the state changed (false: it was already quarantined).
func (s *Service) Quarantine(ctx context.Context, id, reason string) (bool, error) {
	entry, ok := s.lookup(ctx, id)
	if !ok {
		return false, NotFoundError{ID: id}
	}
	return entry.setQuarantined(ctx, true, reason, s.commit(ctx))
}

// Release lifts a chip's quarantine; semantics mirror Quarantine.
func (s *Service) Release(ctx context.Context, id string) (bool, error) {
	entry, ok := s.lookup(ctx, id)
	if !ok {
		return false, NotFoundError{ID: id}
	}
	return entry.setQuarantined(ctx, false, "", s.commit(ctx))
}

// Quarantined reports whether the chip is currently quarantined.
func (s *Service) Quarantined(id string) bool {
	entry, ok := s.st.Lookup(id)
	if !ok {
		return false
	}
	q, _ := entry.Quarantined()
	return q
}

// QuarantinedIDs returns the ids of every quarantined chip, sorted.
func (s *Service) QuarantinedIDs() []string {
	var out []string
	s.st.ForEach(func(id string, e *ChipEntry) bool {
		if q, _ := e.Quarantined(); q {
			out = append(out, id)
		}
		return true
	})
	sort.Strings(out)
	return out
}

// Apply runs one chip operation — stress, rejuvenate, measure or
// odometer — and commits its record before the chip lock is released
// (see ChipEntry.apply). It is the fleet's one op dispatch: the
// single-chip routes, batch items and replay all run through it.
func (s *Service) Apply(ctx context.Context, spec OpSpec) OpResult {
	return s.apply(ctx, spec, true)
}

// apply is Apply with the commit optional, so replay can re-run a
// persisted operation without committing it again.
func (s *Service) apply(ctx context.Context, spec OpSpec, commit bool) OpResult {
	res := OpResult{Op: spec.Op, ID: spec.ID}
	if err := s.applyOp(ctx, spec, commit, &res); err != nil {
		return OpResult{Op: spec.Op, ID: spec.ID, Err: err, Error: err.Error()}
	}
	return res
}

// applyOp builds spec's journal record, finds the chip and runs the op
// on it, committing the record when commit is set.
func (s *Service) applyOp(ctx context.Context, spec OpSpec, commit bool, res *OpResult) error {
	rec := store.Record{Op: store.Op(spec.Op), ID: spec.ID}
	switch spec.Op {
	case BatchOpStress:
		rec.AC = spec.AC
		fallthrough
	case BatchOpRejuvenate:
		rec.TempC, rec.Vdd, rec.Hours, rec.SampleHours = spec.TempC, spec.Vdd, spec.Hours, spec.SampleHours
	case BatchOpMeasure, BatchOpOdometer:
	default:
		return fmt.Errorf("fleet: unknown batch op %q (want %q, %q, %q or %q)",
			spec.Op, BatchOpStress, BatchOpRejuvenate, BatchOpMeasure, BatchOpOdometer)
	}
	entry, ok := s.lookup(ctx, spec.ID)
	if !ok {
		return NotFoundError{ID: spec.ID}
	}
	var commitFn func(store.Record) error
	if commit {
		commitFn = s.commit(ctx)
	}
	return entry.apply(ctx, spec, res, rec, commitFn)
}

// value unpacks the field of an OpResult its op fills: the value, or
// the zero value and the op's error.
func value[T any](v *T, err error) (T, error) {
	if err != nil {
		var zero T
		return zero, err
	}
	return *v, nil
}

// Stress ages a chip through Apply.
func (s *Service) Stress(ctx context.Context, id string, req PhaseRequest) (PhaseResponse, error) {
	r := s.Apply(ctx, OpSpec{Op: BatchOpStress, ID: id, PhaseRequest: req})
	return value(r.Phase, r.Err)
}

// Rejuvenate heals a chip through Apply.
func (s *Service) Rejuvenate(ctx context.Context, id string, req PhaseRequest) (PhaseResponse, error) {
	r := s.Apply(ctx, OpSpec{Op: BatchOpRejuvenate, ID: id, PhaseRequest: req})
	return value(r.Phase, r.Err)
}

// Measure reads a bench chip's ring-oscillator sensor through Apply.
func (s *Service) Measure(ctx context.Context, id string) (ReadingResponse, error) {
	r := s.Apply(ctx, OpSpec{Op: BatchOpMeasure, ID: id})
	return value(r.Reading, r.Err)
}

// Odometer reads a monitored chip's differential aging sensor through
// Apply.
func (s *Service) Odometer(ctx context.Context, id string) (OdometerResponse, error) {
	r := s.Apply(ctx, OpSpec{Op: BatchOpOdometer, ID: id})
	return value(r.Odometer, r.Err)
}

// List returns every chip's ChipResponse sorted by id.
func (s *Service) List() []ChipResponse {
	var out []ChipResponse
	s.st.ForEach(func(_ string, e *ChipEntry) bool {
		out = append(out, e.Info())
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Usage snapshots every chip's accumulated stress/heal seconds. The
// visitor takes chip locks, which is safe because ForEach holds no
// store locks while visiting (see the internal/store lock hierarchy).
func (s *Service) Usage() map[string]ChipUsage {
	out := make(map[string]ChipUsage)
	s.st.ForEach(func(id string, e *ChipEntry) bool {
		out[id] = e.usage()
		return true
	})
	return out
}

// Len reports the number of registered chips.
func (s *Service) Len() int { return s.st.Len() }

// StoreStats reports the persistence backend's counters; ok is false
// for non-durable fleets.
func (s *Service) StoreStats() (store.Stats, bool) { return s.st.Stats() }

// ReplayedRecords reports how many records NewService replayed.
func (s *Service) ReplayedRecords() int { return s.replayed }

// Close releases the store (and any journal it owns).
func (s *Service) Close() error { return s.st.Close() }
