package engine

import (
	"context"
	"fmt"

	"selfheal/internal/store"
	"selfheal/internal/td"
	"selfheal/internal/units"
)

// write runs one mutation on the caller's goroutine under the tick
// lock, so it lands between two epochs, never in one. Pending epochs
// are flushed first and the lock is held until apply has applied its
// records, so the journal holds each write after the epochs that
// preceded it and before those that follow: journal order is
// application order. The snapshot is republished before the caller
// returns, so callers read their own condition and schedule changes,
// not just membership changes. apply gets the flush's failure (nil on
// success, and on an indeterminate failure, whose window is in the log
// before the write's records all the same); a write after Close gets
// ErrClosed.
func (e *Engine) write(apply func(flushErr error) []RegResult) ([]RegResult, error) {
	e.waiting.Add(1)
	e.tickMu.Lock()
	e.waiting.Add(-1)
	defer e.tickMu.Unlock()
	if e.closed {
		return nil, ErrClosed
	}
	flushErr := e.flushLocked(context.Background())
	if store.InLog(flushErr) {
		flushErr = nil
	}
	res := apply(flushErr)
	e.eventsApplied.Add(1)
	e.publishSnapshotLocked()
	return res, nil
}

// commitBatch is the one validate→commit→apply path of registrations,
// removals, and condition and schedule changes. check turns item i into
// its journal record, or refuses it (setting rec.ID either way). An id
// an earlier item already holds is refused: every item is checked
// against the engine as it stood before the batch, so a second item on
// one chip could pass its check and then fail to apply after its
// record committed, which replay could not reproduce. After a failed
// epoch flush every item is refused retryably, since committing it
// would misorder replay. The accepted records commit in input order as
// one group (store CommitBatch), and, once durable, each is applied by
// applyRecord — the code replay runs — so an acked write survives a
// hard stop and replays bit-identically. Refusals are per item; a
// failed commit fails every accepted item, and applies them all the
// same when it failed as store.ErrIndeterminate, since replay will.
// Callers hold tickMu.
func (e *Engine) commitBatch(verb string, n int, flushErr error, check func(i int) (store.Record, error)) []RegResult {
	results := make([]RegResult, n)
	recs := make([]store.Record, 0, n)
	idx := make([]int, 0, n)
	inBatch := make(map[string]bool, n)
	for i := range results {
		rec, err := check(i)
		results[i].ID = rec.ID
		switch {
		case err != nil:
		case inBatch[rec.ID]:
			err = fmt.Errorf("engine: chip %q appears twice in the batch", rec.ID)
		case flushErr != nil:
			err = fmt.Errorf("engine: %s %q: journal degraded: %w", verb, rec.ID, flushErr)
		default:
			inBatch[rec.ID] = true
			recs = append(recs, rec)
			idx = append(idx, i)
			continue
		}
		results[i].Err = err
	}
	// Engine records commit under context.Background, like the epoch
	// records: they carry no request's trace id.
	var err error
	if len(recs) > 0 {
		if err = e.j.CommitBatch(context.Background(), recs); err != nil {
			e.commitErrors.Add(uint64(len(recs)))
		}
	}
	for k, rec := range recs {
		i := idx[k]
		if err == nil || store.InLog(err) {
			results[i].Err = e.applyRecord(rec)
		}
		if err != nil {
			results[i].Err = fmt.Errorf("engine: %s %q could not be committed: %w", verb, results[i].ID, err)
		}
	}
	return results
}

// has reports whether the engine holds a chip. Callers hold tickMu.
func (e *Engine) has(id string) bool {
	_, ok := e.partFor(id).index[id]
	return ok
}

// normalizeSpec fills Spec defaults and validates the condition
// through the same constructors the hot path uses, so a registration
// that validates can never poison an epoch advance later.
func (e *Engine) normalizeSpec(sp Spec) (Spec, error) {
	if sp.ID == "" {
		return sp, fmt.Errorf("engine: registration needs an id")
	}
	switch sp.Phase {
	case "":
		sp.Phase = PhaseStressName
	case PhaseStressName, PhaseSleepName:
	default:
		return sp, fmt.Errorf("engine: chip %q: unknown phase %q (want %q or %q)",
			sp.ID, sp.Phase, PhaseStressName, PhaseSleepName)
	}
	if err := e.validateCond(Cond{Phase: sp.Phase, TempC: sp.TempC, Vdd: sp.Vdd, Duty: sp.Duty}); err != nil {
		return sp, fmt.Errorf("engine: chip %q: %w", sp.ID, err)
	}
	if sp.Schedule != nil {
		if err := e.validateSchedule(*sp.Schedule); err != nil {
			return sp, fmt.Errorf("engine: chip %q: %w", sp.ID, err)
		}
		if sp.Schedule.StressEpochs == 0 && sp.Schedule.SleepEpochs == 0 {
			sp.Schedule = nil
		}
	}
	return sp, nil
}

// validateCond checks one condition by building the corresponding td
// step, and its duty the way the td batch will, so a write is refused
// before its record commits, never at apply or replay.
func (e *Engine) validateCond(c Cond) error {
	if err := td.ValidDuty(c.Duty); err != nil {
		return err
	}
	key := classKey{tempC: c.TempC, vdd: c.Vdd}
	if c.Phase == PhaseSleepName {
		key.phase = phaseSleep
	}
	tc := tdClass(key, nil)
	var err error
	if tc.Stress {
		_, err = td.NewStressStep(e.params, tc.SCond, units.Seconds(1))
	} else {
		_, err = td.NewRecoverStep(e.params, tc.RCond, units.Seconds(1))
	}
	return err
}

func (e *Engine) validateSchedule(s Schedule) error {
	if (s.StressEpochs == 0) != (s.SleepEpochs == 0) {
		return fmt.Errorf("engine: schedule needs both phase lengths (got stress=%d sleep=%d epochs)",
			s.StressEpochs, s.SleepEpochs)
	}
	if s.StressEpochs == 0 {
		return nil // cancellation
	}
	return e.validateCond(Cond{Phase: PhaseSleepName, TempC: s.SleepTempC, Vdd: s.SleepVdd})
}

func regRecord(sp Spec) store.Record {
	rec := store.Record{
		Op: store.OpEngineReg, ID: sp.ID, Kind: sp.Kind, Phase: sp.Phase,
		TempC: sp.TempC, Vdd: sp.Vdd, Duty: sp.Duty,
	}
	if sp.Schedule != nil {
		rec.StressEpochs = sp.Schedule.StressEpochs
		rec.SleepEpochs = sp.Schedule.SleepEpochs
		rec.SleepTempC = sp.Schedule.SleepTempC
		rec.SleepVdd = sp.Schedule.SleepVdd
	}
	return rec
}

// register validates, commits and applies registrations. Callers hold
// tickMu.
func (e *Engine) register(specs []Spec, flushErr error) []RegResult {
	return e.commitBatch("register", len(specs), flushErr, func(i int) (store.Record, error) {
		sp, err := e.normalizeSpec(specs[i])
		if err == nil && e.has(sp.ID) {
			err = DuplicateError{ID: sp.ID}
		}
		return regRecord(sp), err
	})
}

// firstErr is a one-item write's verdict: the call's error, else the
// item's.
func firstErr(res []RegResult, err error) error {
	if err != nil {
		return err
	}
	return res[0].Err
}

// RegisterBatch registers chips with the engine. Results are
// per-item; an item whose result has a nil Err is durably registered
// (its record was fsync'd before the ack).
func (e *Engine) RegisterBatch(ctx context.Context, specs []Spec) ([]RegResult, error) {
	if len(specs) == 0 {
		return nil, nil
	}
	return e.write(func(flushErr error) []RegResult { return e.register(specs, flushErr) })
}

// Register registers one chip.
func (e *Engine) Register(ctx context.Context, sp Spec) error {
	return firstErr(e.RegisterBatch(ctx, []Spec{sp}))
}

// Remove unregisters an engine-native chip. Fleet-backed chips refuse
// (delete them through the fleet API; see ObserveFleetDelete).
func (e *Engine) Remove(ctx context.Context, id string) error {
	return firstErr(e.write(func(flushErr error) []RegResult {
		return e.commitBatch("remove", 1, flushErr, func(int) (store.Record, error) {
			rec := store.Record{Op: store.OpEngineRemove, ID: id}
			p := e.partFor(id)
			i, ok := p.index[id]
			if !ok {
				return rec, NotFoundError{ID: id}
			}
			if p.meta[i].fleet {
				return rec, fmt.Errorf("engine: chip %q is fleet-backed; delete it through the fleet API", id)
			}
			return rec, nil
		})
	}))
}

// SetCondition changes a chip's phase, condition, and duty cycle.
func (e *Engine) SetCondition(ctx context.Context, id string, c Cond) error {
	return firstErr(e.SetConditionBatch(ctx, []CondChange{{ID: id, Cond: c}}))
}

// SetSchedule installs (or, with zero epoch counts, cancels) a chip's
// circadian stress/sleep cycle.
func (e *Engine) SetSchedule(ctx context.Context, id string, s Schedule) error {
	return firstErr(e.SetScheduleBatch(ctx, []SchedChange{{ID: id, Schedule: s}}))
}

// CondChange is one item of a SetConditionBatch.
type CondChange struct {
	ID   string
	Cond Cond
}

// SchedChange is one item of a SetScheduleBatch.
type SchedChange struct {
	ID       string
	Schedule Schedule
}

// SetConditionBatch changes many chips' conditions in one write: the
// whole batch lands between two epochs (no chip can age under a stale
// condition while its neighbours already moved), and the records share
// the journal's group commit — the guard changes whole victim sets per
// epoch this way. Results are per-item; a chip may appear once.
func (e *Engine) SetConditionBatch(ctx context.Context, changes []CondChange) ([]RegResult, error) {
	if len(changes) == 0 {
		return nil, nil
	}
	return e.write(func(flushErr error) []RegResult {
		return e.commitBatch("set", len(changes), flushErr, func(i int) (store.Record, error) {
			id, c := changes[i].ID, changes[i].Cond
			rec := store.Record{Op: store.OpEngineSet, ID: id}
			switch c.Phase {
			case "":
				c.Phase = PhaseStressName
			case PhaseStressName, PhaseSleepName:
			default:
				return rec, fmt.Errorf("engine: unknown phase %q", c.Phase)
			}
			if err := e.validateCond(c); err != nil {
				return rec, fmt.Errorf("engine: chip %q: %w", id, err)
			}
			if !e.has(id) {
				return rec, NotFoundError{ID: id}
			}
			rec.Phase, rec.TempC, rec.Vdd, rec.Duty = c.Phase, c.TempC, c.Vdd, c.Duty
			return rec, nil
		})
	})
}

// SetScheduleBatch installs or cancels many chips' circadian schedules
// in one write; semantics mirror SetConditionBatch.
func (e *Engine) SetScheduleBatch(ctx context.Context, changes []SchedChange) ([]RegResult, error) {
	if len(changes) == 0 {
		return nil, nil
	}
	return e.write(func(flushErr error) []RegResult {
		return e.commitBatch("schedule", len(changes), flushErr, func(i int) (store.Record, error) {
			id, s := changes[i].ID, changes[i].Schedule
			rec := store.Record{
				Op: store.OpEngineSchedule, ID: id,
				StressEpochs: s.StressEpochs, SleepEpochs: s.SleepEpochs,
				SleepTempC: s.SleepTempC, SleepVdd: s.SleepVdd,
			}
			if err := e.validateSchedule(s); err != nil {
				return rec, err
			}
			if !e.has(id) {
				return rec, NotFoundError{ID: id}
			}
			return rec, nil
		})
	})
}

// ObserveFleetDelete removes a fleet-backed chip after the fleet
// deleted it. No engine record is committed: the twin's engine records
// stay live until the next engine checkpoint, which no longer holds
// it, and a restart before then replays the twin and SyncFleet drops
// it at boot.
func (e *Engine) ObserveFleetDelete(ctx context.Context, id string) error {
	return firstErr(e.write(func(error) []RegResult {
		if !e.has(id) {
			return []RegResult{{ID: id, Err: NotFoundError{ID: id}}}
		}
		return []RegResult{{ID: id, Err: e.applyRecord(store.Record{Op: store.OpEngineRemove, ID: id})}}
	}))
}

// SyncFleet reconciles engine membership with the fleet's chip set:
// fleet chips the engine does not know get registered with def's
// condition (id and kind are filled in per chip), and fleet-backed
// engine chips no longer in the fleet are dropped without a commit, as
// ObserveFleetDelete dropped them live (replay brought them back: the
// journal keeps a twin's registration, or the checkpoint holding it,
// until the first engine checkpoint after its delete). The serve layer
// calls it once on startup — it covers both crash windows (a create
// acked before its engine registration committed), deletes since the
// last engine checkpoint, and fleets that predate the engine.
func (e *Engine) SyncFleet(ctx context.Context, fleetIDs []string, def Spec) ([]RegResult, error) {
	have := make(map[string]bool, len(fleetIDs))
	for _, id := range fleetIDs {
		have[id] = true
	}
	return e.write(func(flushErr error) []RegResult {
		var specs []Spec
		for _, id := range fleetIDs {
			if !e.has(id) {
				sp := def
				sp.ID, sp.Kind = id, KindFleet
				specs = append(specs, sp)
			}
		}
		regs := e.register(specs, flushErr)
		for _, p := range e.parts {
			var stale []string
			for i := range p.meta {
				if p.meta[i].fleet && !have[p.meta[i].id] {
					stale = append(stale, p.meta[i].id)
				}
			}
			for _, id := range stale {
				e.applyRecord(store.Record{Op: store.OpEngineRemove, ID: id})
			}
		}
		return regs
	})
}
