package fleet

import (
	"context"
	"fmt"
	"sync"

	"selfheal"
	"selfheal/internal/obs"
	"selfheal/internal/store"
)

// ChipEntry is one registered chip plus its usage accounting. Each
// entry carries its own mutex, at the top of the lock hierarchy (see
// internal/store): stress/rejuvenate/measure on *different* chips run
// in parallel while operations on the *same* chip serialize.
//
// Mutating methods take a commit callback — the store commit. It runs
// while the per-chip lock is still held, so the persisted record order
// always matches the order the operations were applied in — the
// invariant replay depends on. A nil commit (replay, or a non-durable
// store) applies the operation in memory only.
type ChipEntry struct {
	id   string
	kind string
	seed uint64

	mu      sync.Mutex // guards the simulated die and the fields below
	deleted bool       // set by Delete; later ops see 404, not stale state
	bench   *selfheal.Chip
	mon     *selfheal.MonitoredChip

	// quarantined is set by the guard (journaled, so it survives a
	// restart): mutations are refused with QuarantinedError while reads
	// of already-materialized state (Info, usage) keep serving.
	quarantined bool
	quarReason  string

	tally tally
}

// tally is the part of a chip's state its die does not hold: usage
// accounting, the last sensor read-outs and the checkpoint cadence.
type tally struct {
	stressSeconds float64
	healSeconds   float64
	ops           uint64

	// Most recent sensor read-outs, retained for the telemetry
	// exposition (nil until the matching sensor has been read).
	lastMeasure  *measureReading
	lastOdometer *odometerReading

	// sinceCheckpoint counts the chip's records after its create or
	// its last checkpoint (see checkpointEvery). Checkpoints do not
	// hold it: restoring one starts it at 0.
	sinceCheckpoint int
}

type measureReading struct {
	delayNS        float64
	degradationPct float64
}

type odometerReading struct {
	beatHz         float64
	degradationPPM float64
}

// newChipEntry fabricates the simulated die for a spec. Fabrication is
// deterministic in (id, seed, kind) and runs without any locks held.
func newChipEntry(spec CreateSpec) (*ChipEntry, error) {
	kind := spec.Kind
	if kind == "" {
		kind = KindBench
	}
	entry := &ChipEntry{id: spec.ID, kind: kind, seed: spec.Seed}
	switch kind {
	case KindBench:
		chip, err := selfheal.NewChip(spec.ID, spec.Seed)
		if err != nil {
			return nil, err
		}
		entry.bench = chip
	case KindMonitored:
		chip, err := selfheal.NewMonitoredChip(spec.ID, spec.Seed)
		if err != nil {
			return nil, err
		}
		entry.mon = chip
	default:
		return nil, fmt.Errorf("fleet: unknown chip kind %q (want %q or %q)", kind, KindBench, KindMonitored)
	}
	return entry, nil
}

// ID returns the chip's registered id.
func (e *ChipEntry) ID() string { return e.id }

// Info describes the chip without touching its simulated state.
func (e *ChipEntry) Info() ChipResponse {
	resp := ChipResponse{ID: e.id, Kind: e.kind}
	if e.bench != nil {
		resp.FreshDelayNS = e.bench.FreshDelayNS()
	}
	return resp
}

// usage snapshots the accumulated history under the chip lock.
func (e *ChipEntry) usage() ChipUsage {
	e.mu.Lock()
	defer e.mu.Unlock()
	u := ChipUsage{
		Kind:          e.kind,
		StressSeconds: e.tally.stressSeconds,
		HealSeconds:   e.tally.healSeconds,
		Ops:           e.tally.ops,
	}
	if m := e.tally.lastMeasure; m != nil {
		u.LastDelayNS = m.delayNS
		pct := m.degradationPct
		u.LastDegradationPct = &pct
	}
	if o := e.tally.lastOdometer; o != nil {
		u.LastBeatHz = o.beatHz
		ppm := o.degradationPPM
		u.LastDegradationPPM = &ppm
	}
	return u
}

// Quarantined reports the chip's quarantine state and reason.
func (e *ChipEntry) Quarantined() (bool, string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.quarantined, e.quarReason
}

// setQuarantined flips the quarantine state under the chip lock,
// committing the transition before the lock is released (same record-
// order invariant as the aging mutations). It is idempotent: a repeat
// transition changes nothing and commits nothing, so the journal holds
// one record per actual state change. A failed commit rolls the flip
// back, making a retry safe, unless its record is in the journal
// (store.InLog). The first return reports whether the state changed.
func (e *ChipEntry) setQuarantined(ctx context.Context, v bool, reason string, commit func(store.Record) error) (bool, error) {
	e.lock(ctx)
	defer e.mu.Unlock()
	if e.deleted {
		return false, NotFoundError{ID: e.id}
	}
	if e.quarantined == v {
		return false, nil
	}
	prevReason := e.quarReason
	e.quarantined = v
	e.quarReason = reason
	rec := store.Record{Op: store.OpQuarantine, ID: e.id, Kind: reason}
	if !v {
		e.quarReason = ""
		rec = store.Record{Op: store.OpRelease, ID: e.id}
	}
	if commit != nil {
		if err := commit(rec); err != nil {
			if store.InLog(err) {
				return true, err
			}
			e.quarantined = !v
			e.quarReason = prevReason
			return false, err
		}
	}
	return true, nil
}

// lock acquires the per-chip mutex, recording the wait as a chip.lock
// span when ctx carries a trace — the contention a batch hammering one
// chip shows up as, distinct from fsync or compute time.
func (e *ChipEntry) lock(ctx context.Context) {
	_, sp := obs.StartSpan(ctx, "chip.lock", obs.String("chip_id", e.id))
	e.mu.Lock()
	sp.End()
}

// apply runs one chip operation — the shared skeleton of stress,
// rejuvenate, measure and odometer. It takes the chip lock, refuses a
// deleted or quarantined chip or a sensor read the chip's kind lacks,
// simulates, and commits rec before the lock is released, so the
// persisted order always matches the order the operations were
// applied in. Sensor reads are mutations in disguise (sampling ages the
// die and consumes noise draws), so they commit, and quarantine refuses
// them, like the phases.
//
// The die holds an op exactly when the journal does: apply saves the
// chip's state before it simulates and restores it when the
// simulation or the commit fails — unless the commit failed as
// store.ErrIndeterminate, whose record is in the journal all the same.
// A phase that brings the chip to checkpointEvery records since its
// last checkpoint carries a new one in rec.
func (e *ChipEntry) apply(ctx context.Context, spec OpSpec, res *OpResult, rec store.Record, commit func(store.Record) error) error {
	e.lock(ctx)
	defer e.mu.Unlock()
	switch {
	case e.deleted:
		return NotFoundError{ID: e.id}
	case e.quarantined:
		return QuarantinedError{ID: e.id, Reason: e.quarReason}
	case spec.Op == BatchOpMeasure && e.bench == nil:
		return fmt.Errorf(
			"fleet: chip %q is %q — use /odometer for its on-die sensor: %w", e.id, e.kind, ErrKindMismatch)
	case spec.Op == BatchOpOdometer && e.mon == nil:
		return fmt.Errorf(
			"fleet: chip %q is %q — use /measure for its bench read-out: %w", e.id, e.kind, ErrKindMismatch)
	}
	if commit == nil {
		return e.run(ctx, spec, res)
	}
	undo := statePool.Get().(*chipState)
	defer statePool.Put(undo)
	e.save(undo)
	err := e.run(ctx, spec, res)
	if err == nil && spec.Op != BatchOpMeasure && spec.Op != BatchOpOdometer &&
		e.tally.sinceCheckpoint >= checkpointEvery {
		e.tally.sinceCheckpoint = 0
		rec.Seed, rec.Kind = e.seed, e.kind
		rec.State, err = e.checkpoint()
	}
	if err == nil {
		err = commit(rec)
	}
	if err != nil && !store.InLog(err) {
		_ = e.restore(undo) // a state saved from this chip always restores
	}
	return err
}

// run simulates spec under a chip.<op> span and counts it. Callers
// hold e.mu.
func (e *ChipEntry) run(ctx context.Context, spec OpSpec, res *OpResult) error {
	_, sim := obs.StartSpan(ctx, "chip."+spec.Op, obs.String("chip_id", e.id))
	err := e.simulate(spec, res)
	sim.SetError(err)
	sim.End()
	if err != nil {
		return err
	}
	e.tally.ops++
	e.tally.sinceCheckpoint++
	return nil
}

// save copies the chip's state into dst. Callers hold e.mu.
func (e *ChipEntry) save(dst *chipState) {
	if e.bench != nil {
		e.bench.SaveState(&dst.bench)
	} else {
		e.mon.SaveState(&dst.mon)
	}
	dst.tally = e.tally
}

// restore sets the chip's state to src; on an error the chip is part
// restored (see selfheal.Chip.RestoreState). Callers hold e.mu.
func (e *ChipEntry) restore(src *chipState) error {
	var err error
	if e.bench != nil {
		err = e.bench.RestoreState(&src.bench)
	} else {
		err = e.mon.RestoreState(&src.mon)
	}
	if err != nil {
		return err
	}
	e.tally = src.tally
	return nil
}

// checkpoint encodes the chip's state. Callers hold e.mu.
func (e *ChipEntry) checkpoint() ([]byte, error) {
	st := statePool.Get().(*chipState)
	defer statePool.Put(st)
	e.save(st)
	return st.encode(e.kind)
}

// restoreCheckpoint sets the chip to the state a checkpoint record
// carries.
func (e *ChipEntry) restoreCheckpoint(rec store.Record) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := statePool.Get().(*chipState)
	defer statePool.Put(st)
	if err := st.decode(e.kind, rec.State); err != nil {
		return err
	}
	return e.restore(st)
}

// simulate runs spec on the die, books its usage and fills the op's
// field of res. Callers hold e.mu.
func (e *ChipEntry) simulate(spec OpSpec, res *OpResult) error {
	var trace []selfheal.TracePoint
	var err error
	switch spec.Op {
	case BatchOpStress:
		cond := selfheal.StressCondition{TempC: spec.TempC, Vdd: spec.Vdd, AC: spec.AC}
		if e.bench != nil {
			trace, err = e.bench.Stress(cond, spec.Hours, spec.SampleHours)
		} else {
			err = e.mon.Stress(cond, spec.Hours)
		}
		if err != nil {
			return err
		}
		e.tally.stressSeconds += spec.Hours * 3600
	case BatchOpRejuvenate:
		cond := selfheal.SleepCondition{TempC: spec.TempC, Vdd: spec.Vdd}
		if e.bench != nil {
			trace, err = e.bench.Rejuvenate(cond, spec.Hours, spec.SampleHours)
		} else {
			err = e.mon.Rejuvenate(cond, spec.Hours)
		}
		if err != nil {
			return err
		}
		e.tally.healSeconds += spec.Hours * 3600
	case BatchOpMeasure:
		r, err := e.bench.Measure()
		if err != nil {
			return err
		}
		e.tally.lastMeasure = &measureReading{delayNS: r.DelayNS, degradationPct: r.DegradationPct}
		res.Reading = &ReadingResponse{
			ID:             e.id,
			Counts:         r.Counts,
			FrequencyHz:    r.FrequencyHz,
			DelayNS:        r.DelayNS,
			DegradationPct: r.DegradationPct,
		}
		return nil
	case BatchOpOdometer:
		r, err := e.mon.Read()
		if err != nil {
			return err
		}
		e.tally.lastOdometer = &odometerReading{beatHz: r.BeatHz, degradationPPM: r.DegradationPPM}
		res.Odometer = &OdometerResponse{ID: e.id, BeatHz: r.BeatHz, DegradationPPM: r.DegradationPPM}
		return nil
	}
	// Stress and rejuvenate report the phase they ran.
	res.Phase = &PhaseResponse{ID: e.id, Phase: spec.Op, Hours: spec.Hours, Trace: NewTracePoints(trace)}
	return nil
}
