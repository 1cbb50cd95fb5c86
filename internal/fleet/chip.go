package fleet

import (
	"context"
	"fmt"
	"sync"

	"selfheal"
	"selfheal/internal/obs"
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

	mu      sync.Mutex // guards the simulated die and the fields below
	deleted bool       // set by Delete; later ops see 404, not stale state
	bench   *selfheal.Chip
	mon     *selfheal.MonitoredChip

	// quarantined is set by the guard (journaled, so it survives a
	// restart): mutations are refused with QuarantinedError while reads
	// of already-materialized state (Info, usage) keep serving.
	quarantined bool
	quarReason  string

	stressSeconds float64
	healSeconds   float64
	ops           uint64

	// Most recent sensor read-outs, retained for the telemetry
	// exposition (nil until the matching sensor has been read).
	lastMeasure  *measureReading
	lastOdometer *odometerReading
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
	entry := &ChipEntry{id: spec.ID, kind: kind}
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
		StressSeconds: e.stressSeconds,
		HealSeconds:   e.healSeconds,
		Ops:           e.ops,
	}
	if m := e.lastMeasure; m != nil {
		u.LastDelayNS = m.delayNS
		pct := m.degradationPct
		u.LastDegradationPct = &pct
	}
	if o := e.lastOdometer; o != nil {
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
// back, making a retry safe. The first return reports whether the
// state changed.
func (e *ChipEntry) setQuarantined(ctx context.Context, v bool, reason string, commit func() error) (bool, error) {
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
	if !v {
		e.quarReason = ""
	}
	if commit != nil {
		if err := commit(); err != nil {
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
// simulates, and commits the record before the lock is released, so
// the persisted order always matches the order the operations were
// applied in. Sensor reads are mutations in disguise (sampling ages the
// die and consumes noise draws), so they commit, and quarantine refuses
// them, like the phases. On a commit failure the in-memory state has
// advanced (aging cannot be rolled back) but the operation will not
// survive a restart.
func (e *ChipEntry) apply(ctx context.Context, spec OpSpec, res *OpResult, commit func() error) error {
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
	_, sim := obs.StartSpan(ctx, "chip."+spec.Op, obs.String("chip_id", e.id))
	err := e.simulate(spec, res)
	sim.SetError(err)
	sim.End()
	if err != nil {
		return err
	}
	e.ops++
	if commit != nil {
		return commit()
	}
	return nil
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
		e.stressSeconds += spec.Hours * 3600
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
		e.healSeconds += spec.Hours * 3600
	case BatchOpMeasure:
		r, err := e.bench.Measure()
		if err != nil {
			return err
		}
		e.lastMeasure = &measureReading{delayNS: r.DelayNS, degradationPct: r.DegradationPct}
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
		e.lastOdometer = &odometerReading{beatHz: r.BeatHz, degradationPPM: r.DegradationPPM}
		res.Odometer = &OdometerResponse{ID: e.id, BeatHz: r.BeatHz, DegradationPPM: r.DegradationPPM}
		return nil
	}
	// Stress and rejuvenate report the phase they ran.
	res.Phase = &PhaseResponse{ID: e.id, Phase: spec.Op, Hours: spec.Hours, Trace: NewTracePoints(trace)}
	return nil
}
