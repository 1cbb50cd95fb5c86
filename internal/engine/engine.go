// Package engine is the discrete-event fleet aging engine: instead of
// advancing one chip at a time inside request handlers, a single
// simulation clock advances the threshold shift and aging odometer of
// the *entire* fleet, epoch by epoch.
//
// # Architecture
//
// Chip state lives in 32 partitions aligned with the store's shards
// (store.ShardOf), each holding a struct-of-arrays td.Batch plus cold
// per-chip metadata. Every tick advances all partitions one epoch on a
// bounded worker pool; within a partition, chips sharing a condition
// are grouped into classes so the model's exp/log prefactors are paid
// once per class per epoch (td.AdvanceBatch), not once per chip. A
// hierarchical timing wheel per partition schedules circadian
// stress↔sleep transitions at epoch granularity.
//
// # Snapshot isolation
//
// Request handlers never touch live partitions: every tick publishes
// an immutable Snapshot via atomic pointer swap, so reads are
// wait-free, never block the tick, and always observe one consistent
// epoch across all partitions. Writes (register, remove, condition and
// schedule changes) run on the caller's goroutine under the tick lock,
// so they land between epochs, and republish the snapshot before they
// return.
//
// # Per-epoch hooks
//
// Config.OnEpoch gets each tick's snapshot and prev, the one the
// previous tick published. The engine is the only holder of last
// epoch's fleet: Snapshot.PrevVth lines prev's threshold shifts up with
// the current ids, so hooks deriving per-chip aging rates (the guard,
// the serve layer's telemetry) keep no history of their own. Reduce
// turns the pair into one Reduction — previous shifts plus every order
// statistic those hooks publish — so they share one pass over the
// fleet instead of each sorting it.
//
// # Durability and replay
//
// The engine persists operations through the same journal as the
// fleet: registrations, removals, condition/schedule changes, and one
// coalesced OpEngineEpoch record per flush window (the epoch count
// plus the per-epoch simulated hours). Every checkpointEvery epochs it
// persists its state instead: the flush that reaches that many epochs
// since the last checkpoint commits, in place of its epoch record, a
// checkpoint — every partition's chips, bit for bit, in a group of
// OpEngineCheckpoint records — and the journal drops every engine
// record before it. Replay restores the newest checkpoint, re-runs the
// records after it in order, and lands on the exact pre-shutdown
// state, having re-simulated fewer than checkpointEvery epochs. Four
// rules make this exact:
//
//  1. Writes only apply under the tick lock, never mid-epoch.
//  2. Pending epochs are flushed to the journal *before* any write's
//     record commits, and the writer holds the tick lock from the flush
//     to the apply, so journal order equals application order.
//  3. A write applies its durable records with applyRecord, the code
//     replay runs. A batch's records commit in input order as one
//     group, and a batch may name a chip only once, because every item
//     is checked before any is applied. A commit that fails as
//     store.ErrIndeterminate left its records in the log, so they are
//     applied all the same.
//  4. A checkpoint is cut from the live engine under the tick lock, at
//     a flush, so it holds exactly what the records before it replay
//     to.
//
// Chips registered on behalf of fleet chips commit OpEngineReg records
// of their own (kind "fleet"). A fleet delete commits no engine record:
// the journal supersedes engine records only at an engine checkpoint,
// so a twin deleted since the last one comes back on replay, from its
// registration or from that checkpoint alike, and SyncFleet drops it
// at boot (a chip registered again under its id, fleet or
// engine-native, replaces it on replay).
//
// # Lock hierarchy
//
// tick lock → commit path. The tick lock guards every partition:
// writers and snapshot publication hold it, and within a tick each
// worker touches only the partitions it claimed. The store's
// chip→shard order is never entered with the tick lock held: the
// engine only commits through the store (no store map access), and
// below Commit sit only the journal's locks and, when a commit fails,
// the serve layer's degraded-gate mutex, a leaf. Handlers reading
// snapshots take no locks at all. See internal/store for the canonical
// fleet hierarchy; DESIGN.md states the combined ordering.
package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"selfheal/internal/obs"
	"selfheal/internal/store"
	"selfheal/internal/td"
	"selfheal/internal/units"
)

// Journal is the slice of the store the engine persists through: the
// shared operation log. Any store.Store satisfies it; a non-durable
// store turns every commit into a no-op and the engine runs ephemeral.
type Journal interface {
	Commit(ctx context.Context, rec store.Record) error
	CommitBatch(ctx context.Context, recs []store.Record) error
	Replay() []store.Record
	Durable() bool
}

// KindFleet marks a registration made on behalf of a fleet chip; such
// chips can only be removed through the fleet's delete, which commits
// no engine record. A deleted twin stays in the engine's journal
// history until the next engine checkpoint, so a restart before it
// replays the twin, and SyncFleet drops it at boot.
const KindFleet = "fleet"

// Config tunes an Engine; zero values take the documented defaults.
type Config struct {
	Params     td.Params     // aging model constants (default td.DefaultParams)
	EpochHours float64       // simulated hours per epoch (default 0.5)
	Interval   time.Duration // wall-clock tick period; 0 = manual Tick only
	Workers    int           // tick worker pool size (default GOMAXPROCS)
	// FlushEpochs bounds how many epochs may pass between journal
	// flushes (default 16). Smaller = less simulated time lost on a
	// crash, more journal records.
	FlushEpochs int
	Tracer      *obs.Tracer // when set, every traceEvery-th tick is traced
	// OnEpoch, when set, is called after every successfully completed
	// tick with the new epoch number, the snapshot it published, and
	// prev, the one the previous successful tick published — nil on the
	// first tick after New, so after a restart the hooks get one epoch
	// without history. It runs on the ticking goroutine *after* the
	// tick lock is released, so the hook may call the engine's mutation
	// API (the guard's detect→respond loop does exactly that); a slow
	// hook delays the next tick, not concurrent readers. It is never
	// called during replay — replayed history already contains whatever
	// the hook's responses journaled the first time around.
	OnEpoch func(epoch uint64, snap, prev *Snapshot)
}

// Spec registers one chip with the engine. It doubles as the wire
// body of one POST /v1/engine/chips:batch item; Kind stays off the
// wire, since only the serve layer registers fleet-backed chips.
type Spec struct {
	ID       string    `json:"id"`
	Kind     string    `json:"-"`               // "" for engine-native, KindFleet for fleet-backed
	Phase    string    `json:"phase,omitempty"` // PhaseStressName (default) or PhaseSleepName
	TempC    float64   `json:"temp_c"`          // junction temperature, °C
	Vdd      float64   `json:"vdd"`             // stress: gate voltage; sleep: <0 = reverse-biased rail
	Duty     float64   `json:"duty"`            // duty cycle, finite; clamped into [0,1]
	Schedule *Schedule `json:"schedule,omitempty"`
}

// Cond is a chip's phase + condition + duty, the payload of a
// condition change and the POST /v1/engine/chips/{id}/condition body.
type Cond struct {
	Phase string  `json:"phase,omitempty"`
	TempC float64 `json:"temp_c"`
	Vdd   float64 `json:"vdd"`
	Duty  float64 `json:"duty"`
}

// Schedule is a circadian stress/sleep cycle: StressEpochs of the
// chip's stress condition, then SleepEpochs at the sleep condition,
// repeating. Both zero cancels the cycle. It is also the POST
// /v1/engine/chips/{id}/schedule body.
type Schedule struct {
	StressEpochs uint64  `json:"stress_epochs"`
	SleepEpochs  uint64  `json:"sleep_epochs"`
	SleepTempC   float64 `json:"sleep_temp_c"`
	SleepVdd     float64 `json:"sleep_vdd"`
}

// traceEvery is how often a Tracer sees a tick: the first and then every
// 64th.
const traceEvery = 64

// RegResult reports one item of a batch write.
type RegResult struct {
	ID  string
	Err error
}

// Stats is the engine's observable state, exported under /metrics.
type Stats struct {
	Epoch           uint64  `json:"epoch"`
	SimHours        float64 `json:"sim_hours"`
	Chips           int     `json:"chips"`
	Partitions      int     `json:"partitions"`
	Workers         int     `json:"workers"`
	EpochHours      float64 `json:"epoch_hours"`
	IntervalSeconds float64 `json:"interval_seconds"`
	// EpochLagSeconds is how far the last tick started behind its due
	// time — nonzero when ticks take longer than the interval.
	EpochLagSeconds float64 `json:"epoch_lag_seconds"`
	ChipsPerSecond  float64 `json:"chips_per_second"`
	LastTickSeconds float64 `json:"last_tick_seconds"`
	TicksTotal      uint64  `json:"ticks_total"`
	// EventsPending counts writers waiting for the tick lock;
	// EventsApplied counts completed writes.
	EventsPending int    `json:"events_pending"`
	EventsApplied uint64 `json:"events_applied"`
	// PendingEpochs counts epochs advanced but not yet journaled (lost
	// on a crash; bounded by FlushEpochs while the journal is healthy).
	PendingEpochs uint64 `json:"pending_epochs"`
	CommitErrors  uint64 `json:"commit_errors"`
	// ReplayedEpochs counts the epochs New re-simulated: those after
	// the newest checkpoint, or every epoch of a journal without one.
	ReplayedEpochs uint64 `json:"replayed_epochs"`
	AdvanceError   string `json:"advance_error,omitempty"`
}

// Engine is the fleet aging engine. Construct with New; all methods
// are safe for concurrent use.
type Engine struct {
	j          Journal
	params     td.Params
	epochHours float64
	dt         units.Seconds
	interval   time.Duration
	flushEvery uint64
	workers    int
	tracer     *obs.Tracer
	onEpoch    func(epoch uint64, snap, prev *Snapshot)

	// tickMu serializes epoch advancement, writes, journal flushes, and
	// snapshot publication — writes never land mid-epoch — and guards
	// every partition and the fields below. Commits run under it; the
	// only locks below it are the journal's and the serve layer's
	// degraded-gate mutex.
	tickMu        sync.Mutex
	parts         [store.ShardCount]*partition
	epoch         uint64
	simHours      float64
	pendingEpochs uint64
	sinceCkpt     uint64    // epochs journaled since the last checkpoint
	tickSnap      *Snapshot // published by the last successful tick
	closed        bool      // set by Close; later writes get ErrClosed

	snap    atomic.Pointer[Snapshot]
	chips   atomic.Int64
	waiting atomic.Int64 // writers waiting for tickMu

	closedc   chan struct{}
	closeOnce sync.Once
	closeErr  error
	wg        sync.WaitGroup

	ticks          atomic.Uint64
	eventsApplied  atomic.Uint64
	commitErrors   atomic.Uint64
	epochLagNanos  atomic.Int64
	lastTickNanos  atomic.Int64
	cpsBits        atomic.Uint64
	advanceErr     atomic.Pointer[string]
	replayedEpochs uint64
}

// New assembles an engine over the journal: it restores the newest
// checkpoint and replays the engine records after it (registrations,
// condition/schedule changes, coalesced epoch advances) to land on the
// exact pre-shutdown state. The wall-clock ticker waits for Start.
func New(j Journal, cfg Config) (*Engine, error) {
	if cfg.EpochHours == 0 {
		cfg.EpochHours = 0.5
	}
	if cfg.EpochHours < 0 || math.IsNaN(cfg.EpochHours) || math.IsInf(cfg.EpochHours, 0) {
		return nil, fmt.Errorf("engine: invalid epoch hours %v", cfg.EpochHours)
	}
	if cfg.Workers < 1 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.FlushEpochs < 1 {
		cfg.FlushEpochs = 16
	}
	zero := td.Params{}
	if cfg.Params == zero {
		cfg.Params = td.DefaultParams()
	}
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{
		j:          j,
		params:     cfg.Params,
		epochHours: cfg.EpochHours,
		dt:         units.HoursToSeconds(cfg.EpochHours),
		interval:   cfg.Interval,
		flushEvery: uint64(cfg.FlushEpochs),
		workers:    cfg.Workers,
		tracer:     cfg.Tracer,
		onEpoch:    cfg.OnEpoch,
		closedc:    make(chan struct{}),
	}
	for i := range e.parts {
		e.parts[i] = newPartition()
	}
	if err := e.replay(); err != nil {
		return nil, err
	}
	e.publishSnapshotLocked()
	return e, nil
}

// Start launches the background ticker when Config.Interval > 0 (a
// no-op on a manual clock). Call it once, after everything the OnEpoch
// hook reads is wired: no epoch advances on its own before Start.
func (e *Engine) Start() {
	if e.interval > 0 {
		e.wg.Add(1)
		go e.run()
	}
}

// replay re-applies the journal's engine records in sequence order:
// a checkpoint group's chunks join and restore the engine's whole
// state, and every other record goes through applyRecord, as live
// writes do. A group cut before its final chunk restores nothing.
func (e *Engine) replay() error {
	var ckpt []byte
	for _, rec := range e.j.Replay() {
		if rec.Op == store.OpEngineCheckpoint {
			ckpt = append(ckpt, rec.State...)
			if rec.Final {
				if err := e.restoreCheckpoint(ckpt); err != nil {
					return fmt.Errorf("engine: replay: checkpoint ending at record %d: %w", rec.Seq, err)
				}
				ckpt = nil
				e.replayedEpochs = 0
			}
			continue
		}
		ckpt = nil
		if err := e.applyRecord(rec); err != nil {
			return fmt.Errorf("engine: replay: record %d (%s %s): %w", rec.Seq, rec.Op, rec.ID, err)
		}
	}
	e.sinceCkpt = e.replayedEpochs
	return nil
}

func (e *Engine) applyRecord(rec store.Record) error {
	switch rec.Op {
	case store.OpEngineReg:
		sp := Spec{
			ID: rec.ID, Kind: rec.Kind, Phase: rec.Phase,
			TempC: rec.TempC, Vdd: rec.Vdd, Duty: rec.Duty,
		}
		if rec.StressEpochs > 0 || rec.SleepEpochs > 0 {
			sp.Schedule = &Schedule{
				StressEpochs: rec.StressEpochs, SleepEpochs: rec.SleepEpochs,
				SleepTempC: rec.SleepTempC, SleepVdd: rec.SleepVdd,
			}
		}
		p := e.partFor(rec.ID)
		if i, ok := p.index[rec.ID]; ok && p.meta[i].fleet {
			// Only replay gets here: a live registration over an
			// existing id is refused, so this twin was deleted before
			// the record committed, and its own registration or a
			// checkpoint restored it. The id now names a fleet chip
			// created again or an engine-native chip.
			p.remove(rec.ID)
			e.chips.Add(-1)
		}
		if err := p.register(e.params, sp); err != nil {
			return err
		}
		e.chips.Add(1)
		return nil
	case store.OpEngineRemove:
		if e.partFor(rec.ID).remove(rec.ID) {
			e.chips.Add(-1)
		}
		return nil
	case store.OpEngineSet:
		return e.partFor(rec.ID).setCondition(e.params, rec.ID, Cond{
			Phase: rec.Phase, TempC: rec.TempC, Vdd: rec.Vdd, Duty: rec.Duty,
		})
	case store.OpEngineSchedule:
		return e.partFor(rec.ID).setSchedule(rec.ID, Schedule{
			StressEpochs: rec.StressEpochs, SleepEpochs: rec.SleepEpochs,
			SleepTempC: rec.SleepTempC, SleepVdd: rec.SleepVdd,
		})
	case store.OpEngineEpoch:
		dt := units.HoursToSeconds(rec.Hours)
		for k := uint64(0); k < rec.Epochs; k++ {
			if err := e.advanceAll(context.Background(), dt); err != nil {
				return err
			}
			e.epoch++
			e.simHours += rec.Hours
		}
		e.replayedEpochs += rec.Epochs
		return nil
	default:
		return nil // fleet records; the fleet's own replay consumes them
	}
}

func (e *Engine) partFor(id string) *partition { return e.parts[store.ShardOf(id)] }

// run is the background ticker: one epoch per interval, with the lag
// between due time and actual start exported as the epoch-lag gauge.
func (e *Engine) run() {
	defer e.wg.Done()
	t := time.NewTicker(e.interval)
	defer t.Stop()
	due := time.Now().Add(e.interval)
	for {
		select {
		case <-e.closedc:
			return
		case now := <-t.C:
			lag := now.Sub(due)
			if lag < 0 {
				lag = 0
			}
			e.epochLagNanos.Store(int64(lag))
			due = due.Add(e.interval)
			if due.Before(now) {
				due = now // ticker dropped ticks; measure fresh backlog
			}
			e.Tick(context.Background())
		}
	}
}

// Tick advances the whole fleet one epoch: fire due schedule
// transitions, advance every partition on the worker pool, flush the
// epoch window to the journal when due, and publish the new snapshot.
// With Config.Interval set the background loop calls it; tests and
// benchmarks drive it manually. When the tick completed, the OnEpoch
// hook (if configured) runs synchronously after the tick lock is
// released, so it can safely mutate the engine.
func (e *Engine) Tick(ctx context.Context) {
	epoch, snap, prev, ok := e.tickLocked(ctx)
	if ok && e.onEpoch != nil {
		e.onEpoch(epoch, snap, prev)
	}
}

func (e *Engine) tickLocked(ctx context.Context) (epoch uint64, snap, prev *Snapshot, ok bool) {
	e.tickMu.Lock()
	defer e.tickMu.Unlock()

	n := e.ticks.Add(1)
	var sp *obs.Span
	if e.tracer != nil && n%traceEvery == 1 {
		ctx, sp = e.tracer.Start(ctx, "engine.tick")
		sp.Annotate(obs.Int("epoch", int(e.epoch+1)), obs.Int("chips", int(e.chips.Load())))
		defer sp.End()
	}

	start := time.Now()
	err := e.advanceAll(ctx, e.dt)
	if sp != nil {
		sp.SetError(err)
	}
	if err != nil {
		s := err.Error()
		e.advanceErr.Store(&s)
		return 0, nil, nil, false
	}
	e.epoch++
	e.simHours += e.epochHours
	e.pendingEpochs++
	if e.pendingEpochs >= e.flushEvery {
		e.flushLocked(ctx)
	}
	e.publishSnapshotLocked()
	prev, e.tickSnap = e.tickSnap, e.snap.Load()

	elapsed := time.Since(start)
	e.lastTickNanos.Store(int64(elapsed))
	if secs := elapsed.Seconds(); secs > 0 {
		e.cpsBits.Store(math.Float64bits(float64(e.chips.Load()) / secs))
	}
	return e.epoch, e.tickSnap, prev, true
}

// advanceAll steps every partition one epoch of dt on the bounded
// worker pool.
func (e *Engine) advanceAll(ctx context.Context, dt units.Seconds) error {
	workers := e.workers
	if workers > len(e.parts) {
		workers = len(e.parts)
	}
	if workers <= 1 {
		for pi, p := range e.parts {
			if err := e.advanceOne(ctx, pi, p, dt); err != nil {
				return err
			}
		}
		return nil
	}
	var next atomic.Int64
	var firstErr atomic.Pointer[error]
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				pi := int(next.Add(1)) - 1
				if pi >= len(e.parts) {
					return
				}
				if err := e.advanceOne(ctx, pi, e.parts[pi], dt); err != nil {
					firstErr.CompareAndSwap(nil, &err)
				}
			}
		}()
	}
	wg.Wait()
	if ep := firstErr.Load(); ep != nil {
		return *ep
	}
	return nil
}

func (e *Engine) advanceOne(ctx context.Context, pi int, p *partition, dt units.Seconds) error {
	_, sp := obs.StartSpan(ctx, "engine.partition",
		obs.Int("partition", pi), obs.Int("chips", len(p.meta)))
	err := p.advance(e.params, dt)
	sp.SetError(err)
	sp.End()
	return err
}

// flushLocked journals the epochs advanced since the last flush: as
// one coalesced OpEngineEpoch record or, once they bring the epochs
// since the last checkpoint to checkpointEvery, as a checkpoint of the
// engine's state, which carries them. Callers hold tickMu. On failure
// the window stays pending (counted in Stats) and is retried at the
// next flush point; the simulation keeps advancing — matching the
// fleet's degraded-mode semantics, where state advances but is not
// durable. A commit that fails as store.ErrIndeterminate is in the log
// all the same: its window is flushed, though the error is returned.
func (e *Engine) flushLocked(ctx context.Context) error {
	if e.pendingEpochs == 0 || !e.j.Durable() {
		e.pendingEpochs = 0
		return nil
	}
	ckpt := e.sinceCkpt+e.pendingEpochs >= checkpointEvery
	var err error
	if ckpt {
		err = e.j.CommitBatch(ctx, e.checkpointRecords())
	} else {
		err = e.j.Commit(ctx, store.Record{
			Op: store.OpEngineEpoch, Epochs: e.pendingEpochs, Hours: e.epochHours,
		})
	}
	if err != nil {
		e.commitErrors.Add(1)
		if !store.InLog(err) {
			return err
		}
	}
	if ckpt {
		e.sinceCkpt = 0
	} else {
		e.sinceCkpt += e.pendingEpochs
	}
	e.pendingEpochs = 0
	return err
}

// Snapshot returns the newest published fleet snapshot. The result is
// immutable and wait-free to read; successive calls observe
// monotonically non-decreasing epochs.
func (e *Engine) Snapshot() *Snapshot { return e.snap.Load() }

// Stats snapshots the engine's counters.
func (e *Engine) Stats() Stats {
	snap := e.snap.Load()
	st := Stats{
		Epoch:           snap.Epoch,
		SimHours:        snap.SimHours,
		Chips:           snap.Chips,
		Partitions:      len(e.parts),
		Workers:         e.workers,
		EpochHours:      e.epochHours,
		IntervalSeconds: e.interval.Seconds(),
		EpochLagSeconds: time.Duration(e.epochLagNanos.Load()).Seconds(),
		ChipsPerSecond:  math.Float64frombits(e.cpsBits.Load()),
		LastTickSeconds: time.Duration(e.lastTickNanos.Load()).Seconds(),
		TicksTotal:      e.ticks.Load(),
		EventsPending:   int(e.waiting.Load()),
		EventsApplied:   e.eventsApplied.Load(),
		CommitErrors:    e.commitErrors.Load(),
		ReplayedEpochs:  e.replayedEpochs,
	}
	e.tickMu.Lock()
	st.PendingEpochs = e.pendingEpochs
	e.tickMu.Unlock()
	if s := e.advanceErr.Load(); s != nil {
		st.AdvanceError = *s
	}
	return st
}

// ErrClosed is returned by writes after Close.
var ErrClosed = errors.New("engine: closed")

// Close stops the ticker, refuses later writes, flushes any pending
// epoch window, and returns the final flush's verdict. Safe to call
// twice.
func (e *Engine) Close() error {
	e.closeOnce.Do(func() {
		close(e.closedc)
		e.wg.Wait()
		e.tickMu.Lock()
		e.closed = true
		e.closeErr = e.flushLocked(context.Background())
		e.tickMu.Unlock()
	})
	return e.closeErr
}
