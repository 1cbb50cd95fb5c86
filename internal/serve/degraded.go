package serve

import (
	"context"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"selfheal/internal/fleet"
	"selfheal/internal/store"
)

// gate is the degraded-mode supervisor: the write-path analogue of the
// paper's monitor→reconfigure loop. When the store cannot make an
// operation durable (disk full, I/O error), the service does not crash
// and does not lie — it trips into a supervised read-only state where
// mutating routes answer 503/degraded, reads keep serving from the
// in-memory fleet, and a background probe retries the store with
// exponential backoff until the storage heals, at which point write
// mode restores itself. /healthz (liveness) stays green throughout;
// /readyz (write-readiness) goes red for the episode. Only gatedStore
// trips it. Its mutex is a leaf, taken on the commit path under a chip
// lock or under the engine's tick lock.
type gate struct {
	log   *slog.Logger
	probe func() error  // rechecks the store's durability (store.Store.Probe)
	base  time.Duration // first probe delay
	max   time.Duration // backoff ceiling

	mu       sync.Mutex
	degraded bool
	reason   string
	since    time.Time
	stopped  bool

	enters, exits, probes atomic.Uint64

	stop chan struct{}
	wg   sync.WaitGroup
}

func newGate(log *slog.Logger, probe func() error, base, max time.Duration) *gate {
	return &gate{
		log:   log,
		probe: probe,
		base:  base,
		max:   max,
		stop:  make(chan struct{}),
	}
}

// status reports whether writes are currently suspended, and why. Nil
// gates (non-durable fleets) are always write-ready.
func (g *gate) status() (degraded bool, reason string) {
	if g == nil {
		return false, ""
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.degraded, g.reason
}

// trip enters degraded mode (idempotently — every failed commit calls
// it) and starts the recovery probe for the episode. ctx is the failed
// commit's, so when a request made the commit the episode-entry log
// line carries its trace_id — the join key to the failing fsync span
// under GET /debug/traces.
func (g *gate) trip(ctx context.Context, err error) {
	if g == nil {
		return
	}
	g.mu.Lock()
	if g.degraded || g.stopped {
		g.mu.Unlock()
		return
	}
	g.degraded = true
	g.reason = err.Error()
	g.since = time.Now()
	g.wg.Add(1)
	go g.probeLoop()
	g.mu.Unlock()
	g.enters.Add(1)
	g.log.WarnContext(ctx, "store commit failed; entering degraded read-only mode",
		"err", err, "first_probe_in", g.base)
}

// probeLoop retries the store with exponential backoff until it proves
// writable again, then restores write mode. One loop runs per degraded
// episode.
func (g *gate) probeLoop() {
	defer g.wg.Done()
	delay := g.base
	for {
		t := time.NewTimer(delay)
		select {
		case <-g.stop:
			t.Stop()
			return
		case <-t.C:
		}
		g.probes.Add(1)
		if err := g.probe(); err != nil {
			delay *= 2
			if delay > g.max {
				delay = g.max
			}
			g.log.Warn("store probe failed; staying read-only",
				"err", err, "next_probe_in", delay)
			continue
		}
		g.mu.Lock()
		g.degraded = false
		g.reason = ""
		g.mu.Unlock()
		g.exits.Add(1)
		g.log.Info("store writable again; restoring write mode")
		return
	}
}

// close stops the probe goroutine; further trips only mark state (no
// probes), so a server being torn down never leaks a prober.
func (g *gate) close() {
	if g == nil {
		return
	}
	g.mu.Lock()
	if g.stopped {
		g.mu.Unlock()
		return
	}
	g.stopped = true
	g.mu.Unlock()
	close(g.stop)
	g.wg.Wait()
}

// gatedStore is the one place a write becomes not-durable. serve.New
// wraps a durable store in it before the fleet and the engine see it,
// so fleet ops, engine writes, the guard's writes and the engine's own
// epoch flushes all commit through it: a failed commit trips the gate
// and comes back as a notDurableError, which writeError answers 503
// `degraded` wherever the caller wrapped it.
type gatedStore struct {
	fleet.Store
	gate *gate
}

// Commit commits rec through the wrapped store, tripping the gate on
// failure.
func (s gatedStore) Commit(ctx context.Context, rec store.Record) error {
	err := s.Store.Commit(ctx, rec)
	if err == nil {
		return nil
	}
	s.gate.trip(ctx, err)
	return notDurableError{err}
}

// CommitBatch commits recs through the wrapped store, tripping the
// gate on failure.
func (s gatedStore) CommitBatch(ctx context.Context, recs []store.Record) error {
	err := s.Store.CommitBatch(ctx, recs)
	if err == nil {
		return nil
	}
	s.gate.trip(ctx, err)
	return notDurableError{err}
}

// notDurableError marks a store-commit failure — the storage wearing
// out, not a bug. Its message is the store's.
type notDurableError struct{ error }

func (e notDurableError) Unwrap() error { return e.error }

// snapshot exports the gate for /metrics.
func (g *gate) snapshot(rejected uint64) *DegradedSnapshot {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	degraded, reason, since := g.degraded, g.reason, g.since
	g.mu.Unlock()
	ds := &DegradedSnapshot{
		WriteReady:     !degraded,
		Enters:         g.enters.Load(),
		Exits:          g.exits.Load(),
		Probes:         g.probes.Load(),
		WritesRejected: rejected,
	}
	if degraded {
		ds.Reason = reason
		ds.SinceSeconds = time.Since(since).Seconds()
	}
	return ds
}
