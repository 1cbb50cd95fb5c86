// Package store is the fleet's persistence layer: the chip table that
// the domain layer (internal/fleet) reads and writes, behind a small
// interface so the backend is pluggable. Two implementations ship:
//
//   - Mem, a lock-sharded in-memory table (32 shards keyed by FNV-1a
//     of the chip id), so independent chips never contend on one map
//     mutex under heavy traffic.
//   - Journaled, a decorator that wraps any Store and makes commits
//     durable through a Log (the append-only operation journal). The
//     journal stops being code threaded through the registry and
//     becomes a backend; a future replicated log or SQL history table
//     plugs in the same way, by satisfying Log or Store.
//
// # Durability
//
// Commit returns once its record is durable, CommitBatch once a whole
// batch is, in input order and as one group. Replay hands back the
// live history: operations, plus checkpoints — a fleet chip's full
// state riding a phase record, after which the chip's earlier records
// are no longer live, and the aging engine's whole state in a group of
// chunk records, after which no earlier engine record is — so replay,
// compaction and a replica's resync cost O(chips) rather than
// O(lifetime ops). A failed commit is the caller's to roll back; the
// fleet restores the chip's saved state, the engine refuses the write
// before applying it. An ErrIndeterminate failure left the records in
// the log, and the fleet and the engine both keep such an operation
// applied, as replay will.
//
// # Lock hierarchy
//
// This package is the single place the fleet's lock order is defined.
// Three lock levels exist in the serving stack, and they are always
// acquired top-down:
//
//	chip lock (fleet.ChipEntry.mu)  →  shard lock (Mem)  →  nothing
//
// Shard locks are leaves: a Store implementation must never invoke
// caller code or acquire another lock while holding one. Concretely,
// ForEach snapshots a shard's entries under its read lock and releases
// it before calling the visitor, so a visitor that takes chip locks
// (Usage does) cannot invert the order. No operation ever holds two
// shard locks at once. The domain layer, for its part, may call any
// Store method while holding a chip lock — that is how the
// commit-while-chip-locked replay invariant is kept (see Commit) —
// but must never take a chip lock from inside a visitor that could
// still be under a store lock.
//
// The serve layer wraps the store it is given so that a failed Commit
// trips its degraded-mode gate. The gate's mutex is a leaf, taken on
// the commit path under a chip lock or under the aging engine's tick
// lock, never with a shard lock held.
//
// The hierarchy is asserted by TestShardCollisionHammer (and the fleet
// package's collision test), which drive create/delete/op traffic onto
// ids that collide onto one shard under the race detector.
package store

import (
	"context"
	"errors"

	"selfheal/internal/journal"
)

// Record, Op and Stats are the persistence record types, re-exported
// so the layers above the store (fleet, serve) never import the
// journal package directly.
type (
	Record = journal.Record
	Op     = journal.Op
	Stats  = journal.Stats
)

// JournalOptions and RepairReport are re-exported for callers opening
// a journal-backed store (see Open).
type (
	JournalOptions = journal.Options
	RepairReport   = journal.RepairReport
)

// The journaled fleet operations, re-exported from the journal.
const (
	OpCreate     = journal.OpCreate
	OpStress     = journal.OpStress
	OpRejuvenate = journal.OpRejuvenate
	OpDelete     = journal.OpDelete
	OpMeasure    = journal.OpMeasure
	OpOdometer   = journal.OpOdometer
)

// The journaled guard operations (see internal/guard): durable per-chip
// quarantine transitions, re-exported from the journal.
const (
	OpQuarantine = journal.OpQuarantine
	OpRelease    = journal.OpRelease
)

// The journaled engine operations (see internal/engine), re-exported
// from the journal. The fleet replay skips these (IsEngineOp) and the
// engine replay consumes them; a fleet chip's engine twin joins by an
// OpEngineReg of its own.
const (
	OpEngineReg        = journal.OpEngineReg
	OpEngineRemove     = journal.OpEngineRemove
	OpEngineSet        = journal.OpEngineSet
	OpEngineSchedule   = journal.OpEngineSchedule
	OpEngineEpoch      = journal.OpEngineEpoch
	OpEngineCheckpoint = journal.OpEngineCheckpoint
)

// IsEngineOp reports whether op belongs to the engine subsystem.
func IsEngineOp(op Op) bool { return journal.IsEngineOp(op) }

// Log is the durable operation history the Journaled decorator writes
// through — the interface extracted from *journal.Journal, which
// satisfies it. Any backend that can append records durably, replay
// them in order, and report on its own health can stand in for the
// file journal.
type Log interface {
	// AppendBatch makes recs durable as one group, in input order with
	// no other append between them, returning only once they would
	// survive a crash: all of them or, on an error, none — unless the
	// error is ErrIndeterminate. Concurrent appends may share a group
	// commit. The context carries the request's trace (if any) so the
	// append's stage/fsync phases land in it; it does not cancel the
	// write.
	AppendBatch(ctx context.Context, recs []Record) error
	// Records returns the live history in sequence order — the replay
	// list that reconstructs the fleet.
	Records() []Record
	// Probe rechecks whether the log can write durably again after a
	// failure; nil means appends work.
	Probe() error
	// Stats snapshots the log's counters.
	Stats() Stats
	// Close releases the log.
	Close() error
}

var _ Log = (*journal.Journal)(nil)

// ErrIndeterminate marks a failed commit whose records are durable in
// the log all the same — a semisync primary whose follower did not
// ack in time (internal/repl). Replay will apply them, so a caller
// that rolls an operation back on a failed commit must keep it applied
// on this error instead.
var ErrIndeterminate = errors.New("store: commit indeterminate, the records are in the log")

// InLog reports whether a failed commit left its records in the log
// (ErrIndeterminate), where replay will apply them: the operation must
// then stay applied, not be rolled back.
func InLog(err error) bool { return errors.Is(err, ErrIndeterminate) }

// Store is the fleet's chip table plus its persistence seam. E is the
// entry type (the fleet layer uses *fleet.ChipEntry).
//
// The map operations (Insert, Lookup, Remove, ForEach, Len) are pure
// bookkeeping and must be safe for concurrent use. The persistence
// operations (Commit, Replay, Probe, Stats) exist so durability is a
// property of the store you assemble, not of the code calling it: an
// in-memory store answers Commit with nil and the fleet runs exactly
// as before, while a Journaled store blocks until the record is
// fsync'd.
type Store[E any] interface {
	// Insert registers e under id, reporting false when the id is
	// already taken (the entry is then not stored).
	Insert(id string, e E) bool
	// Lookup returns the entry registered under id.
	Lookup(id string) (E, bool)
	// Remove unregisters id; unknown ids are a no-op.
	Remove(id string)
	// ForEach visits every entry. The visitor runs with no store locks
	// held (entries are snapshotted per shard first), so it may take
	// per-entry locks without inverting the lock hierarchy. Returning
	// false stops the iteration early.
	ForEach(fn func(id string, e E) bool)
	// Len reports the number of registered entries.
	Len() int

	// Commit makes rec durable. The fleet layer calls it while holding
	// the affected chip's lock, so the persisted order always matches
	// the order operations were applied in — the invariant replay
	// depends on. Non-durable stores return nil immediately. The
	// context carries the request's trace for span annotation; it does
	// not cancel the commit (a half-cancelled durable write would
	// desync the journal from memory).
	Commit(ctx context.Context, rec Record) error
	// CommitBatch makes recs durable as Commit does one record, in
	// input order and as one group: all of them or, on an error other
	// than ErrIndeterminate, none.
	CommitBatch(ctx context.Context, recs []Record) error
	// Replay returns the durable history to re-apply on startup, in
	// sequence order. Non-durable stores return nil.
	Replay() []Record
	// Probe rechecks durability during a degraded episode; nil means
	// commits work. Non-durable stores always return nil.
	Probe() error
	// Stats reports the persistence backend's counters; ok is false
	// for stores with no durable backend.
	Stats() (st Stats, ok bool)
	// Durable reports whether Commit provides crash durability.
	Durable() bool
	// Close releases the store and any backend it owns.
	Close() error
}
