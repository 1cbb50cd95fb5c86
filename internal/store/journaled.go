package store

import (
	"context"

	"selfheal/internal/journal"
)

// journaled decorates any Store with durability through a Log: the map
// operations delegate to the inner store untouched, while Commit
// blocks until the record is durable. Because the fleet layer commits
// while holding the affected chip's lock, the log's record order
// always matches the application order per chip — and because the Log
// group-commits, concurrent commits (a batch request's worker pool,
// independent API calls) share fsyncs instead of paying one each.
type journaled[E any] struct {
	Store[E] // the wrapped table; map operations pass through
	log      Log
}

// NewJournaled wraps inner with durable commits through log. The
// returned store owns the log: Close closes both.
func NewJournaled[E any](inner Store[E], log Log) Store[E] {
	return &journaled[E]{Store: inner, log: log}
}

// Commit appends rec to the log, returning once it is durable.
func (s *journaled[E]) Commit(ctx context.Context, rec Record) error {
	return s.log.AppendBatch(ctx, []Record{rec})
}

// CommitBatch appends recs to the log as one group, returning once
// all of them are durable.
func (s *journaled[E]) CommitBatch(ctx context.Context, recs []Record) error {
	return s.log.AppendBatch(ctx, recs)
}

// Replay returns the log's live history in sequence order.
func (s *journaled[E]) Replay() []Record { return s.log.Records() }

// Probe rechecks whether the log can write durably again.
func (s *journaled[E]) Probe() error { return s.log.Probe() }

// Stats reports the log's counters.
func (s *journaled[E]) Stats() (Stats, bool) { return s.log.Stats(), true }

// Durable reports true.
func (s *journaled[E]) Durable() bool { return true }

// Close closes the inner store, then the log.
func (s *journaled[E]) Close() error {
	err := s.Store.Close()
	if cerr := s.log.Close(); err == nil {
		err = cerr
	}
	return err
}

// Open assembles the standard durable configuration: a sharded
// in-memory table wrapped with a journaling decorator over the
// operation log in dir. The repair reports from the journal open (if
// Options.Repair salvaged anything) are returned for logging.
func Open[E any](dir string, opts JournalOptions) (Store[E], []RepairReport, error) {
	jl, err := journal.Open(dir, opts)
	if err != nil {
		return nil, nil, err
	}
	return NewJournaled[E](NewMem[E](), jl), jl.Repairs(), nil
}
