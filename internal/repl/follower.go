package repl

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"selfheal/internal/journal"
	"selfheal/internal/store"
)

// FollowerConfig tunes a replication follower.
type FollowerConfig struct {
	NodeID      string
	PrimaryAddr string        // host:port of the primary's -repl-listen
	DialTimeout time.Duration // default 3s
	RetryMin    time.Duration // reconnect backoff floor; default 100ms
	RetryMax    time.Duration // reconnect backoff ceiling; default 3s
	Logger      *slog.Logger
}

// Follower tails a primary's journal stream into its own journal,
// preserving the primary's sequence numbers so a later promotion
// (store.Open of the follower's data directory) replays exactly what
// the primary would have. Every session starts with a full snapshot
// (see the package comment); a sequence gap in the tail — a frame lost
// to a fault — drops the session, and the reconnect resyncs.
type Follower struct {
	j   *journal.Journal
	cfg FollowerConfig
	log *slog.Logger

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	mu   sync.Mutex
	conn net.Conn // current session's conn, closed by Stop

	connected      atomic.Bool
	recordsApplied atomic.Uint64
	snapshots      atomic.Uint64
	gaps           atomic.Uint64
	connects       atomic.Uint64
	disconnects    atomic.Uint64
	lastSeq        atomic.Uint64
	lastTrace      atomic.Value // string: trace id of the newest traced tail batch
}

// NewFollower wraps j, which the follower owns from Start until Close.
func NewFollower(j *journal.Journal, cfg FollowerConfig) *Follower {
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 3 * time.Second
	}
	if cfg.RetryMin <= 0 {
		cfg.RetryMin = 100 * time.Millisecond
	}
	if cfg.RetryMax <= 0 {
		cfg.RetryMax = 3 * time.Second
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	f := &Follower{
		j:    j,
		cfg:  cfg,
		log:  cfg.Logger.With("component", "repl", "role", "follower", "primary", cfg.PrimaryAddr),
		stop: make(chan struct{}),
	}
	f.lastSeq.Store(j.Stats().LastSeq)
	return f
}

// Start launches the tailing loop: dial, session, reconnect with
// capped exponential backoff, until Stop.
func (f *Follower) Start() {
	f.wg.Add(1)
	go f.run()
}

func (f *Follower) run() {
	defer f.wg.Done()
	backoff := f.cfg.RetryMin
	for {
		select {
		case <-f.stop:
			return
		default:
		}
		err := f.session()
		f.connected.Store(false)
		select {
		case <-f.stop:
			return
		default:
		}
		if err != nil {
			f.log.Warn("replication session ended; reconnecting", "err", err, "backoff", backoff)
		}
		select {
		case <-f.stop:
			return
		case <-time.After(backoff):
		}
		backoff *= 2
		if backoff > f.cfg.RetryMax {
			backoff = f.cfg.RetryMax
		}
	}
}

// session runs one connection: hello, snapshot, tail. Any error drops
// the connection; the caller reconnects and resyncs.
func (f *Follower) session() error {
	c, err := net.DialTimeout("tcp", f.cfg.PrimaryAddr, f.cfg.DialTimeout)
	if err != nil {
		return fmt.Errorf("repl: dial %s: %w", f.cfg.PrimaryAddr, err)
	}
	f.mu.Lock()
	select {
	case <-f.stop:
		f.mu.Unlock()
		c.Close()
		return errors.New("repl: follower stopped")
	default:
	}
	f.conn = c
	f.mu.Unlock()
	defer func() {
		f.mu.Lock()
		f.conn = nil
		f.mu.Unlock()
		c.Close()
		f.disconnects.Add(1)
	}()
	f.connects.Add(1)

	hello, err := encodeMsg(kindHello, helloMsg{NodeID: f.cfg.NodeID, LastSeq: f.j.Stats().LastSeq})
	if err != nil {
		return err
	}
	if err := WriteFrame(c, hello); err != nil {
		return err
	}

	var (
		br       = bufio.NewReaderSize(c, 64*1024)
		buf      []byte
		inSnap   bool
		snapRecs []store.Record
		cursor   = f.lastSeq.Load() // highest seq applied this session
		ctx      = context.Background()
	)
	sendAck := func() error {
		payload, err := encodeMsg(kindAck, ackMsg{Seq: cursor})
		if err != nil {
			return err
		}
		return WriteFrame(c, payload)
	}
	for {
		payload, err := ReadFrame(br, buf)
		if err != nil {
			return err
		}
		buf = payload[:cap(payload)]
		switch kind := payload[0]; kind {
		case kindReset:
			inSnap = true
			snapRecs = nil
		case kindBatch:
			var b batchMsg[store.Record]
			if _, err := decodeMsg(payload, &b); err != nil {
				return err
			}
			if inSnap {
				snapRecs = append(snapRecs, b.Recs...)
				continue
			}
			f.connected.Store(true)
			// The tail stream carries every committed record in
			// sequence order. Records at or below the cursor are the
			// snapshot/tail overlap (safe duplicates); past it the
			// stream must be contiguous — a hole means a frame was
			// lost, and applying past it would silently diverge.
			check := cursor
			for _, rec := range b.Recs {
				if rec.Seq <= check {
					continue
				}
				if rec.Seq != check+1 {
					f.gaps.Add(1)
					return fmt.Errorf("repl: sequence gap in tail (have %d, got %d); resyncing", check, rec.Seq)
				}
				check++
			}
			if check == cursor {
				continue // pure overlap, already durable here
			}
			if err := f.j.AppendReplica(ctx, b.Recs); err != nil {
				return fmt.Errorf("repl: apply batch: %w", err)
			}
			f.recordsApplied.Add(check - cursor)
			cursor = check
			f.lastSeq.Store(cursor)
			if b.TraceID != "" {
				f.lastTrace.Store(b.TraceID)
			}
			if err := sendAck(); err != nil {
				return err
			}
		case kindSnapDone:
			var done snapDoneMsg
			if _, err := decodeMsg(payload, &done); err != nil {
				return err
			}
			if !inSnap {
				return fmt.Errorf("%w: snapdone outside snapshot", ErrBadMessage)
			}
			// done.LastSeq can sit past the snapshot's highest record
			// (a delete supersedes its chip's fleet records *and* itself);
			// adopting it keeps this journal's numbering tracking the
			// primary's, and stops a trailing-delete snapshot from
			// flagging the next tail record as a gap.
			if err := f.j.ResetTo(snapRecs, done.LastSeq); err != nil {
				return fmt.Errorf("repl: reset to snapshot: %w", err)
			}
			f.snapshots.Add(1)
			cursor = f.j.Stats().LastSeq
			f.lastSeq.Store(cursor)
			inSnap = false
			snapRecs = nil
			f.connected.Store(true)
			f.log.Info("snapshot applied", "records", f.j.Stats().Records, "seq", cursor)
			if err := sendAck(); err != nil {
				return err
			}
		default:
			return fmt.Errorf("%w: unexpected kind %d", ErrBadMessage, kind)
		}
	}
}

// Connected reports whether a session is live and past its snapshot.
func (f *Follower) Connected() bool { return f.connected.Load() }

// Journal exposes the follower's journal (read-side: promotion tests,
// checksum audits).
func (f *Follower) Journal() *journal.Journal { return f.j }

// ReplStats snapshots the follower's counters.
func (f *Follower) ReplStats() *Stats {
	trace, _ := f.lastTrace.Load().(string)
	return &Stats{
		Role:           "follower",
		Connected:      f.connected.Load(),
		LastSeq:        f.lastSeq.Load(),
		Snapshots:      f.snapshots.Load(),
		Connects:       f.connects.Load(),
		Disconnects:    f.disconnects.Load(),
		RecordsApplied: f.recordsApplied.Load(),
		Gaps:           f.gaps.Load(),
		PrimaryAddr:    f.cfg.PrimaryAddr,
		LastTraceID:    trace,
	}
}

// Stop ends the tailing loop and waits for it. The journal stays open.
func (f *Follower) Stop() {
	f.stopOnce.Do(func() { close(f.stop) })
	f.mu.Lock()
	if f.conn != nil {
		f.conn.Close()
	}
	f.mu.Unlock()
	f.wg.Wait()
}

// Close stops tailing and closes the journal — the handoff point of a
// promotion: after Close, store.Open on the data directory replays the
// replicated history into a servable store.
func (f *Follower) Close() error {
	f.Stop()
	return f.j.Close()
}
