package repl

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"selfheal/internal/obs"
	"selfheal/internal/store"
)

// ackWaitBounds are the semisync follower-ack latency histogram's
// bucket upper bounds in seconds, sized for LAN round trips: the fast
// path (follower already acked when Append checks) lands in the first
// bucket, a healthy same-rack ack within a few, and anything in the
// tail buckets means the follower is struggling long before the
// AckTimeout counter fires.
var ackWaitBounds = []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.5}

// Mode selects the primary's acknowledgement contract.
type Mode string

const (
	// ModeAsync acknowledges after local group commit; the follower
	// tails best-effort. A primary crash can lose the un-replicated
	// tail.
	ModeAsync Mode = "async"
	// ModeSemiSync acknowledges only after local group commit plus a
	// follower's durable ack — killing the primary loses zero
	// acknowledged mutations. With no follower connected, mutations are
	// refused (per-shard degraded mode) rather than silently downgraded.
	ModeSemiSync Mode = "semisync"
)

// ParseMode parses a -repl-mode flag value.
func ParseMode(s string) (Mode, error) {
	switch Mode(s) {
	case ModeAsync, ModeSemiSync:
		return Mode(s), nil
	}
	return "", fmt.Errorf("repl: unknown mode %q (want async or semisync)", s)
}

// Typed replication errors. Both surface to the fleet as commit
// failures, which the serve layer maps to a 503 "degraded" and which
// trip the per-shard write gate; the gate's probe then polls
// Primary.Probe until a follower is back.
var (
	// ErrNoFollower refuses a semisync mutation before anything is
	// written: the shard is degraded, nothing is lost.
	ErrNoFollower = errors.New("repl: no follower connected")
	// ErrAckTimeout fails a semisync mutation after local commit: the
	// operation is durable on this node but its replication was not
	// confirmed — the caller must treat it as indeterminate, so it
	// wraps store.ErrIndeterminate.
	ErrAckTimeout = fmt.Errorf("repl: follower ack timeout: %w", store.ErrIndeterminate)
)

// SendHook intercepts every outbound tail frame — the network
// fault-injection seam (see faults.Injector.ReplSendHook). It may drop
// the frame (the follower detects the sequence gap and resyncs), delay
// it, or fail the connection outright (a partition).
type SendHook func(size int) (drop bool, delay time.Duration, err error)

// Journal is what the primary needs from the local journal: the
// store.Log surface it re-exports, plus the commit-order callback that
// feeds the replication stream.
type Journal interface {
	store.Log
	SetOnCommit(fn func(batch []store.Record))
}

// PrimaryConfig tunes a replication primary.
type PrimaryConfig struct {
	NodeID     string
	Mode       Mode          // default ModeAsync
	AckTimeout time.Duration // semisync follower-ack wait; default 3s
	QueueDepth int           // per-follower commit batches buffered; default 1024
	SendHook   SendHook      // optional fault seam for tail frames
	Logger     *slog.Logger
}

// frameBudget bounds the encoded records of one batch frame, snapshot
// chunk or live tail alike. Records vary from ~100 B (an epoch record)
// through ~3.8 KB (a fleet checkpoint) to ~256 KiB (an engine
// checkpoint chunk), and one commit batch can be a whole engine
// checkpoint (~7.7 MB at 40k chips), so frames are cut by size, not
// by record count, a quarter of MaxFrame.
const frameBudget = 1 << 20

// ackWaiter blocks one semisync append until the follower's cumulative
// ack reaches seq.
type ackWaiter struct {
	seq uint64
	ch  chan struct{}
}

// Primary wraps a journal as a store.Log and streams every committed
// batch to connected followers. It plugs into store.NewJournaled
// unchanged — the fleet cannot tell it is replicated.
type Primary struct {
	inner Journal
	cfg   PrimaryConfig
	log   *slog.Logger

	mu     sync.Mutex
	ln     net.Listener
	conns  map[*pconn]struct{}
	closed bool

	ackMu   sync.Mutex
	acked   uint64 // follower's cumulative durable seq (max across followers)
	waiters []*ackWaiter

	lastCommitted atomic.Uint64 // newest locally durable seq (from onCommit)

	ackWait *obs.Histogram // semisync follower-ack wait latency

	framesSent    atomic.Uint64
	recordsSent   atomic.Uint64
	acksReceived  atomic.Uint64
	ackTimeouts   atomic.Uint64
	refused       atomic.Uint64
	snapshots     atomic.Uint64
	connects      atomic.Uint64
	disconnects   atomic.Uint64
	droppedFrames atomic.Uint64
	queueKills    atomic.Uint64
}

// pconn is one connected follower.
type pconn struct {
	c         net.Conn
	peer      string
	queue     chan []store.Record
	closed    chan struct{}
	closeOnce sync.Once
}

func (pc *pconn) shutdown() {
	pc.closeOnce.Do(func() {
		close(pc.closed)
		pc.c.Close()
	})
}

// NewPrimary wraps inner. The journal's commit callback is claimed by
// the primary; callers must not SetOnCommit afterwards.
func NewPrimary(inner Journal, cfg PrimaryConfig) *Primary {
	if cfg.Mode == "" {
		cfg.Mode = ModeAsync
	}
	if cfg.AckTimeout <= 0 {
		cfg.AckTimeout = 3 * time.Second
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 1024
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	p := &Primary{
		inner:   inner,
		cfg:     cfg,
		log:     cfg.Logger.With("component", "repl", "role", "primary"),
		conns:   make(map[*pconn]struct{}),
		ackWait: obs.NewHistogram(ackWaitBounds...),
	}
	p.lastCommitted.Store(inner.Stats().LastSeq)
	inner.SetOnCommit(p.onCommit)
	return p
}

// onCommit runs on the journal's group-commit path, in commit order:
// fan the batch out to every follower queue, then publish the new
// durable frontier that semisync appends wait on. A follower whose
// queue is full is cut loose — it reconnects and resyncs from a fresh
// snapshot, which is cheaper than stalling every commit behind it.
func (p *Primary) onCommit(batch []store.Record) {
	if len(batch) == 0 {
		return
	}
	maxSeq := batch[len(batch)-1].Seq
	p.mu.Lock()
	for pc := range p.conns {
		select {
		case pc.queue <- batch:
		case <-pc.closed:
		default:
			p.queueKills.Add(1)
			p.log.Warn("follower queue overflow; dropping connection", "peer", pc.peer)
			pc.shutdown()
		}
	}
	p.mu.Unlock()
	for {
		cur := p.lastCommitted.Load()
		if maxSeq <= cur || p.lastCommitted.CompareAndSwap(cur, maxSeq) {
			break
		}
	}
}

// AppendBatch implements store.Log: the batch commits as one group.
// In semisync mode it refuses before writing when no follower is
// connected (degraded, nothing lost) and, after the local commit,
// waits for a follower's durable ack of the batch's last record.
func (p *Primary) AppendBatch(ctx context.Context, recs []store.Record) error {
	if len(recs) == 0 {
		return nil
	}
	if p.cfg.Mode == ModeSemiSync && !p.hasFollower() {
		p.refused.Add(1)
		return ErrNoFollower
	}
	if err := p.inner.AppendBatch(ctx, recs); err != nil {
		return err
	}
	if p.cfg.Mode == ModeSemiSync {
		// lastCommitted is ≥ the batch's last seq (onCommit ran before
		// the append returned), so waiting for it is a safe
		// overapproximation.
		start := time.Now()
		if err := p.waitAcked(p.lastCommitted.Load()); err != nil {
			return fmt.Errorf("repl: mutation durable locally but replication unconfirmed: %w", err)
		}
		p.ackWait.Observe(time.Since(start))
	}
	return nil
}

func (p *Primary) waitAcked(seq uint64) error {
	p.ackMu.Lock()
	if p.acked >= seq {
		p.ackMu.Unlock()
		return nil
	}
	w := &ackWaiter{seq: seq, ch: make(chan struct{})}
	p.waiters = append(p.waiters, w)
	p.ackMu.Unlock()
	t := time.NewTimer(p.cfg.AckTimeout)
	defer t.Stop()
	select {
	case <-w.ch:
		return nil
	case <-t.C:
		p.ackTimeouts.Add(1)
		p.ackMu.Lock()
		for i, o := range p.waiters {
			if o == w {
				p.waiters = append(p.waiters[:i], p.waiters[i+1:]...)
				break
			}
		}
		p.ackMu.Unlock()
		return ErrAckTimeout
	}
}

func (p *Primary) advanceAcked(seq uint64) {
	p.ackMu.Lock()
	if seq > p.acked {
		p.acked = seq
	}
	keep := p.waiters[:0]
	for _, w := range p.waiters {
		if w.seq <= p.acked {
			close(w.ch)
		} else {
			keep = append(keep, w)
		}
	}
	p.waiters = keep
	p.ackMu.Unlock()
}

func (p *Primary) hasFollower() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.conns) > 0
}

// Records implements store.Log.
func (p *Primary) Records() []store.Record { return p.inner.Records() }

// Stats implements store.Log (the journal's counters; replication
// counters are ReplStats).
func (p *Primary) Stats() store.Stats { return p.inner.Stats() }

// Probe implements store.Log: the shard can accept writes only if the
// journal is healthy and — in semisync — a follower is connected. The
// serve layer's degraded-mode supervisor polls this, so losing the
// follower makes exactly this shard read-only and its return restores
// writes automatically.
func (p *Primary) Probe() error {
	if err := p.inner.Probe(); err != nil {
		return err
	}
	if p.cfg.Mode == ModeSemiSync && !p.hasFollower() {
		return fmt.Errorf("%w (semisync requires one)", ErrNoFollower)
	}
	return nil
}

// Serve accepts follower connections on ln until Close. Run it in its
// own goroutine.
func (p *Primary) Serve(ln net.Listener) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		ln.Close()
		return errors.New("repl: primary is closed")
	}
	p.ln = ln
	p.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			p.mu.Lock()
			closed := p.closed
			p.mu.Unlock()
			if closed {
				return nil
			}
			return fmt.Errorf("repl: accept: %w", err)
		}
		go p.handleConn(c)
	}
}

func (p *Primary) handleConn(c net.Conn) {
	c.SetReadDeadline(time.Now().Add(10 * time.Second))
	payload, err := ReadFrame(c, nil)
	if err != nil {
		c.Close()
		return
	}
	var hello helloMsg
	kind, err := decodeMsg(payload, &hello)
	if err != nil || kind != kindHello {
		p.log.Warn("rejecting connection with bad handshake", "err", err)
		c.Close()
		return
	}
	c.SetReadDeadline(time.Time{})

	pc := &pconn{
		c:      c,
		peer:   hello.NodeID,
		queue:  make(chan []store.Record, p.cfg.QueueDepth),
		closed: make(chan struct{}),
	}
	// Register before snapshotting: every batch committed after this
	// point is queued, and the snapshot covers everything before, so no
	// record can fall between them (overlap is deduped by seq).
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		c.Close()
		return
	}
	p.conns[pc] = struct{}{}
	p.mu.Unlock()
	p.connects.Add(1)
	snapSeq := p.inner.Stats().LastSeq
	snap := p.inner.Records()
	p.log.Info("follower connected; streaming snapshot",
		"peer", pc.peer, "follower_seq", hello.LastSeq, "snapshot_records", len(snap), "snapshot_seq", snapSeq)

	defer func() {
		p.mu.Lock()
		delete(p.conns, pc)
		p.mu.Unlock()
		pc.shutdown()
		p.disconnects.Add(1)
		p.log.Info("follower disconnected", "peer", pc.peer)
	}()

	// Reader: the follower's cumulative acks release semisync waiters.
	go func() {
		var buf []byte
		for {
			payload, err := ReadFrame(c, buf)
			if err != nil {
				pc.shutdown()
				return
			}
			buf = payload[:cap(payload)]
			var ack ackMsg
			if kind, err := decodeMsg(payload, &ack); err != nil || kind != kindAck {
				pc.shutdown()
				return
			}
			p.acksReceived.Add(1)
			p.advanceAcked(ack.Seq)
		}
	}()

	bw := bufio.NewWriterSize(c, 64*1024)
	if err := p.sendSnapshot(bw, snap, snapSeq); err != nil {
		p.log.Warn("snapshot stream failed", "peer", pc.peer, "err", err)
		return
	}
	p.snapshots.Add(1)
	for {
		select {
		case <-pc.closed:
			return
		case batch := <-pc.queue:
			if err := p.sendRecords(bw, batch, true); err != nil {
				p.log.Warn("tail stream failed", "peer", pc.peer, "err", err)
				return
			}
			if err := bw.Flush(); err != nil {
				return
			}
		}
	}
}

// batchTraceID picks the tag for a live tail batch: the trace id of
// the newest record that carries one (engine epoch records and other
// untraced writes carry none).
func batchTraceID(batch []store.Record) string {
	for i := len(batch) - 1; i >= 0; i-- {
		if batch[i].Trace != "" {
			return batch[i].Trace
		}
	}
	return ""
}

// sendSnapshot writes reset + chunked records + snapdone. Snapshot and
// control frames bypass the fault seam (see sendPayload).
func (p *Primary) sendSnapshot(bw *bufio.Writer, snap []store.Record, snapSeq uint64) error {
	if err := p.sendMsg(bw, kindReset, resetMsg{LastSeq: snapSeq}, false); err != nil {
		return err
	}
	if err := p.sendRecords(bw, snap, false); err != nil {
		return err
	}
	if err := p.sendMsg(bw, kindSnapDone, snapDoneMsg{LastSeq: snapSeq}, false); err != nil {
		return err
	}
	return bw.Flush()
}

// sendRecords frames recs as batch messages in order, each holding as
// many records as fit frameBudget encoded bytes (a record past the
// budget goes alone; a journal line is at most 1 MiB). Live tail
// frames (tail=true) run the fault seam and are tagged with their
// records' trace id. A commit batch split over frames reaches a
// follower's journal frame by frame; a group of engine checkpoint
// chunks cut short there is dropped when the journal opens.
func (p *Primary) sendRecords(w *bufio.Writer, recs []store.Record, tail bool) error {
	var frame batchMsg[json.RawMessage]
	size, first := 0, 0
	send := func(end int) error {
		if tail {
			frame.TraceID = batchTraceID(recs[first:end])
		}
		if err := p.sendMsg(w, kindBatch, frame, tail); err != nil {
			return err
		}
		p.recordsSent.Add(uint64(end - first))
		frame.Recs, size, first = frame.Recs[:0], 0, end
		return nil
	}
	for i := range recs {
		enc, err := json.Marshal(&recs[i])
		if err != nil {
			return fmt.Errorf("repl: encode record %d: %w", recs[i].Seq, err)
		}
		if i > first && size+len(enc) > frameBudget {
			if err := send(i); err != nil {
				return err
			}
		}
		frame.Recs = append(frame.Recs, enc)
		size += len(enc) + 1
	}
	if first < len(recs) {
		return send(len(recs))
	}
	return nil
}

// sendMsg encodes and frames one message (see sendPayload).
func (p *Primary) sendMsg(w *bufio.Writer, kind byte, msg any, droppable bool) error {
	payload, err := encodeMsg(kind, msg)
	if err != nil {
		return err
	}
	return p.sendPayload(w, payload, droppable)
}

// sendPayload frames one encoded message, running the fault seam for
// tail frames (droppable=true): a dropped tail frame is a sequence gap
// the follower detects and repairs by resyncing, and a partition error
// cuts the stream. Snapshot and control frames bypass the seam — a
// silently incomplete snapshot would be undetectable divergence, not a
// testable fault.
func (p *Primary) sendPayload(w *bufio.Writer, payload []byte, droppable bool) error {
	if h := p.cfg.SendHook; h != nil && droppable {
		drop, delay, herr := h(len(payload))
		if delay > 0 {
			time.Sleep(delay)
		}
		if herr != nil {
			return herr
		}
		if drop {
			p.droppedFrames.Add(1)
			return nil
		}
	}
	if err := WriteFrame(w, payload); err != nil {
		return err
	}
	p.framesSent.Add(1)
	return nil
}

// ReplStats snapshots the replication counters for /v1/cluster and the
// repl_* Prometheus series.
func (p *Primary) ReplStats() *Stats {
	p.mu.Lock()
	followers := len(p.conns)
	p.mu.Unlock()
	p.ackMu.Lock()
	acked := p.acked
	p.ackMu.Unlock()
	last := p.lastCommitted.Load()
	st := &Stats{
		Role:          "primary",
		Mode:          string(p.cfg.Mode),
		Followers:     followers,
		Connected:     followers > 0,
		LastSeq:       last,
		AckedSeq:      acked,
		FramesSent:    p.framesSent.Load(),
		RecordsSent:   p.recordsSent.Load(),
		AcksReceived:  p.acksReceived.Load(),
		AckTimeouts:   p.ackTimeouts.Load(),
		Refused:       p.refused.Load(),
		Snapshots:     p.snapshots.Load(),
		Connects:      p.connects.Load(),
		Disconnects:   p.disconnects.Load(),
		DroppedFrames: p.droppedFrames.Load(),
		QueueKills:    p.queueKills.Load(),
	}
	if last > acked {
		st.LagRecords = last - acked
	}
	if p.cfg.Mode == ModeSemiSync {
		aw := p.ackWait.Snapshot()
		st.AckWait = &aw
	}
	return st
}

// Close stops accepting, drops every follower, and closes the journal.
func (p *Primary) Close() error {
	p.mu.Lock()
	p.closed = true
	ln := p.ln
	conns := make([]*pconn, 0, len(p.conns))
	for pc := range p.conns {
		conns = append(conns, pc)
	}
	p.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, pc := range conns {
		pc.shutdown()
	}
	return p.inner.Close()
}

// Stats is a role-tagged snapshot of replication state, shared by
// primaries and followers (unused fields stay zero).
type Stats struct {
	Role           string `json:"role"` // "primary" | "follower"
	Mode           string `json:"mode,omitempty"`
	Followers      int    `json:"followers,omitempty"`
	Connected      bool   `json:"connected"`
	LastSeq        uint64 `json:"last_seq"`
	AckedSeq       uint64 `json:"acked_seq,omitempty"`
	LagRecords     uint64 `json:"lag_records,omitempty"`
	FramesSent     uint64 `json:"frames_sent,omitempty"`
	RecordsSent    uint64 `json:"records_sent,omitempty"`
	AcksReceived   uint64 `json:"acks_received,omitempty"`
	AckTimeouts    uint64 `json:"ack_timeouts,omitempty"`
	Refused        uint64 `json:"refused,omitempty"`
	Snapshots      uint64 `json:"snapshots,omitempty"`
	Connects       uint64 `json:"connects,omitempty"`
	Disconnects    uint64 `json:"disconnects,omitempty"`
	DroppedFrames  uint64 `json:"dropped_frames,omitempty"`
	QueueKills     uint64 `json:"queue_kills,omitempty"`
	RecordsApplied uint64 `json:"records_applied,omitempty"`
	Gaps           uint64 `json:"gaps,omitempty"`
	PrimaryAddr    string `json:"primary_addr,omitempty"`
	// AckWait is the semisync primary's follower-ack latency histogram
	// (nil for async primaries and followers).
	AckWait *obs.HistogramSnapshot `json:"ack_wait,omitempty"`
	// LastTraceID is the follower's view of the newest traced batch it
	// applied — the replication end of a distributed trace.
	LastTraceID string `json:"last_trace_id,omitempty"`
}
