// Package obs is the service's observability layer: request-scoped
// tracing, structured-logging helpers and Prometheus text exposition,
// standard library only. It is the software analog of the paper's
// measurement apparatus — the ring-oscillator sensors observed silicon
// aging from outside the die; this package observes the fleet service
// from outside its layers, without changing what they compute.
//
// The pieces compose but do not require each other:
//
//   - A Tracer mints one Trace per request (serve middleware calls
//     Start); every layer below annotates it with Spans via StartSpan,
//     which reads the active span from the context and is a cheap
//     no-op when no trace is attached (replay, CLIs, tests). Completed
//     traces land in a fixed-size lock-sharded ring buffer and are
//     queried with Snapshot — the data behind GET /debug/traces.
//   - WithTraceIDs wraps any slog.Handler so every context-aware log
//     line automatically carries the trace_id of the request that
//     emitted it, correlating logs with traces.
//   - PromWriter renders metrics in the Prometheus text exposition
//     format (version 0.0.4); WriteRuntimeMetrics adds the Go runtime
//     gauges every production scrape wants.
//
// Nothing here imports the rest of the repository, so any layer — the
// journal included — may create spans without dependency cycles.
package obs

import (
	"context"
	cryptorand "crypto/rand"
	"encoding/hex"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// MaxSpansPerTrace bounds one trace's span list so a huge batch request
// (1024 items × several spans each) cannot balloon the ring's memory.
// Spans past the cap are counted, not stored — TraceView.SpansDropped
// reports how many.
const MaxSpansPerTrace = 512

// Attr is one key/value annotation on a span. Values are strings on
// purpose: spans are for reading, not aggregating, and a string keeps
// the snapshot JSON trivial.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// String builds a string attribute.
func String(k, v string) Attr { return Attr{Key: k, Value: v} }

// Int builds an integer attribute.
func Int(k string, v int) Attr { return Attr{Key: k, Value: strconv.Itoa(v)} }

// Bool builds a boolean attribute.
func Bool(k string, v bool) Attr { return Attr{Key: k, Value: strconv.FormatBool(v)} }

// Duration builds a duration attribute (human-readable Go form).
func Duration(k string, d time.Duration) Attr { return Attr{Key: k, Value: d.String()} }

// spanKey carries the active *Span through the context.
type spanKey struct{}

// Tracer retains the last N completed traces in a lock-sharded ring
// buffer: finished traces are spread over ringShards independent
// buffers, so concurrent request completions do not serialize on one
// mutex. All methods are safe for concurrent use.
type Tracer struct {
	shards   [ringShards]ringShard
	perShard int
	seq      atomic.Uint64 // completed traces ever, also the shard picker
	node     atomic.Value  // node id string; stamped onto every view
}

const ringShards = 8

type ringShard struct {
	mu   sync.Mutex
	ring *Ring[*Trace]
}

// NewTracer returns a tracer retaining roughly capacity completed
// traces (rounded up to a multiple of the shard count; capacity <= 0
// defaults to 256).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = 256
	}
	per := (capacity + ringShards - 1) / ringShards
	t := &Tracer{perShard: per}
	for i := range t.shards {
		t.shards[i].ring = NewRing[*Trace](per)
	}
	return t
}

// Capacity reports how many completed traces the ring retains.
func (t *Tracer) Capacity() int { return t.perShard * ringShards }

// Total reports how many traces have completed since construction
// (retained or since evicted).
func (t *Tracer) Total() uint64 { return t.seq.Load() }

// SetNode labels every trace and span view this tracer emits with the
// fleet node id, so /debug/traces output from different nodes stitches
// into one cross-node timeline. Safe to call at any time; typically set
// once at server construction.
func (t *Tracer) SetNode(id string) { t.node.Store(id) }

// Node returns the node id set with SetNode, or "".
func (t *Tracer) Node() string {
	id, _ := t.node.Load().(string)
	return id
}

// newTraceID mints a 16-hex-digit trace id.
func newTraceID() string {
	var b [8]byte
	if _, err := cryptorand.Read(b[:]); err != nil {
		return "trace-unavailable"
	}
	return hex.EncodeToString(b[:])
}

// Start begins a new trace for one request and returns the context
// carrying its root span. The caller must End the root span — that is
// what finalizes the trace and files it into the ring. route labels
// the trace for filtering (use the route *pattern*, not the raw path,
// so cardinality stays bounded).
func (t *Tracer) Start(ctx context.Context, route string) (context.Context, *Span) {
	return t.StartRemote(ctx, route, "")
}

// StartRemote begins a trace that adopts traceID — the id a remote hop
// (client or forwarding node) propagated in a trace-context header — so
// every node touched by one logical request files its local trace under
// the same id. An empty or malformed traceID falls back to minting a
// fresh one, making StartRemote("") identical to Start.
func (t *Tracer) StartRemote(ctx context.Context, route, traceID string) (context.Context, *Span) {
	if !ValidTraceID(traceID) {
		traceID = newTraceID()
	}
	tr := &Trace{
		tracer: t,
		id:     traceID,
		route:  route,
		start:  time.Now(),
	}
	root := &Span{trace: tr, id: "s1", name: route, start: tr.start, root: true}
	tr.spans = append(tr.spans, root)
	tr.nextID = 2
	return context.WithValue(ctx, spanKey{}, root), root
}

// StartSpan opens a child span under the context's active span and
// returns a context carrying it (so further StartSpan calls nest).
// Without a trace in ctx it returns ctx unchanged and a nil span —
// every Span method is nil-safe, so instrumented code needs no guards.
func StartSpan(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	parent, _ := ctx.Value(spanKey{}).(*Span)
	if parent == nil {
		return ctx, nil
	}
	tr := parent.trace
	now := time.Now()
	tr.mu.Lock()
	if len(tr.spans) >= MaxSpansPerTrace {
		tr.dropped++
		tr.mu.Unlock()
		return ctx, nil
	}
	s := &Span{
		trace:  tr,
		id:     "s" + strconv.Itoa(tr.nextID),
		parent: parent.id,
		name:   name,
		start:  now,
		attrs:  attrs,
	}
	tr.nextID++
	tr.spans = append(tr.spans, s)
	tr.mu.Unlock()
	return context.WithValue(ctx, spanKey{}, s), s
}

// TraceIDFrom returns the context's trace id — from the active span
// if one is attached, else from a remote trace id carried by
// ContextWithRemoteTrace (the client side of propagation, where no
// local span exists) — or "" outside both.
func TraceIDFrom(ctx context.Context) string {
	if s, _ := ctx.Value(spanKey{}).(*Span); s != nil {
		return s.trace.id
	}
	if id, _ := ctx.Value(remoteTraceKey{}).(string); id != "" {
		return id
	}
	return ""
}

// Trace is one request's span collection while it is being built and
// after it is retained in the ring. All mutation happens under mu, so
// a snapshot taken while a straggler span is still running (a handler
// that outlived its route timeout) is race-free.
type Trace struct {
	tracer *Tracer
	id     string
	route  string
	start  time.Time

	mu      sync.Mutex
	spans   []*Span
	nextID  int
	dropped int
	status  int
	done    bool
	endNS   int64 // duration, set when the root span ends
}

// Span is one timed operation inside a trace. The zero of use is:
//
//	ctx, sp := obs.StartSpan(ctx, "journal.stage", obs.String("op", op))
//	defer sp.End()
//
// Fields after construction are guarded by the owning trace's mutex.
type Span struct {
	trace  *Trace
	id     string
	parent string
	name   string
	start  time.Time

	attrs  []Attr
	errMsg string
	endNS  int64 // duration; 0 while the span is open
	root   bool
}

// Annotate appends attributes to the span. Nil-safe.
func (s *Span) Annotate(attrs ...Attr) {
	if s == nil {
		return
	}
	s.trace.mu.Lock()
	s.attrs = append(s.attrs, attrs...)
	s.trace.mu.Unlock()
}

// SetError marks the span failed. A nil error or nil span is a no-op.
func (s *Span) SetError(err error) {
	if s == nil || err == nil {
		return
	}
	s.trace.mu.Lock()
	s.errMsg = err.Error()
	s.trace.mu.Unlock()
}

// SetStatus records the trace's terminal HTTP status; meaningful on
// the root span only. Nil-safe.
func (s *Span) SetStatus(code int) {
	if s == nil {
		return
	}
	s.trace.mu.Lock()
	s.trace.status = code
	s.trace.mu.Unlock()
}

// End closes the span. Ending the root span finalizes the trace and
// files it into the tracer's ring; spans that end after that (work
// that outlived the request) still record their duration and remain
// visible in later snapshots. End is nil-safe and idempotent.
func (s *Span) End() {
	if s == nil {
		return
	}
	tr := s.trace
	now := time.Now()
	tr.mu.Lock()
	if s.endNS == 0 {
		s.endNS = now.Sub(s.start).Nanoseconds()
		if s.endNS <= 0 {
			s.endNS = 1 // a closed span is distinguishable from an open one
		}
	}
	finalize := s.root && !tr.done
	if finalize {
		tr.done = true
		tr.endNS = now.Sub(tr.start).Nanoseconds()
	}
	tr.mu.Unlock()
	if finalize {
		tr.tracer.retain(tr)
	}
}

// retain files a completed trace into the ring, evicting the oldest
// entry of its shard.
func (t *Tracer) retain(tr *Trace) {
	sh := &t.shards[t.seq.Add(1)%ringShards]
	sh.mu.Lock()
	sh.ring.Push(tr)
	sh.mu.Unlock()
}

// Filter selects traces for Snapshot. The zero value returns the
// newest DefaultSnapshotLimit traces.
type Filter struct {
	// Route keeps only traces whose route equals this (exact match on
	// the route pattern, e.g. "POST /v1/ops:batch").
	Route string
	// MinDuration keeps only traces at least this long.
	MinDuration time.Duration
	// ErrorsOnly keeps only traces that failed: terminal status >= 500
	// or any span with an error.
	ErrorsOnly bool
	// Limit caps the returned traces, newest first (<= 0 means
	// DefaultSnapshotLimit).
	Limit int
}

// DefaultSnapshotLimit is the trace count Snapshot returns when the
// filter sets none.
const DefaultSnapshotLimit = 20

// TraceView is one completed trace as exposed by GET /debug/traces.
type TraceView struct {
	TraceID      string     `json:"trace_id"`
	NodeID       string     `json:"node_id,omitempty"`
	Route        string     `json:"route"`
	Start        time.Time  `json:"start"`
	DurationMS   float64    `json:"duration_ms"`
	Status       int        `json:"status,omitempty"`
	Error        bool       `json:"error"`
	SpansDropped int        `json:"spans_dropped,omitempty"`
	Spans        []SpanView `json:"spans"`
}

// SpanView is one span inside a TraceView. StartUS is the offset from
// the trace start, so a reader can lay the spans on one timeline.
type SpanView struct {
	ID         string            `json:"id"`
	Parent     string            `json:"parent,omitempty"`
	NodeID     string            `json:"node_id,omitempty"`
	Name       string            `json:"name"`
	StartUS    int64             `json:"start_us"`
	DurationUS int64             `json:"duration_us"`
	Unfinished bool              `json:"unfinished,omitempty"`
	Error      string            `json:"error,omitempty"`
	Attrs      map[string]string `json:"attrs,omitempty"`
}

// Snapshot returns the retained traces matching f, newest first.
func (t *Tracer) Snapshot(f Filter) []TraceView {
	limit := f.Limit
	if limit <= 0 {
		limit = DefaultSnapshotLimit
	}
	var all []*Trace
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		all = append(all, sh.ring.Oldest()...)
		sh.mu.Unlock()
	}
	sort.Slice(all, func(i, j int) bool { return all[i].start.After(all[j].start) })
	views := make([]TraceView, 0, limit)
	for _, tr := range all {
		if f.Route != "" && tr.route != f.Route {
			continue
		}
		v := tr.view()
		if f.MinDuration > 0 && v.DurationMS < float64(f.MinDuration)/float64(time.Millisecond) {
			continue
		}
		if f.ErrorsOnly && !v.Error {
			continue
		}
		views = append(views, v)
		if len(views) >= limit {
			break
		}
	}
	return views
}

// view snapshots the trace under its mutex.
func (tr *Trace) view() TraceView {
	node := tr.tracer.Node()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	v := TraceView{
		TraceID:      tr.id,
		NodeID:       node,
		Route:        tr.route,
		Start:        tr.start,
		DurationMS:   float64(tr.endNS) / float64(time.Millisecond),
		Status:       tr.status,
		Error:        tr.status >= 500,
		SpansDropped: tr.dropped,
		Spans:        make([]SpanView, 0, len(tr.spans)),
	}
	for _, s := range tr.spans {
		sv := SpanView{
			ID:         s.id,
			Parent:     s.parent,
			NodeID:     node,
			Name:       s.name,
			StartUS:    s.start.Sub(tr.start).Microseconds(),
			DurationUS: s.endNS / int64(time.Microsecond),
			Unfinished: s.endNS == 0,
			Error:      s.errMsg,
		}
		if s.errMsg != "" {
			v.Error = true
		}
		if len(s.attrs) > 0 {
			sv.Attrs = make(map[string]string, len(s.attrs))
			for _, a := range s.attrs {
				sv.Attrs[a.Key] = a.Value
			}
		}
		v.Spans = append(v.Spans, sv)
	}
	return v
}
