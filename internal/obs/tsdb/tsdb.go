// Package tsdb is a fixed-memory, in-process time-series store for
// per-epoch fleet telemetry. Each named series is an independent ring
// buffer of (epoch, value, wall-time) samples: appending is O(1),
// memory is bounded at construction (capacity samples per series,
// MaxSeries series), and the oldest samples are overwritten in place —
// each series is an obs.Ring, as are the trace shards and alert logs.
//
// The store deliberately does not know what the series mean. The serve
// layer's per-epoch recorder feeds it fleet aggregates (margin
// percentiles, aging-rate distribution, quarantine counts, epoch and
// replication lag, mutation throughput); GET /v1/telemetry and the
// fleet federation endpoint read it back with optional downsampling.
//
// Lock hierarchy: DB.mu guards the series map; each series has its own
// mutex guarding its ring. DB.mu is never held while a series mutex is
// taken for reads, and no callback runs under either — tsdb locks are
// leaves, safe to use from engine OnEpoch hooks and HTTP handlers
// concurrently.
package tsdb

import (
	"sort"
	"sync"
	"time"

	"selfheal/internal/obs"
)

// MaxSeries bounds the number of distinct series a DB will hold, so a
// typo'd or attacker-controlled series name cannot grow memory without
// bound. Appends past the cap are counted in Stats().Rejected and
// dropped.
const MaxSeries = 256

// DefaultCapacity is the per-series ring capacity when New is given a
// non-positive one: at one sample per epoch it retains the last 512
// epochs of history.
const DefaultCapacity = 512

// Sample is one recorded point. Epoch is the engine epoch the value
// describes; Unix is the wall clock at record time (what staleness
// checks compare against).
type Sample struct {
	Epoch uint64  `json:"epoch"`
	Unix  int64   `json:"unix"`
	Value float64 `json:"value"`
}

// series is one ring buffer of samples, oldest overwritten first.
type series struct {
	mu   sync.Mutex
	ring *obs.Ring[Sample]
}

// DB is a set of named ring-buffer series. All methods are safe for
// concurrent use.
type DB struct {
	capacity int

	mu       sync.RWMutex
	series   map[string]*series
	rejected uint64
}

// New returns a DB retaining capacity samples per series (<= 0 means
// DefaultCapacity).
func New(capacity int) *DB {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &DB{capacity: capacity, series: make(map[string]*series)}
}

// Capacity reports the per-series ring capacity.
func (db *DB) Capacity() int { return db.capacity }

// Append records one sample for name at the current wall time.
func (db *DB) Append(name string, epoch uint64, value float64) {
	db.AppendAt(name, epoch, value, time.Now().Unix())
}

// AppendAt is Append with an explicit wall time (tests).
func (db *DB) AppendAt(name string, epoch uint64, value float64, unix int64) {
	db.mu.RLock()
	s := db.series[name]
	db.mu.RUnlock()
	if s == nil {
		db.mu.Lock()
		s = db.series[name]
		if s == nil {
			if len(db.series) >= MaxSeries {
				db.rejected++
				db.mu.Unlock()
				return
			}
			s = &series{ring: obs.NewRing[Sample](db.capacity)}
			db.series[name] = s
		}
		db.mu.Unlock()
	}
	s.mu.Lock()
	s.ring.Push(Sample{Epoch: epoch, Unix: unix, Value: value})
	s.mu.Unlock()
}

// Names returns the series names, sorted.
func (db *DB) Names() []string {
	db.mu.RLock()
	names := make([]string, 0, len(db.series))
	for name := range db.series {
		names = append(names, name)
	}
	db.mu.RUnlock()
	sort.Strings(names)
	return names
}

// Stats summarizes the store for /metrics.
type Stats struct {
	Series   int    `json:"series"`
	Capacity int    `json:"capacity"`
	Rejected uint64 `json:"rejected,omitempty"` // appends dropped at the MaxSeries cap
}

// Stats returns store-level counters.
func (db *DB) Stats() Stats {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return Stats{Series: len(db.series), Capacity: db.capacity, Rejected: db.rejected}
}

// Query selects samples. The zero value returns every retained sample
// of the queried series, oldest first.
type Query struct {
	// SinceEpoch keeps only samples with Epoch >= SinceEpoch.
	SinceEpoch uint64
	// Step > 1 downsamples: consecutive samples are grouped into
	// buckets of Step epochs (by Epoch/Step) and each bucket collapses
	// to one sample holding the bucket's mean value, the bucket's last
	// epoch and last wall time.
	Step uint64
	// Limit caps the returned samples, keeping the newest (<= 0 means
	// no cap).
	Limit int
}

// Select returns name's samples matching q, oldest first. A series
// that does not exist yields nil.
func (db *DB) Select(name string, q Query) []Sample {
	db.mu.RLock()
	s := db.series[name]
	db.mu.RUnlock()
	if s == nil {
		return nil
	}
	s.mu.Lock()
	raw := s.ring.Oldest()
	s.mu.Unlock()

	out := raw[:0]
	for _, sm := range raw {
		if sm.Epoch >= q.SinceEpoch {
			out = append(out, sm)
		}
	}
	if q.Step > 1 {
		out = downsample(out, q.Step)
	}
	if q.Limit > 0 && len(out) > q.Limit {
		out = out[len(out)-q.Limit:]
	}
	return out
}

// Latest returns name's newest sample, if any.
func (db *DB) Latest(name string) (Sample, bool) {
	db.mu.RLock()
	s := db.series[name]
	db.mu.RUnlock()
	if s == nil {
		return Sample{}, false
	}
	s.mu.Lock()
	newest := s.ring.Newest(1)
	s.mu.Unlock()
	if len(newest) == 0 {
		return Sample{}, false
	}
	return newest[0], true
}

// downsample collapses samples (oldest first) into Epoch/step buckets,
// each bucket reporting its mean value at its last epoch.
func downsample(in []Sample, step uint64) []Sample {
	if len(in) == 0 {
		return in
	}
	out := make([]Sample, 0, len(in)/int(step)+1)
	bucket := in[0].Epoch / step
	sum, n := 0.0, 0
	last := in[0]
	flush := func() {
		out = append(out, Sample{Epoch: last.Epoch, Unix: last.Unix, Value: sum / float64(n)})
	}
	for _, sm := range in {
		if sm.Epoch/step != bucket {
			flush()
			bucket = sm.Epoch / step
			sum, n = 0, 0
		}
		sum += sm.Value
		n++
		last = sm
	}
	flush()
	return out
}
