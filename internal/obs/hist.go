package obs

import (
	"sort"
	"strconv"
	"sync/atomic"
	"time"
)

// Histogram is a lock-free fixed-bucket latency histogram: one counter
// per bucket (the last is +Inf) and the summed observations. A value
// equal to a bound lands in that bound's bucket, which is what the
// Prometheus "le" (less than or equal) label promises.
type Histogram struct {
	bounds []float64 // bucket upper bounds in seconds, ascending
	les    []string  // bounds rendered as "le" labels; the last is "+Inf"
	counts []atomic.Uint64
	sumNS  atomic.Int64
}

// NewHistogram returns an empty histogram over the ascending bucket
// upper bounds, in seconds; a final +Inf bucket catches the rest.
func NewHistogram(bounds ...float64) *Histogram {
	h := &Histogram{
		bounds: bounds,
		les:    make([]string, len(bounds)+1),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
	for i, b := range bounds {
		h.les[i] = strconv.FormatFloat(b, 'g', -1, 64)
	}
	h.les[len(bounds)] = "+Inf"
	return h
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	h.counts[sort.SearchFloat64s(h.bounds, d.Seconds())].Add(1)
	h.sumNS.Add(d.Nanoseconds())
}

// Bucket is one cumulative histogram bucket: Count observations at or
// below the LE bound ("+Inf" for the last).
type Bucket struct {
	LE    string `json:"le"`
	Count uint64 `json:"count"`
}

// HistogramSnapshot is a histogram read once: cumulative buckets, the
// observation count and the summed seconds (so the mean is
// SumSeconds/Count). PromWriter.Histogram renders it.
type HistogramSnapshot struct {
	Buckets    []Bucket `json:"buckets"`
	Count      uint64   `json:"count"`
	SumSeconds float64  `json:"sum_seconds"`
}

// Snapshot renders the buckets cumulatively. Count is read as the +Inf
// bucket, so it equals that bucket even while Observe runs; the sum
// may include an observation the buckets do not yet.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Buckets: make([]Bucket, len(h.counts))}
	for i := range h.counts {
		s.Count += h.counts[i].Load()
		s.Buckets[i] = Bucket{LE: h.les[i], Count: s.Count}
	}
	s.SumSeconds = float64(h.sumNS.Load()) / float64(time.Second)
	return s
}
