package obs

import "slices"

// Ring is a fixed-capacity overwrite ring: once full, each Push
// replaces the oldest element. It takes no lock — callers serialize
// access with their own. It backs the trace shards, the TSDB series,
// and the guard and SLO alert logs.
type Ring[T any] struct {
	buf  []T
	next int // slot the next Push overwrites
	n    int // retained elements
}

// NewRing returns a ring retaining the last capacity (> 0) elements.
func NewRing[T any](capacity int) *Ring[T] { return &Ring[T]{buf: make([]T, capacity)} }

// Push appends v, overwriting the oldest element once the ring is full.
func (r *Ring[T]) Push(v T) {
	r.buf[r.next] = v
	r.next = (r.next + 1) % len(r.buf)
	r.n = min(r.n+1, len(r.buf))
}

// Newest returns at most limit retained elements, newest first
// (limit <= 0 means all).
func (r *Ring[T]) Newest(limit int) []T {
	if limit <= 0 || limit > r.n {
		limit = r.n
	}
	out := make([]T, limit)
	for i := range out {
		out[i] = r.buf[(r.next-1-i+len(r.buf))%len(r.buf)]
	}
	return out
}

// Oldest returns every retained element, oldest first.
func (r *Ring[T]) Oldest() []T {
	out := r.Newest(0)
	slices.Reverse(out)
	return out
}
