package store

import (
	"context"
	"sync"
)

// ShardCount is the number of independent locks (and maps) a Mem store
// spreads the fleet over. 32 keeps per-shard contention negligible up
// to a few thousand concurrent chip operations while costing ~32 map
// headers of memory; BenchmarkRegistryContention justifies the number
// against the single-mutex map it replaced.
const ShardCount = 32

// ShardOf maps a chip id onto its shard with FNV-1a. Exported so
// tests can construct colliding ids and hammer one shard's lock.
func ShardOf(id string) int {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= prime32
	}
	return int(h % ShardCount)
}

// Mem is the lock-sharded in-memory Store: a fixed array of
// independently-locked maps. Operations on chips that hash to
// different shards never touch the same mutex, so a busy fleet scales
// with cores instead of serializing on one registry lock. Mem provides
// no durability — Commit is a no-op; wrap it with NewJournaled for a
// durable fleet.
type Mem[E any] struct {
	shards [ShardCount]memShard[E]
}

type memShard[E any] struct {
	mu sync.RWMutex
	m  map[string]E
}

// NewMem returns an empty sharded store.
func NewMem[E any]() *Mem[E] {
	s := &Mem[E]{}
	for i := range s.shards {
		s.shards[i].m = make(map[string]E)
	}
	return s
}

func (s *Mem[E]) shard(id string) *memShard[E] { return &s.shards[ShardOf(id)] }

// Insert registers e under id, reporting false when the id is taken.
func (s *Mem[E]) Insert(id string, e E) bool {
	sh := s.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, exists := sh.m[id]; exists {
		return false
	}
	sh.m[id] = e
	return true
}

// Lookup returns the entry registered under id.
func (s *Mem[E]) Lookup(id string) (E, bool) {
	sh := s.shard(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	e, ok := sh.m[id]
	return e, ok
}

// Remove unregisters id.
func (s *Mem[E]) Remove(id string) {
	sh := s.shard(id)
	sh.mu.Lock()
	delete(sh.m, id)
	sh.mu.Unlock()
}

// ForEach visits every entry, shard by shard. Each shard's entries are
// snapshotted under its read lock and the visitor runs after the lock
// is released, so visitors may take per-entry locks without inverting
// the chip-lock → shard-lock hierarchy. Entries inserted or removed
// concurrently may or may not be visited.
func (s *Mem[E]) ForEach(fn func(id string, e E) bool) {
	type kv struct {
		id string
		e  E
	}
	var batch []kv
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		batch = batch[:0]
		for id, e := range sh.m {
			batch = append(batch, kv{id, e})
		}
		sh.mu.RUnlock()
		for _, it := range batch {
			if !fn(it.id, it.e) {
				return
			}
		}
	}
}

// Len reports the number of registered entries.
func (s *Mem[E]) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	return n
}

// Commit is a no-op: a bare Mem store provides no durability.
func (s *Mem[E]) Commit(context.Context, Record) error { return nil }

// CommitBatch is a no-op, like Commit.
func (s *Mem[E]) CommitBatch(context.Context, []Record) error { return nil }

// Replay returns nil: an in-memory fleet always starts empty.
func (s *Mem[E]) Replay() []Record { return nil }

// Probe reports nil: there is no backend to fail.
func (s *Mem[E]) Probe() error { return nil }

// Stats reports no backend counters.
func (s *Mem[E]) Stats() (Stats, bool) { return Stats{}, false }

// Durable reports false.
func (s *Mem[E]) Durable() bool { return false }

// Close is a no-op.
func (s *Mem[E]) Close() error { return nil }
