package store

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
)

// collidingIDs generates n distinct ids that all hash onto the shard
// of anchor, so concurrency tests can hammer one shard lock.
func collidingIDs(t *testing.T, anchor string, n int) []string {
	t.Helper()
	want := ShardOf(anchor)
	ids := make([]string, 0, n)
	for i := 0; len(ids) < n; i++ {
		id := fmt.Sprintf("%s-%d", anchor, i)
		if ShardOf(id) == want {
			ids = append(ids, id)
		}
		if i > 100000 {
			t.Fatalf("could not find %d colliding ids (have %d)", n, len(ids))
		}
	}
	return ids
}

func TestMemBasics(t *testing.T) {
	s := NewMem[int]()
	if !s.Insert("a", 1) {
		t.Fatal("first insert refused")
	}
	if s.Insert("a", 2) {
		t.Fatal("duplicate insert accepted")
	}
	if v, ok := s.Lookup("a"); !ok || v != 1 {
		t.Fatalf("Lookup(a) = %d, %v", v, ok)
	}
	if _, ok := s.Lookup("b"); ok {
		t.Fatal("phantom entry")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
	s.Remove("a")
	if _, ok := s.Lookup("a"); ok {
		t.Fatal("entry survives Remove")
	}
	if s.Durable() {
		t.Fatal("Mem claims durability")
	}
	if s.Commit(context.Background(), Record{Op: OpCreate, ID: "a"}) != nil {
		t.Fatal("Mem.Commit errored")
	}
	if s.Replay() != nil {
		t.Fatal("Mem.Replay returned history")
	}
	if _, ok := s.Stats(); ok {
		t.Fatal("Mem reports backend stats")
	}
}

func TestMemForEachEarlyStopAndCoverage(t *testing.T) {
	s := NewMem[int]()
	for i := 0; i < 100; i++ {
		s.Insert(fmt.Sprintf("id-%d", i), i)
	}
	seen := map[string]bool{}
	s.ForEach(func(id string, v int) bool {
		seen[id] = true
		return true
	})
	if len(seen) != 100 {
		t.Fatalf("ForEach visited %d entries, want 100", len(seen))
	}
	calls := 0
	s.ForEach(func(string, int) bool {
		calls++
		return false
	})
	if calls != 1 {
		t.Fatalf("early stop made %d calls, want 1", calls)
	}
}

// TestShardCollisionHammer asserts the lock hierarchy under the race
// detector: create/delete/lookup/iterate traffic confined to ids that
// collide onto a single shard, with ForEach visitors that grab a
// per-entry lock — the chip-lock-over-shard-lock pattern the fleet
// layer uses. Any ordering violation (visitor under a shard lock, two
// shard locks at once) deadlocks or races here.
func TestShardCollisionHammer(t *testing.T) {
	type entry struct {
		mu sync.Mutex
		n  int
	}
	s := NewMem[*entry]()
	ids := collidingIDs(t, "hammer", 8)
	for _, id := range ids {
		want := ShardOf(ids[0])
		if got := ShardOf(id); got != want {
			t.Fatalf("id %q on shard %d, want %d", id, got, want)
		}
	}

	const workers = 8
	const rounds = 300
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := ids[w%len(ids)]
			for i := 0; i < rounds; i++ {
				switch i % 4 {
				case 0:
					s.Insert(id, &entry{})
				case 1:
					if e, ok := s.Lookup(id); ok {
						e.mu.Lock()
						e.n++
						e.mu.Unlock()
					}
				case 2:
					// Visitor takes entry locks while the store holds none —
					// the hierarchy ForEach's snapshot buys.
					s.ForEach(func(_ string, e *entry) bool {
						e.mu.Lock()
						e.n++
						e.mu.Unlock()
						return true
					})
				case 3:
					s.Remove(id)
				}
			}
		}(w)
	}
	wg.Wait()
}

// failLog satisfies Log with scripted failures, for decorator tests.
type failLog struct {
	mu      sync.Mutex
	appends []Record
	failN   int // fail the next N appends
	probeOK bool
	closed  bool
}

func (l *failLog) AppendBatch(_ context.Context, recs []Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failN > 0 {
		l.failN--
		return errors.New("disk on fire")
	}
	l.appends = append(l.appends, recs...)
	return nil
}

func (l *failLog) Records() []Record {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Record(nil), l.appends...)
}

func (l *failLog) Probe() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.probeOK {
		return errors.New("still on fire")
	}
	return nil
}

func (l *failLog) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{Appends: uint64(len(l.appends))}
}

func (l *failLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	return nil
}

func TestJournaledDecorator(t *testing.T) {
	log := &failLog{appends: []Record{{Seq: 1, Op: OpCreate, ID: "c0"}}}
	s := NewJournaled[int](NewMem[int](), log)

	if !s.Durable() {
		t.Fatal("journaled store not durable")
	}
	if got := s.Replay(); len(got) != 1 || got[0].ID != "c0" {
		t.Fatalf("Replay = %+v", got)
	}
	// Map operations pass through to the inner store.
	if !s.Insert("c0", 7) {
		t.Fatal("insert refused")
	}
	if v, ok := s.Lookup("c0"); !ok || v != 7 {
		t.Fatalf("Lookup = %d, %v", v, ok)
	}
	// Commit goes to the log — and surfaces its failures.
	if err := s.Commit(context.Background(), Record{Op: OpStress, ID: "c0"}); err != nil {
		t.Fatal(err)
	}
	log.failN = 1
	if err := s.Commit(context.Background(), Record{Op: OpStress, ID: "c0"}); err == nil {
		t.Fatal("failed append not surfaced")
	}
	if err := s.Probe(); err == nil {
		t.Fatal("failed probe not surfaced")
	}
	log.probeOK = true
	if err := s.Probe(); err != nil {
		t.Fatal(err)
	}
	if st, ok := s.Stats(); !ok || st.Appends != 2 {
		t.Fatalf("Stats = %+v, %v", st, ok)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if !log.closed {
		t.Fatal("Close did not reach the log")
	}
}

// TestOpenRoundTrip exercises the standard durable assembly: commits
// through a real journal, then a fresh Open replays them.
func TestOpenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, repairs, err := Open[int](dir, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(repairs) != 0 {
		t.Fatalf("fresh dir reported repairs: %+v", repairs)
	}
	if err := s.Commit(context.Background(), Record{Op: OpCreate, ID: "c0", Seed: 7, Kind: "bench"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(context.Background(), Record{Op: OpStress, ID: "c0", Hours: 24}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, _, err := Open[int](dir, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	recs := s2.Replay()
	if len(recs) != 2 || recs[0].Op != OpCreate || recs[1].Op != OpStress || recs[1].Hours != 24 {
		t.Fatalf("replay = %+v", recs)
	}
}
