package repl

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"selfheal/internal/journal"
	"selfheal/internal/store"
)

// historyChecksum hashes a record history; two journals with equal
// checksums replay to bit-identical fleets.
func historyChecksum(t *testing.T, recs []store.Record) [32]byte {
	t.Helper()
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, r := range recs {
		if err := enc.Encode(r); err != nil {
			t.Fatalf("encode: %v", err)
		}
	}
	var sum [32]byte
	copy(sum[:], h.Sum(nil))
	return sum
}

func startPrimary(t *testing.T, mode Mode, hook SendHook) (*Primary, string) {
	t.Helper()
	j, err := journal.Open(t.TempDir(), journal.Options{})
	if err != nil {
		t.Fatalf("journal.Open: %v", err)
	}
	p := NewPrimary(j, PrimaryConfig{NodeID: "prim", Mode: mode, AckTimeout: 2 * time.Second, SendHook: hook})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go p.Serve(ln)
	t.Cleanup(func() { p.Close() })
	return p, ln.Addr().String()
}

func startFollower(t *testing.T, dir, addr string) *Follower {
	t.Helper()
	fj, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatalf("journal.Open: %v", err)
	}
	f := NewFollower(fj, FollowerConfig{NodeID: "fol", PrimaryAddr: addr, RetryMin: 10 * time.Millisecond, RetryMax: 200 * time.Millisecond})
	f.Start()
	t.Cleanup(func() { f.Close() })
	return f
}

// waitConverged polls until the follower's journal matches the
// primary's live history exactly.
func waitConverged(t *testing.T, p *Primary, f *Follower) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		want := historyChecksum(t, p.Records())
		got := historyChecksum(t, f.Journal().Records())
		if want == got && p.Stats().LastSeq == f.Journal().Stats().LastSeq {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never converged: primary %d recs seq %d, follower %d recs seq %d",
				len(p.Records()), p.Stats().LastSeq, len(f.Journal().Records()), f.Journal().Stats().LastSeq)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func crec(id string, seed uint64) store.Record {
	return store.Record{Op: store.OpCreate, ID: id, Seed: seed, Kind: "lut"}
}

func TestReplicationSnapshotAndTail(t *testing.T) {
	p, addr := startPrimary(t, ModeAsync, nil)
	ctx := context.Background()
	// History before the follower exists — arrives via snapshot.
	for i := 0; i < 20; i++ {
		if err := p.AppendBatch(ctx, []store.Record{crec(fmt.Sprintf("pre-%d", i), uint64(i))}); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	f := startFollower(t, t.TempDir(), addr)
	waitConverged(t, p, f)
	// Live tail after the snapshot.
	for i := 0; i < 30; i++ {
		if err := p.AppendBatch(ctx, []store.Record{{Op: store.OpStress, ID: fmt.Sprintf("pre-%d", i%20), Hours: 1, TempC: 80, Vdd: 1.0}}); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	waitConverged(t, p, f)
	if st := f.ReplStats(); st.Snapshots != 1 || !st.Connected {
		t.Fatalf("follower stats: %+v", st)
	}
	if st := p.ReplStats(); st.Followers != 1 || st.RecordsSent == 0 {
		t.Fatalf("primary stats: %+v", st)
	}
}

func TestFollowerLateJoinAfterCompaction(t *testing.T) {
	p, addr := startPrimary(t, ModeAsync, nil)
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		if err := p.AppendBatch(ctx, []store.Record{crec(fmt.Sprintf("chip-%d", i), uint64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	// Deletes prune history; compaction folds the rest into the
	// snapshot. A late joiner must see the *compacted* state, and the
	// tail must continue from the primary's (higher) seq numbering.
	if err := p.AppendBatch(ctx, []store.Record{{Op: store.OpDelete, ID: "chip-3"}}); err != nil {
		t.Fatal(err)
	}
	if err := p.AppendBatch(ctx, []store.Record{{Op: store.OpDelete, ID: "chip-7"}}); err != nil {
		t.Fatal(err)
	}
	f := startFollower(t, t.TempDir(), addr)
	waitConverged(t, p, f)
	for _, rec := range f.Journal().Records() {
		if rec.ID == "chip-3" || rec.ID == "chip-7" {
			t.Fatalf("deleted chip leaked into follower: %+v", rec)
		}
	}
	if err := p.AppendBatch(ctx, []store.Record{{Op: store.OpStress, ID: "chip-1", Hours: 2}}); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, p, f)
}

func TestFollowerReconnectConverges(t *testing.T) {
	p, addr := startPrimary(t, ModeAsync, nil)
	ctx := context.Background()
	dir := t.TempDir()
	for i := 0; i < 5; i++ {
		if err := p.AppendBatch(ctx, []store.Record{crec(fmt.Sprintf("c%d", i), uint64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	f := startFollower(t, dir, addr)
	waitConverged(t, p, f)
	// Partition: the follower goes away entirely while the primary
	// keeps mutating (including a delete, so the resync must shrink
	// the follower's history, not just extend it).
	f.Close()
	for i := 0; i < 5; i++ {
		if err := p.AppendBatch(ctx, []store.Record{{Op: store.OpStress, ID: "c1", Hours: 1}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.AppendBatch(ctx, []store.Record{{Op: store.OpDelete, ID: "c2"}}); err != nil {
		t.Fatal(err)
	}
	waitDisconnected(t, p)
	// Rejoin on the same data directory, as after a follower restart.
	f2 := startFollower(t, dir, addr)
	waitConverged(t, p, f2)
	if st := f2.ReplStats(); st.Snapshots != 1 {
		t.Fatalf("reconnect did not resync: %+v", st)
	}
}

func waitDisconnected(t *testing.T, p *Primary) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for p.hasFollower() {
		if time.Now().After(deadline) {
			t.Fatal("primary never noticed the follower leaving")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestSemiSyncGating(t *testing.T) {
	p, addr := startPrimary(t, ModeSemiSync, nil)
	ctx := context.Background()
	// No follower: refuse before writing anything.
	if err := p.AppendBatch(ctx, []store.Record{crec("x", 1)}); !errors.Is(err, ErrNoFollower) {
		t.Fatalf("append without follower: %v, want ErrNoFollower", err)
	}
	if len(p.Records()) != 0 {
		t.Fatal("refused append left a record behind")
	}
	if err := p.Probe(); !errors.Is(err, ErrNoFollower) {
		t.Fatalf("probe without follower: %v, want ErrNoFollower", err)
	}
	if st := p.ReplStats(); st.Refused == 0 {
		t.Fatalf("refused counter not bumped: %+v", st)
	}
	// An empty batch writes nothing, so there is nothing to refuse.
	if err := p.AppendBatch(ctx, nil); err != nil {
		t.Fatalf("empty batch without follower: %v", err)
	}

	f := startFollower(t, t.TempDir(), addr)
	// Wait until the primary sees the connection; then semisync
	// appends must succeed and be follower-durable by return.
	deadline := time.Now().Add(5 * time.Second)
	for !p.hasFollower() {
		if time.Now().After(deadline) {
			t.Fatal("follower never connected")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := p.Probe(); err != nil {
		t.Fatalf("probe with follower: %v", err)
	}
	for i := 0; i < 10; i++ {
		if err := p.AppendBatch(ctx, []store.Record{crec(fmt.Sprintf("y%d", i), uint64(i))}); err != nil {
			t.Fatalf("semisync append: %v", err)
		}
	}
	// The semisync contract: at the moment Append returned, the
	// follower had durably acked — no polling needed for the seqs.
	if got, want := f.Journal().Stats().LastSeq, p.Stats().LastSeq; got < want {
		t.Fatalf("follower seq %d behind primary %d after acked semisync appends", got, want)
	}
	// A batch is acked once the follower holds its last record.
	if err := p.AppendBatch(ctx, []store.Record{crec("b0", 1), crec("b1", 2), crec("b2", 3)}); err != nil {
		t.Fatalf("semisync batch: %v", err)
	}
	if got, want := f.Journal().Stats().LastSeq, p.Stats().LastSeq; got < want {
		t.Fatalf("follower seq %d behind primary %d after an acked semisync batch", got, want)
	}
	waitConverged(t, p, f)

	// Follower loss re-degrades the shard.
	f.Close()
	waitDisconnected(t, p)
	if err := p.AppendBatch(ctx, []store.Record{crec("z", 99)}); !errors.Is(err, ErrNoFollower) {
		t.Fatalf("append after follower loss: %v, want ErrNoFollower", err)
	}
}

func TestDroppedFrameForcesResync(t *testing.T) {
	var drops atomic.Int64
	drops.Store(1) // drop exactly one tail frame
	hook := func(size int) (bool, time.Duration, error) {
		if drops.Add(-1) >= 0 {
			return true, 0, nil
		}
		return false, 0, nil
	}
	p, addr := startPrimary(t, ModeAsync, hook)
	ctx := context.Background()
	if err := p.AppendBatch(ctx, []store.Record{crec("seed", 1)}); err != nil {
		t.Fatal(err)
	}
	f := startFollower(t, t.TempDir(), addr)
	waitConverged(t, p, f)
	// These tail frames hit the drop fault; the follower must detect
	// the gap and resync rather than silently diverge.
	for i := 0; i < 10; i++ {
		if err := p.AppendBatch(ctx, []store.Record{{Op: store.OpStress, ID: "seed", Hours: 1}}); err != nil {
			t.Fatal(err)
		}
	}
	waitConverged(t, p, f)
	// The follower counts the resync's snapshot after its ResetTo, so
	// convergence can be seen before the count.
	deadline := time.Now().Add(10 * time.Second)
	for st := f.ReplStats(); st.Gaps == 0 || st.Snapshots < 2; st = f.ReplStats() {
		if time.Now().After(deadline) {
			t.Fatalf("expected a gap-driven resync: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st := p.ReplStats(); st.DroppedFrames == 0 {
		t.Fatalf("drop hook never fired: %+v", st)
	}
}

func TestPrimaryAckTimeoutSurfacesTyped(t *testing.T) {
	// A partition hook that blackholes every tail frame after the
	// snapshot: the follower stays connected but acks never advance, so
	// a semisync append must fail with ErrAckTimeout after local commit.
	hook := func(size int) (bool, time.Duration, error) {
		return true, 0, nil
	}
	j, err := journal.Open(t.TempDir(), journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := NewPrimary(j, PrimaryConfig{NodeID: "prim", Mode: ModeSemiSync, AckTimeout: 300 * time.Millisecond, SendHook: hook})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go p.Serve(ln)
	defer p.Close()
	f := startFollower(t, t.TempDir(), ln.Addr().String())
	deadline := time.Now().Add(5 * time.Second)
	for !f.Connected() {
		if time.Now().After(deadline) {
			t.Fatal("follower never finished snapshot")
		}
		time.Sleep(5 * time.Millisecond)
	}
	err = p.AppendBatch(context.Background(), []store.Record{crec("x", 1)})
	if !errors.Is(err, ErrAckTimeout) || !errors.Is(err, store.ErrIndeterminate) {
		t.Fatalf("append under blackhole: %v, want ErrAckTimeout, an indeterminate commit", err)
	}
	// The record is locally durable — indeterminate, not lost.
	if len(p.Records()) != 1 {
		t.Fatalf("locally committed record missing: %+v", p.Records())
	}
}
