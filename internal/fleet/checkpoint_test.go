package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"selfheal/internal/engine"
	"selfheal/internal/journal"
	"selfheal/internal/repl"
	"selfheal/internal/rng"
	"selfheal/internal/store"
)

func openDurable(t testing.TB, dir string, opts store.JournalOptions) *Service {
	t.Helper()
	st, _, err := store.Open[*ChipEntry](dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewService(st)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// stateOf encodes chip id's state, tally included, as a checkpoint.
func stateOf(t testing.TB, s *Service, id string) []byte {
	t.Helper()
	e, ok := s.Get(id)
	if !ok {
		t.Fatalf("chip %q missing", id)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	b, err := e.checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// read takes chip id's next reading, as JSON so floats compare bit
// for bit.
func read(t testing.TB, s *Service, id string) string {
	t.Helper()
	op := BatchOpMeasure
	if e, _ := s.Get(id); e.kind == KindMonitored {
		op = BatchOpOdometer
	}
	r := s.Apply(context.Background(), OpSpec{Op: op, ID: id})
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestFailedCommitRollsBack is the reproduction of a refused write that
// still changed the die: chip c0 (seed 7) is stressed 24 h at 110 °C /
// 1.32 V and that commit fails, as a 503 degraded would report. The
// ops acked after it — measure, a 1 h stress, measure — must build on
// the state the journal holds, so the last acked reading is what a
// restart answers (before the rollback existed, 5,112 counts were acked
// and 5,163 replayed), and equals the reading of a chip that never saw
// the failed stress.
func TestFailedCommitRollsBack(t *testing.T) {
	dir := t.TempDir()
	var fail atomic.Bool
	s := openDurable(t, dir, store.JournalOptions{Hook: func(op string, line []byte) ([]byte, error) {
		if op == string(store.OpStress) && fail.CompareAndSwap(true, false) {
			return nil, errors.New("injected write failure")
		}
		return line, nil
	}})
	ref := newTestService(t)
	ctx := context.Background()
	for _, f := range []*Service{s, ref} {
		if _, err := f.Create(ctx, CreateSpec{ID: "c0", Seed: 7}); err != nil {
			t.Fatal(err)
		}
	}
	fail.Store(true)
	if _, err := s.Stress(ctx, "c0", PhaseRequest{TempC: 110, Vdd: 1.32, Hours: 24}); err == nil {
		t.Fatal("the stress commit did not fail")
	}
	if u := s.Usage()["c0"]; u.StressSeconds != 0 || u.Ops != 0 {
		t.Fatalf("usage after the failed stress = %+v, want none booked", u)
	}
	var acked string
	for _, f := range []*Service{s, ref} {
		read(t, f, "c0")
		if _, err := f.Stress(ctx, "c0", PhaseRequest{TempC: 110, Vdd: 1.32, Hours: 1}); err != nil {
			t.Fatal(err)
		}
		got := read(t, f, "c0")
		if f == s {
			acked = got
		} else if got != acked {
			t.Fatalf("acked read %s, a chip that never saw the failed stress reads %s", acked, got)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	restarted := openDurable(t, dir, store.JournalOptions{})
	defer restarted.Close()
	if got := read(t, restarted, "c0"); got != acked {
		t.Fatalf("last acked read %s, after a restart %s", acked, got)
	}
}

// TestAckTimeoutKeepsTheOp: a semisync commit whose follower ack times
// out is durable in the primary's journal all the same
// (store.ErrIndeterminate), so its op stays applied. Chip c0's
// checkpointEvery-th record, a stress carrying a checkpoint, times out
// behind a follower link that holds its frame back; the read acked
// after it, on the live primary, after a restart and on the promoted
// follower, agree bit for bit.
func TestAckTimeoutKeepsTheOp(t *testing.T) {
	pdir, fdir := t.TempDir(), t.TempDir()
	ctx := context.Background()
	s := openDurable(t, pdir, store.JournalOptions{})
	if _, err := s.Create(ctx, CreateSpec{ID: "c0", Seed: 7}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < checkpointEvery; i++ {
		if _, err := s.Stress(ctx, "c0", PhaseRequest{TempC: 85, Vdd: 1.2, Hours: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	const ackTimeout = 500 * time.Millisecond
	var holdBack atomic.Bool
	pj, err := journal.Open(pdir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	p := repl.NewPrimary(pj, repl.PrimaryConfig{
		NodeID: "prim", Mode: repl.ModeSemiSync, AckTimeout: ackTimeout, Logger: quiet,
		SendHook: func(int) (bool, time.Duration, error) {
			if holdBack.Load() {
				return false, 3 * ackTimeout, nil
			}
			return false, 0, nil
		},
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go p.Serve(ln)
	fj, err := journal.Open(fdir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	f := repl.NewFollower(fj, repl.FollowerConfig{NodeID: "fol", PrimaryAddr: ln.Addr().String(),
		RetryMin: 10 * time.Millisecond, RetryMax: 200 * time.Millisecond, Logger: quiet})
	f.Start()
	caughtUp := func() {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !f.Connected() || fj.Stats().LastSeq != pj.Stats().LastSeq {
			if time.Now().After(deadline) {
				t.Fatal("the follower never caught up")
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	caughtUp()
	primary, err := NewService(store.NewJournaled[*ChipEntry](store.NewMem[*ChipEntry](), p))
	if err != nil {
		t.Fatal(err)
	}
	holdBack.Store(true)
	_, err = primary.Stress(ctx, "c0", PhaseRequest{TempC: 110, Vdd: 1.32, Hours: 24})
	holdBack.Store(false)
	if !errors.Is(err, store.ErrIndeterminate) {
		t.Fatalf("stress behind a held-back follower: %v, want an indeterminate commit", err)
	}
	if recs := pj.Records(); len(recs) != 1 || !recs[0].Checkpoint() {
		t.Fatalf("want the timed-out stress, a checkpoint, as the only live record; have %d records", len(recs))
	}
	caughtUp()
	acked := read(t, primary, "c0")
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := primary.Close(); err != nil {
		t.Fatal(err)
	}
	for _, dir := range []string{pdir, fdir} {
		s := openDurable(t, dir, store.JournalOptions{})
		got := read(t, s, "c0")
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if got != acked {
			t.Fatalf("last acked read %s; replaying %s reads %s", acked, dir, got)
		}
	}
}

// inLogStore commits through the wrapped store and then, while fail is
// set, reports the commit as indeterminate, as a semisync primary
// whose follower ack timed out does.
type inLogStore struct {
	Store
	fail atomic.Bool
}

func (s *inLogStore) Commit(ctx context.Context, rec store.Record) error {
	if err := s.Store.Commit(ctx, rec); err != nil {
		return err
	}
	if s.fail.Load() {
		return fmt.Errorf("follower ack lost: %w", store.ErrIndeterminate)
	}
	return nil
}

// TestIndeterminateCommitsStayApplied: a create, quarantine, delete
// or stress whose commit is indeterminate stays applied, so a retried
// create finds the chip, the reads acked after the stress build on it,
// and a restart replays the fleet the live service holds. Rolled
// back, the retried create would journal a second create and the
// restart would fail.
func TestIndeterminateCommitsStayApplied(t *testing.T) {
	dir := t.TempDir()
	st, _, err := store.Open[*ChipEntry](dir, store.JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	in := &inLogStore{Store: st}
	s, err := NewService(in)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, id := range []string{"c1", "c2"} {
		if _, err := s.Create(ctx, CreateSpec{ID: id, Seed: 2}); err != nil {
			t.Fatal(err)
		}
	}
	in.fail.Store(true)
	if _, err := s.Create(ctx, CreateSpec{ID: "c0", Seed: 1}); !errors.Is(err, store.ErrIndeterminate) {
		t.Fatalf("create: %v, want an indeterminate commit", err)
	}
	if changed, err := s.Quarantine(ctx, "c0", "drift"); !changed || !errors.Is(err, store.ErrIndeterminate) {
		t.Fatalf("quarantine: %v, %v; want a change and an indeterminate commit", changed, err)
	}
	if existed, err := s.Delete(ctx, "c1"); !existed || !errors.Is(err, store.ErrIndeterminate) {
		t.Fatalf("delete: %v, %v; want an existing chip and an indeterminate commit", existed, err)
	}
	if _, err := s.Stress(ctx, "c2", PhaseRequest{TempC: 110, Vdd: 1.32, Hours: 24}); !errors.Is(err, store.ErrIndeterminate) {
		t.Fatalf("stress: %v, want an indeterminate commit", err)
	}
	in.fail.Store(false)
	var dup DuplicateError
	if _, err := s.Create(ctx, CreateSpec{ID: "c0", Seed: 1}); !errors.As(err, &dup) {
		t.Fatalf("retried create: %v, want a DuplicateError", err)
	}
	read(t, s, "c2")
	if _, err := s.Stress(ctx, "c2", PhaseRequest{TempC: 110, Vdd: 1.32, Hours: 1}); err != nil {
		t.Fatal(err)
	}
	acked := read(t, s, "c2")
	want := fmt.Sprint(s.List(), s.QuarantinedIDs())
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	restarted := openDurable(t, dir, store.JournalOptions{})
	defer restarted.Close()
	if got := fmt.Sprint(restarted.List(), restarted.QuarantinedIDs()); got != want {
		t.Fatalf("live fleet %s, after a restart %s", want, got)
	}
	if got := read(t, restarted, "c2"); got != acked {
		t.Fatalf("last acked read %s, after a restart %s", acked, got)
	}
}

// fleetHistory drives a seeded mix of AC and DC stress, sleep at 0 V
// and −0.3 V, and reads, n ops on each of the chips ids, each chip's
// last op a phase.
func fleetHistory(s *Service, seed uint64, n int, ids ...string) error {
	ctx := context.Background()
	src := rng.New(seed)
	for _, id := range ids {
		e, ok := s.Get(id)
		if !ok {
			return NotFoundError{ID: id}
		}
		for i := 0; i < n; i++ {
			op := OpSpec{ID: id, PhaseRequest: PhaseRequest{
				TempC: []float64{20, 85, 110}[src.Intn(3)], Hours: []float64{0.5, 1, 3}[src.Intn(3)],
			}}
			switch k := src.Intn(3); {
			case k == 0 || i == n-1:
				op.Op, op.Vdd, op.AC = BatchOpStress, []float64{1.0, 1.2, 1.32}[src.Intn(3)], src.Bernoulli(0.5)
				if src.Bernoulli(0.3) {
					op.SampleHours = 0.5
				}
			case k == 1:
				op.Op, op.Vdd = BatchOpRejuvenate, []float64{0, -0.3}[src.Intn(2)]
			case e.kind == KindMonitored:
				op.Op = BatchOpOdometer
			default:
				op.Op = BatchOpMeasure
			}
			if r := s.Apply(ctx, op); r.Err != nil {
				return r.Err
			}
		}
	}
	return nil
}

// replayStore replays a fixed history over an in-memory table.
type replayStore struct {
	Store
	recs []store.Record
}

func (r *replayStore) Replay() []store.Record { return r.recs }

// recordingStore keeps every record committed through it.
type recordingStore struct {
	Store
	mu   sync.Mutex
	recs []store.Record
}

func (r *recordingStore) Commit(ctx context.Context, rec store.Record) error {
	if err := r.Store.Commit(ctx, rec); err != nil {
		return err
	}
	r.mu.Lock()
	r.recs = append(r.recs, rec)
	r.mu.Unlock()
	return nil
}

// TestCheckpointReplayEqualsFullReplay: a restart replays each chip's
// newest checkpoint plus the records after it, and lands on the state
// the live fleet holds and a full re-simulation of the same history
// (every checkpoint ignored) reaches, bit for bit; the next readings
// agree too. The first read after a restart repeats the last one
// before it.
func TestCheckpointReplayEqualsFullReplay(t *testing.T) {
	for seed := uint64(1); seed <= 2; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			dir := t.TempDir()
			st, _, err := store.Open[*ChipEntry](dir, store.JournalOptions{})
			if err != nil {
				t.Fatal(err)
			}
			rec := &recordingStore{Store: st}
			live, err := NewService(rec)
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			if _, err := live.Create(ctx, CreateSpec{ID: "c0", Seed: seed}); err != nil {
				t.Fatal(err)
			}
			if _, err := live.Create(ctx, CreateSpec{ID: "m0", Seed: seed + 10, Kind: KindMonitored}); err != nil {
				t.Fatal(err)
			}
			if err := fleetHistory(live, seed, 3*checkpointEvery+5, "c0", "m0"); err != nil {
				t.Fatal(err)
			}

			var full []store.Record
			ckpts := 0
			for _, r := range rec.recs {
				if r.Checkpoint() {
					ckpts++
				}
				r.State = nil
				full = append(full, r)
			}
			if ckpts < 4 {
				t.Fatalf("%d checkpoints in %d records", ckpts, len(full))
			}
			resim, err := NewService(&replayStore{Store: store.NewMem[*ChipEntry](), recs: full})
			if err != nil {
				t.Fatal(err)
			}
			if err := live.Close(); err != nil {
				t.Fatal(err)
			}
			restarted := openDurable(t, dir, store.JournalOptions{})
			if n := restarted.ReplayedRecords(); n >= 2*checkpointEvery {
				t.Fatalf("restart replayed %d records, want fewer than %d", n, 2*checkpointEvery)
			}
			for _, id := range []string{"c0", "m0"} {
				want := stateOf(t, live, id)
				if got := stateOf(t, restarted, id); !bytes.Equal(got, want) {
					t.Fatalf("%s: checkpoint-plus-tail state differs from the live one", id)
				}
				if got := stateOf(t, resim, id); !bytes.Equal(got, want) {
					t.Fatalf("%s: full re-simulation differs from the live state", id)
				}
				next := read(t, restarted, id)
				if got := read(t, resim, id); got != next {
					t.Fatalf("%s: next reading %s after the restart, %s after full replay", id, next, got)
				}
				if err := restarted.Close(); err != nil {
					t.Fatal(err)
				}
				restarted = openDurable(t, dir, store.JournalOptions{})
				if got := read(t, restarted, id); got != next {
					t.Fatalf("%s: first read after a restart %s, last read before it %s", id, got, next)
				}
			}
			restarted.Close()
		})
	}
}

// TestTornCheckpointLine: a crash that tears the line carrying a
// checkpoint leaves the records it would have superseded live, so the
// chip replays to its state before the torn op.
func TestTornCheckpointLine(t *testing.T) {
	dir := t.TempDir()
	s := openDurable(t, dir, store.JournalOptions{})
	ref := newTestService(t)
	ctx := context.Background()
	phase := PhaseRequest{TempC: 110, Vdd: 1.2, Hours: 1}
	for _, f := range []*Service{s, ref} {
		if _, err := f.Create(ctx, CreateSpec{ID: "c0", Seed: 3}); err != nil {
			t.Fatal(err)
		}
		for i := 1; i < checkpointEvery; i++ {
			if _, err := f.Stress(ctx, "c0", phase); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := stateOf(t, ref, "c0")
	if _, err := s.Stress(ctx, "c0", phase); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(dir, "journal.log")
	raw, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	last := bytes.LastIndexByte(raw[:len(raw)-1], '\n') + 1
	if !bytes.Contains(raw[last:], []byte(`"state":`)) {
		t.Fatalf("the last journal line is no checkpoint: %.120s", raw[last:])
	}
	if err := os.WriteFile(logPath, raw[:last+(len(raw)-last)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	restarted := openDurable(t, dir, store.JournalOptions{})
	defer restarted.Close()
	if n := restarted.ReplayedRecords(); n != checkpointEvery {
		t.Fatalf("replayed %d records, want the create and %d stresses", n, checkpointEvery-1)
	}
	if got := stateOf(t, restarted, "c0"); !bytes.Equal(got, want) {
		t.Fatal("state after the torn checkpoint differs from the state before its op")
	}
}

// parentExpected is testdata/parent-journal/expected.json: what the
// fleet and engine answered after replaying the journal with the code
// before checkpoints existed.
type parentExpected struct {
	Usage  map[string]ChipUsage `json:"usage"`
	Next   map[string][]any     `json:"next"`
	Engine map[string]float64   `json:"engine_vth"`
	Epoch  uint64               `json:"engine_epoch"`
}

// TestParentJournalReplays opens a journal written before checkpoints
// existed — bench and monitored chips, reads, a quarantine and release,
// a deleted chip, engine twins of every fleet chip, an engine-native
// chip and epoch records, compacted once mid-history — and replays it
// to the usage, next readings and engine shifts the old code gave, bit
// for bit. Bench chips go on to a 1 h stress, monitored ones too, and
// read again; then every chip is stressed until it checkpoints, and
// each checkpoint must decode and re-encode to itself.
func TestParentJournalReplays(t *testing.T) {
	raw, err := os.ReadFile("testdata/parent-journal/expected.json")
	if err != nil {
		t.Fatal(err)
	}
	var want parentExpected
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, f := range []string{"snapshot.json", "journal.log"} {
		b, err := os.ReadFile(filepath.Join("testdata/parent-journal", f))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, f), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st, _, err := store.Open[*ChipEntry](dir, store.JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	s, err := NewService(st)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(st, engine.Config{EpochHours: 0.5, FlushEpochs: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx := context.Background()
	got := parentExpected{Usage: s.Usage(), Next: map[string][]any{}, Engine: map[string]float64{}}
	var ids []string
	for id := range got.Usage {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	phase := PhaseRequest{TempC: 110, Vdd: 1.2, Hours: 1}
	for _, id := range ids {
		if got.Usage[id].Kind == KindBench {
			r1, err := s.Measure(ctx, id)
			if err != nil {
				t.Fatal(err)
			}
			p, err := s.Stress(ctx, id, PhaseRequest{TempC: 110, Vdd: 1.2, Hours: 1, SampleHours: 0.5})
			if err != nil {
				t.Fatal(err)
			}
			r2, err := s.Measure(ctx, id)
			if err != nil {
				t.Fatal(err)
			}
			got.Next[id] = []any{r1, p, r2}
			continue
		}
		r1, err := s.Odometer(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Stress(ctx, id, phase); err != nil {
			t.Fatal(err)
		}
		r2, err := s.Odometer(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		got.Next[id] = []any{r1, r2}
	}
	snap := eng.Snapshot()
	got.Epoch = snap.Epoch
	for id := range want.Engine {
		v, ok := snap.Chip(id)
		if !ok {
			t.Fatalf("engine chip %s missing after replay", id)
		}
		got.Engine[id] = v.VthShift
	}
	// Through JSON and back, so both sides hold the readings as maps.
	raw, err = json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	got = parentExpected{}
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	gb, _ := json.MarshalIndent(got, "", "  ")
	wb, _ := json.MarshalIndent(want, "", "  ")
	if !bytes.Equal(gb, wb) {
		t.Fatalf("replay of the parent journal differs:\n got %s\nwant %s", gb, wb)
	}

	// Stressed until each checkpoints, the chips write checkpoints that
	// decode and re-encode to the same bytes.
	for _, id := range ids {
		for i := 0; i < checkpointEvery; i++ {
			if _, err := s.Stress(ctx, id, phase); err != nil {
				t.Fatal(err)
			}
		}
	}
	n := 0
	for _, rec := range st.Replay() {
		if !rec.Checkpoint() {
			continue
		}
		n++
		var cs chipState
		if err := cs.decode(rec.Kind, rec.State); err != nil {
			t.Fatalf("%s: %v", rec.ID, err)
		}
		if again, err := cs.encode(rec.Kind); err != nil || !bytes.Equal(again, rec.State) {
			t.Fatalf("%s: the checkpoint re-encodes to different bytes (%v)", rec.ID, err)
		}
	}
	if n != len(ids) {
		t.Fatalf("%d checkpoints for %d chips", n, len(ids))
	}
}

// checkpointSeeds returns a bench and a monitored checkpoint with
// readings and every transistor class kind in them.
func checkpointSeeds(t testing.TB) (bench, mon []byte) {
	s, err := NewService(store.NewMem[*ChipEntry]())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := s.Create(ctx, CreateSpec{ID: "c0", Seed: 7}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create(ctx, CreateSpec{ID: "m0", Seed: 7, Kind: KindMonitored}); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"c0", "m0"} {
		if _, err := s.Stress(ctx, id, PhaseRequest{TempC: 110, Vdd: 1.2, Hours: 24, SampleHours: 12}); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Rejuvenate(ctx, id, PhaseRequest{TempC: 110, Vdd: -0.3, Hours: 6}); err != nil {
			t.Fatal(err)
		}
		read(t, s, id)
	}
	return stateOf(t, s, "c0"), stateOf(t, s, "m0")
}

// FuzzChipStateDecode feeds arbitrary bytes to the checkpoint decoder,
// as a damaged journal could. Decoding must fail with an error or
// accept bytes that re-encode to themselves; it must never panic.
func FuzzChipStateDecode(f *testing.F) {
	bench, mon := checkpointSeeds(f)
	f.Add(bench, false)
	f.Add(mon, true)
	f.Add(bench[:len(bench)/2], false)
	f.Add(mon, false)
	f.Add([]byte{}, true)
	f.Fuzz(func(t *testing.T, data []byte, monitored bool) {
		kind := KindBench
		if monitored {
			kind = KindMonitored
		}
		var st chipState
		if err := st.decode(kind, data); err != nil {
			return
		}
		again, err := st.encode(kind)
		if err != nil {
			t.Fatalf("accepted checkpoint does not re-encode: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("re-encoding changed the checkpoint:\n got %x\nwant %x", again, data)
		}
	})
}

// TestCheckpointDecodeRefusesDamage: truncations, a flipped version and
// an out-of-range class index all come back as errors.
func TestCheckpointDecodeRefusesDamage(t *testing.T) {
	bench, _ := checkpointSeeds(t)
	var st chipState
	if err := st.decode(KindBench, bench); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(bench); n += 97 {
		if err := st.decode(KindBench, bench[:n]); err == nil {
			t.Fatalf("a checkpoint cut to %d of %d bytes decoded", n, len(bench))
		}
	}
	bad := append([]byte(nil), bench...)
	bad[0] = 9
	if err := st.decode(KindBench, bad); err == nil {
		t.Fatal("an unknown version decoded")
	}
	bad = append([]byte(nil), bench...)
	// The head is 58 bytes, the die's version and kind 2, its
	// transistor and class counts 8: the first class index follows.
	bad[58+2+8] = 0xff
	if err := st.decode(KindBench, bad); err == nil {
		t.Fatal("a class index past the class count decoded")
	}
	if err := st.decode(KindMonitored, bench); err == nil {
		t.Fatal("a bench checkpoint decoded as a monitored one")
	}
}

// TestReplicaOverPrunedHistory: a follower resynced from a primary's
// pruned history (ResetTo) and then fed its tail (AppendReplica), new
// checkpoints included, holds the primary's live history and replays
// the same fleet.
func TestReplicaOverPrunedHistory(t *testing.T) {
	pdir, fdir := t.TempDir(), t.TempDir()
	pj, err := journal.Open(pdir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer pj.Close()
	var tail []store.Record
	var mu sync.Mutex
	pj.SetOnCommit(func(batch []store.Record) {
		mu.Lock()
		tail = append(tail, batch...)
		mu.Unlock()
	})
	primary, err := NewService(store.NewJournaled[*ChipEntry](store.NewMem[*ChipEntry](), pj))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := primary.Create(ctx, CreateSpec{ID: "c0", Seed: 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := primary.Create(ctx, CreateSpec{ID: "m0", Seed: 14, Kind: KindMonitored}); err != nil {
		t.Fatal(err)
	}
	if err := fleetHistory(primary, 4, checkpointEvery+3, "c0", "m0"); err != nil {
		t.Fatal(err)
	}

	fj, err := journal.Open(fdir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	snap := pj.Records()
	if len(snap) >= 2*checkpointEvery {
		t.Fatalf("primary's live history holds %d records", len(snap))
	}
	if err := fj.ResetTo(snap, pj.Stats().LastSeq); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	tail = tail[:0]
	mu.Unlock()
	if err := fleetHistory(primary, 5, checkpointEvery+3, "c0", "m0"); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	batch := append([]store.Record(nil), tail...)
	mu.Unlock()
	if err := fj.AppendReplica(ctx, batch); err != nil {
		t.Fatal(err)
	}
	pr, fr := pj.Records(), fj.Records()
	pb, _ := json.Marshal(pr)
	fb, _ := json.Marshal(fr)
	if !bytes.Equal(pb, fb) {
		t.Fatalf("follower holds %d live records, primary %d, or they differ", len(fr), len(pr))
	}
	if err := fj.Close(); err != nil {
		t.Fatal(err)
	}
	promoted := openDurable(t, fdir, store.JournalOptions{})
	defer promoted.Close()
	for _, id := range []string{"c0", "m0"} {
		if !bytes.Equal(stateOf(t, promoted, id), stateOf(t, primary, id)) {
			t.Fatalf("%s: the promoted follower's state differs from the primary's", id)
		}
	}
}

// TestConcurrentCheckpoints drives checkpointing chips from several
// goroutines while another reads the live history and background
// compactions run, then restarts: every chip replays to its live
// state. Run it under -race.
func TestConcurrentCheckpoints(t *testing.T) {
	dir := t.TempDir()
	st, _, err := store.Open[*ChipEntry](dir, store.JournalOptions{CompactEvery: 48})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewService(st)
	if err != nil {
		t.Fatal(err)
	}
	ids := []string{"c0", "c1", "m0", "m1"}
	for i, id := range ids {
		kind := KindBench
		if id[0] == 'm' {
			kind = KindMonitored
		}
		if _, err := s.Create(context.Background(), CreateSpec{ID: id, Seed: uint64(i), Kind: kind}); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			st.Replay()
			st.Stats()
		}
	}()
	var writers sync.WaitGroup
	errs := make([]error, len(ids))
	for i, id := range ids {
		writers.Add(1)
		go func(i int, id string) {
			defer writers.Done()
			errs[i] = fleetHistory(s, uint64(i+20), 2*checkpointEvery+7, id)
		}(i, id)
	}
	writers.Wait()
	close(done)
	readers.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	restarted := openDurable(t, dir, store.JournalOptions{})
	defer restarted.Close()
	for _, id := range ids {
		if !bytes.Equal(stateOf(t, restarted, id), stateOf(t, s, id)) {
			t.Fatalf("%s: replayed state differs from the live one", id)
		}
	}
}
