package engine

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"

	"selfheal/internal/journal"
	"selfheal/internal/store"
	"selfheal/internal/td"
)

// chipDump is one chip's whole engine state, floats as their bits.
// Corner is the active then the stress corner (tempC, vdd, sTempC,
// sVdd); Next is the epoch of the chip's scheduled transition.
type chipDump struct {
	ID     string                `json:"id"`
	Fleet  bool                  `json:"fleet,omitempty"`
	State  [td.StateWords]uint64 `json:"state"`
	Duty   uint64                `json:"duty"`
	Odo    uint64                `json:"odo"`
	Phase  uint8                 `json:"phase"`
	Corner [4]uint64             `json:"corner"`
	Sched  Schedule              `json:"sched"`
	Next   uint64                `json:"next,omitempty"`
}

// engineDump is an engine's whole state, chips sorted by id.
type engineDump struct {
	Epoch    uint64     `json:"epoch"`
	SimHours uint64     `json:"sim_hours"`
	Chips    []chipDump `json:"chips"`
}

func dumpEngine(e *Engine) engineDump {
	e.tickMu.Lock()
	defer e.tickMu.Unlock()
	d := engineDump{Epoch: e.epoch, SimHours: math.Float64bits(e.simHours)}
	b := math.Float64bits
	for _, p := range e.parts {
		for i := range p.meta {
			m := &p.meta[i]
			st := p.batch.ExportState(i)
			d.Chips = append(d.Chips, chipDump{
				ID: m.id, Fleet: m.fleet, State: st.Words(), Duty: b(p.batch.Duty(i)), Odo: p.odo[i],
				Phase: m.phase, Corner: [4]uint64{b(m.tempC), b(m.vdd), b(m.sTempC), b(m.sVdd)},
				Sched: m.sched, Next: m.next,
			})
		}
	}
	sort.Slice(d.Chips, func(i, j int) bool { return d.Chips[i].ID < d.Chips[j].ID })
	return d
}

// sameDump fails unless got equals want field for field.
func sameDump(t *testing.T, what string, got, want engineDump) {
	t.Helper()
	if got.Epoch != want.Epoch || got.SimHours != want.SimHours || len(got.Chips) != len(want.Chips) {
		t.Fatalf("%s: epoch %d, hours %x, %d chips; want epoch %d, hours %x, %d chips",
			what, got.Epoch, got.SimHours, len(got.Chips), want.Epoch, want.SimHours, len(want.Chips))
	}
	for i := range want.Chips {
		if !reflect.DeepEqual(got.Chips[i], want.Chips[i]) {
			t.Fatalf("%s: chip %+v, want %+v", what, got.Chips[i], want.Chips[i])
		}
	}
}

// flush journals the engine's pending epochs, as a write would.
func flush(t *testing.T, e *Engine) {
	t.Helper()
	e.tickMu.Lock()
	defer e.tickMu.Unlock()
	if err := e.flushLocked(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// mustWrite fails t on a write's error or any item's.
func mustWrite(t testing.TB) func([]RegResult, error) {
	return func(res []RegResult, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res {
			if r.Err != nil {
				t.Fatalf("%s: %v", r.ID, r.Err)
			}
		}
	}
}

// recordingStore keeps every record committed through it, in commit
// order: the full history, which the journal no longer holds once a
// checkpoint supersedes it.
type recordingStore struct {
	store.Store[any]
	mu  sync.Mutex
	all []store.Record
}

func (s *recordingStore) Commit(ctx context.Context, rec store.Record) error {
	return s.CommitBatch(ctx, []store.Record{rec})
}

func (s *recordingStore) CommitBatch(ctx context.Context, recs []store.Record) error {
	err := s.Store.CommitBatch(ctx, recs)
	if err == nil {
		s.mu.Lock()
		s.all = append(s.all, recs...)
		s.mu.Unlock()
	}
	return err
}

// listJournal replays a fixed record list and commits nothing.
type listJournal struct{ recs []store.Record }

func (l listJournal) Commit(context.Context, store.Record) error        { return nil }
func (l listJournal) CommitBatch(context.Context, []store.Record) error { return nil }
func (l listJournal) Replay() []store.Record                            { return l.recs }
func (l listJournal) Durable() bool                                     { return false }

// historyConds is the condition mix of the seeded histories' changes.
var historyConds = []Cond{
	{TempC: 80, Vdd: 1.2, Duty: 1},
	{TempC: 80, Vdd: 1.2, Duty: 0.5},
	{TempC: 105, Vdd: 1.32, Duty: 1},
	{Phase: PhaseSleepName, TempC: 45, Vdd: -0.25, Duty: 1},
	{Phase: PhaseSleepName, TempC: 110, Vdd: -0.3, Duty: 0.75},
}

// fleetTwin is a fleet chip's engine registration.
func fleetTwin(id string) Spec {
	return Spec{ID: id, Kind: KindFleet, TempC: 80, Vdd: 1.2, Duty: 1}
}

// driveHistory runs a seeded history of the given number of epochs
// (at least 1,000) over 300 chips of the five-way mix and two fleet
// twins, committing the fleet's own create and delete records through
// st: schedules mid-cycle across the wheel's level-1 cascades at
// epochs 256 and 512, replaced and cancelled schedules that leave
// stale wheel items, condition changes every 37 epochs, engine-native
// chips removed, and registered again with a stale item of the old
// schedule outstanding, before and after the newest checkpoint, fleet
// twins deleted between checkpoints, after the newest one, and after it
// created again, and ids reused across kinds after the newest
// checkpoint: a fleet chip deleted and registered again as an
// engine-native chip, and an engine-native chip removed, then created
// and deleted as a fleet chip. It returns the fleet's chips.
func driveHistory(t *testing.T, e *Engine, st store.Store[any], seed int64, epochs int) []string {
	t.Helper()
	ctx := context.Background()
	specs := make([]Spec, 300)
	for i := range specs {
		specs[i] = mixSpec(i, fmt.Sprintf("c%03d", i))
	}
	mustWrite(t)(e.RegisterBatch(ctx, specs))
	fleetDelete := func(id string) {
		if err := st.Commit(ctx, store.Record{Op: store.OpDelete, ID: id}); err != nil {
			t.Fatal(err)
		}
		if err := e.ObserveFleetDelete(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	fleetCreate := func(id string) {
		if err := st.Commit(ctx, store.Record{Op: store.OpCreate, ID: id, Seed: 1, Kind: "bench"}); err != nil {
			t.Fatal(err)
		}
		mustWrite(t)(e.RegisterBatch(ctx, []Spec{fleetTwin(id)}))
	}
	for _, id := range []string{"f0", "f1", "f2", "f3"} {
		fleetCreate(id)
	}
	schedule := func(id string, s Schedule) {
		mustWrite(t)(e.SetScheduleBatch(ctx, []SchedChange{{ID: id, Schedule: s}}))
	}
	r := rand.New(rand.NewSource(seed))
	removed := map[string]bool{}
	for ep := 1; ep <= epochs; ep++ {
		switch ep {
		case 200: // at 500: booked on level 1, cascades at 256
			schedule("c000", Schedule{StressEpochs: 300, SleepEpochs: 40, SleepTempC: 110, SleepVdd: -0.3})
		case 230: // replaces the mix's 16/8 cycle: a stale item
			schedule("c003", Schedule{StressEpochs: 20, SleepEpochs: 10, SleepTempC: 60, SleepVdd: 0})
		case 240: // cancels one: a stale item
			schedule("c008", Schedule{})
		case 400: // at 700: booked on level 1, cascades at 512
			schedule("c001", Schedule{StressEpochs: 300, SleepEpochs: 500, SleepTempC: 60, SleepVdd: 0})
		case 600:
			if err := e.Remove(ctx, "c002"); err != nil {
				t.Fatal(err)
			}
			removed["c002"] = true
		case 650:
			mustWrite(t)(e.RegisterBatch(ctx, []Spec{{ID: "c002", TempC: 95, Vdd: 1.25, Duty: 0.8,
				Schedule: &Schedule{StressEpochs: 30, SleepEpochs: 30, SleepTempC: 110, SleepVdd: -0.3}}}))
			delete(removed, "c002")
		case 761: // its 16/8 item, due at 768, goes stale
			if err := e.Remove(ctx, "c013"); err != nil {
				t.Fatal(err)
			}
		case 762:
			mustWrite(t)(e.RegisterBatch(ctx, []Spec{mixSpec(13, "c013")}))
		case 800: // between checkpoints
			fleetDelete("f0")
		case 1030: // after the newest checkpoint: registered again at 1035
			if err := e.Remove(ctx, "c021"); err != nil {
				t.Fatal(err)
			}
			removed["c021"] = true
		case 1035:
			mustWrite(t)(e.RegisterBatch(ctx, []Spec{mixSpec(3, "c021")}))
			delete(removed, "c021")
		case 1070: // after the newest checkpoint, for good
			if err := e.Remove(ctx, "c022"); err != nil {
				t.Fatal(err)
			}
			removed["c022"] = true
		case 1036: // in the newest checkpoint; a fleet chip at 1042-1048
			if err := e.Remove(ctx, "c030"); err != nil {
				t.Fatal(err)
			}
			removed["c030"] = true
		case 1038: // in the newest checkpoint; engine-native from 1044
			fleetDelete("f3")
		case 1040: // after the newest checkpoint, created again at 1060
			fleetDelete("f1")
		case 1042:
			fleetCreate("c030")
		case 1044:
			mustWrite(t)(e.RegisterBatch(ctx, []Spec{mixSpec(4, "f3")}))
		case 1048:
			fleetDelete("c030")
		case 1050: // after the newest checkpoint
			fleetDelete("f2")
		case 1060:
			fleetCreate("f1")
		}
		if ep%37 == 0 {
			seen := map[string]bool{}
			var ch []CondChange
			for k := 0; k < 4; k++ {
				id := fmt.Sprintf("c%03d", r.Intn(len(specs)))
				if seen[id] || removed[id] {
					continue
				}
				seen[id] = true
				ch = append(ch, CondChange{ID: id, Cond: historyConds[r.Intn(len(historyConds))]})
			}
			mustWrite(t)(e.SetConditionBatch(ctx, ch))
		}
		if ep%53 == 0 {
			id := fmt.Sprintf("c%03d", r.Intn(len(specs)))
			s := Schedule{StressEpochs: uint64(1 + r.Intn(600)), SleepEpochs: uint64(1 + r.Intn(300)), SleepTempC: 110, SleepVdd: -0.3}
			if r.Intn(4) == 0 {
				s = Schedule{}
			}
			if !removed[id] {
				schedule(id, s)
			}
		}
		e.Tick(ctx)
	}
	return []string{"f1"}
}

// stripCheckpoints turns every checkpoint group of recs, a whole
// history, into the epoch record of the flush window it stands in for:
// the epochs from those recorded before it to the epoch count its
// encoding starts with, each of the given hours.
func stripCheckpoints(recs []store.Record, hours float64) []store.Record {
	var out []store.Record
	var total, ckptEpoch uint64
	open := false
	for _, r := range recs {
		switch r.Op {
		case store.OpEngineCheckpoint:
			if !open {
				ckptEpoch = binary.LittleEndian.Uint64(r.State[1:9])
				open = true
			}
			if r.Final {
				out = append(out, store.Record{Seq: r.Seq, Op: store.OpEngineEpoch, Epochs: ckptEpoch - total, Hours: hours})
				total, open = ckptEpoch, false
			}
			continue
		case store.OpEngineEpoch:
			total += r.Epochs
		}
		out = append(out, r)
	}
	return out
}

// countCheckpoints counts the complete checkpoint groups in recs.
func countCheckpoints(recs []store.Record) int {
	n := 0
	for _, r := range recs {
		if r.Op == store.OpEngineCheckpoint && r.Final {
			n++
		}
	}
	return n
}

// TestEngineCheckpointReplayEqualsFullReplay: over seeded histories of
// 1,100 epochs, at FlushEpochs 1 and 16, the engine that restores the
// newest checkpoint and replays its tail, the engine that replays the
// full history with every checkpoint stripped, and the live engine
// hold the same state to the bit — every td.State word, duty,
// odometer, phase, corner, schedule and next transition, the epoch and
// simHours — and still do after 300 more epochs. The journal on disk
// replays to it too.
func TestEngineCheckpointReplayEqualsFullReplay(t *testing.T) {
	for _, flushEvery := range []int{1, 16} {
		t.Run(fmt.Sprintf("flush=%d", flushEvery), func(t *testing.T) {
			ctx := context.Background()
			dir := t.TempDir()
			cfg := Config{EpochHours: 0.5, Workers: 2, FlushEpochs: flushEvery}
			inner, _, err := store.Open[any](dir, store.JournalOptions{})
			if err != nil {
				t.Fatal(err)
			}
			st := &recordingStore{Store: inner}
			live, err := New(st, cfg)
			if err != nil {
				t.Fatal(err)
			}
			fleet := driveHistory(t, live, st, int64(7+flushEvery), 1100)
			flush(t, live)

			tail := st.Replay()
			full := stripCheckpoints(st.all, cfg.EpochHours)
			if n := countCheckpoints(st.all); n != 4 {
				t.Fatalf("%d checkpoints over 1,100 epochs, want 4", n)
			}
			if n := countCheckpoints(tail); n != 1 || len(tail) > 200 {
				t.Fatalf("live history holds %d records and %d checkpoints, want one checkpoint and its tail", len(tail), n)
			}
			restored, err := New(listJournal{tail}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer restored.Close()
			resim, err := New(listJournal{full}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer resim.Close()
			if got := restored.Stats().ReplayedEpochs; got >= checkpointEvery {
				t.Fatalf("checkpoint replay re-ran %d epochs, want fewer than %d", got, checkpointEvery)
			}
			if got := resim.Stats().ReplayedEpochs; got != 1100 {
				t.Fatalf("full replay re-ran %d epochs, want 1100", got)
			}
			engines := map[string]*Engine{"checkpoint plus tail": restored, "full replay": resim}
			for _, e := range []*Engine{live, restored, resim} {
				mustWrite(t)(e.SyncFleet(ctx, fleet, fleetTwin("")))
			}
			want := dumpEngine(live)
			for name, e := range engines {
				sameDump(t, name, dumpEngine(e), want)
			}

			for ep := 0; ep < 300; ep++ {
				for _, e := range []*Engine{live, restored, resim} {
					if ep == 100 {
						mustWrite(t)(e.SetConditionBatch(ctx, []CondChange{{ID: "c000", Cond: historyConds[4]}}))
						mustWrite(t)(e.SetScheduleBatch(ctx, []SchedChange{{ID: "c005", Schedule: Schedule{StressEpochs: 7, SleepEpochs: 3, SleepTempC: 110, SleepVdd: -0.3}}}))
					}
					e.Tick(ctx)
				}
			}
			want = dumpEngine(live)
			for name, e := range engines {
				sameDump(t, name+", 300 epochs on", dumpEngine(e), want)
			}

			// The disk path: close, reopen, restore, sync the fleet.
			if err := live.Close(); err != nil {
				t.Fatal(err)
			}
			if err := inner.Close(); err != nil {
				t.Fatal(err)
			}
			reopened, _, err := store.Open[any](dir, store.JournalOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer reopened.Close()
			disk, err := New(reopened, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer disk.Close()
			mustWrite(t)(disk.SyncFleet(ctx, fleet, fleetTwin("")))
			sameDump(t, "reopened journal", dumpEngine(disk), want)
		})
	}
}

// TestEngineParentJournalReplays holds the replay of a journal written
// by the engine before checkpoints existed (testdata/parent-journal:
// 1,100 epochs over 200 chips of the five-way mix and a fleet twin,
// with schedule, condition and membership changes) to the state that
// engine reached, which it recorded in expected.json, and checks the
// checkpoint it then writes decodes to itself. Never regenerate the
// journal with current code.
func TestEngineParentJournalReplays(t *testing.T) {
	src := filepath.Join("testdata", "parent-journal")
	dir := t.TempDir()
	for _, name := range []string{"journal.log", "snapshot.json"} {
		b, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(filepath.Join(src, "expected.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want engineDump
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	st, _, err := store.Open[any](dir, store.JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	e, err := New(st, Config{EpochHours: 0.5, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if got := e.Stats().ReplayedEpochs; got != 1100 {
		t.Fatalf("replayed %d epochs, want 1100", got)
	}
	sameDump(t, "parent journal", dumpEngine(e), want)

	// The next flush commits a checkpoint, which restores into a fresh
	// engine that encodes to the same bytes.
	e.Tick(context.Background())
	flush(t, e)
	var ckpt []byte
	for _, rec := range st.Replay() {
		if rec.Op == store.OpEngineCheckpoint {
			ckpt = append(ckpt, rec.State...)
		}
	}
	fresh, err := New(store.NewMem[any](), Config{EpochHours: 0.5, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if err := fresh.restoreCheckpoint(ckpt); err != nil {
		t.Fatal(err)
	}
	if got := fresh.encodeCheckpoint(); len(ckpt) == 0 || !bytes.Equal(got, ckpt) {
		t.Fatalf("the %d-byte checkpoint re-encodes to %d different bytes", len(ckpt), len(got))
	}
}

// TestTornEngineCheckpoint: a checkpoint group cut before its final
// chunk — at the log's tail after a crash, or in a follower's log when
// the stream broke between two frames of the group — is dropped at
// open, and replay falls back to the previous checkpoint plus its tail.
// No chunk's line exceeds 256 KiB.
func TestTornEngineCheckpoint(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	cfg := Config{EpochHours: 0.5, Workers: 2, FlushEpochs: 16}
	st, _, err := store.Open[any](dir, store.JournalOptions{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 2,000 chips encode past one chunk, so a group has two records.
	specs := make([]Spec, 2000)
	for i := range specs {
		specs[i] = mixSpec(i, fmt.Sprintf("t%04d", i))
	}
	mustWrite(t)(e.RegisterBatch(ctx, specs))
	for e.Stats().Epoch < 752 {
		e.Tick(ctx)
	}
	want := dumpEngine(e)
	before := st.Replay() // the checkpoint at 512 and its tail
	logPath := filepath.Join(dir, "journal.log")
	head, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	for e.Stats().Epoch < 768 {
		e.Tick(ctx)
	}
	group := st.Replay()
	if len(group) < 2 || group[0].Op != store.OpEngineCheckpoint || group[0].Final || !group[1].Final {
		t.Fatalf("live history after the checkpoint at 768 starts %v, want a two-chunk group", ids(group))
	}
	all, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	e.Close()
	st.Close()
	// The log as a crash left it: the group's first chunk whole, its
	// final chunk half written.
	lines := bytes.SplitAfter(all[len(head):], []byte("\n"))
	for _, l := range lines[:2] {
		if len(l) > 256<<10 {
			t.Fatalf("a checkpoint line is %d bytes, want at most 256 KiB", len(l))
		}
	}
	torn := append(append(append([]byte{}, head...), lines[0]...), lines[1][:len(lines[1])/2]...)
	if err := os.WriteFile(logPath, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	restore := func(what, dir string) {
		t.Helper()
		st, _, err := store.Open[any](dir, store.JournalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		if recs := st.Replay(); countCheckpoints(recs) != 1 || len(recs) != len(before) {
			t.Fatalf("%s: live history %v, want the checkpoint at 512 and its tail", what, ids(recs))
		}
		e, err := New(st, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		if got := e.Stats().ReplayedEpochs; got != 752-512 {
			t.Fatalf("%s: replayed %d epochs, want %d after the checkpoint at 512", what, got, 752-512)
		}
		sameDump(t, what, dumpEngine(e), want)
	}
	restore("torn log tail", dir)

	// A follower that had the history up to 752 and then the group's
	// first frame.
	fdir := t.TempDir()
	fj, err := journal.Open(fdir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := fj.ResetTo(before, before[len(before)-1].Seq); err != nil {
		t.Fatal(err)
	}
	if err := fj.AppendReplica(ctx, group[:1]); err != nil {
		t.Fatal(err)
	}
	if err := fj.Close(); err != nil {
		t.Fatal(err)
	}
	restore("follower cut between frames", fdir)
}

func ids(recs []store.Record) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = fmt.Sprintf("%d:%s:%s", r.Seq, r.Op, r.ID)
	}
	return out
}

// indeterminateStore commits through the wrapped store and then, while
// armed, reports the commit as store.ErrIndeterminate, as a semisync
// primary does when its follower's ack times out.
type indeterminateStore struct {
	store.Store[any]
	armed bool
}

func (s *indeterminateStore) Commit(ctx context.Context, rec store.Record) error {
	return s.CommitBatch(ctx, []store.Record{rec})
}

func (s *indeterminateStore) CommitBatch(ctx context.Context, recs []store.Record) error {
	if err := s.Store.CommitBatch(ctx, recs); err != nil {
		return err
	}
	if s.armed {
		return fmt.Errorf("ack: %w", store.ErrIndeterminate)
	}
	return nil
}

// TestIndeterminateEngineCommitsStayApplied: a registration, a
// condition change, an epoch flush and a checkpoint whose commits fail
// as store.ErrIndeterminate are in the journal, so the live engine
// keeps them applied — each write still reports the error — and a
// restart lands on the live engine's state, epoch and simHours
// included.
func TestIndeterminateEngineCommitsStayApplied(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	cfg := Config{EpochHours: 0.5, Workers: 2, FlushEpochs: 16}
	inner, _, err := store.Open[any](dir, store.JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	st := &indeterminateStore{Store: inner}
	e, err := New(st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mustWrite(t)(e.RegisterBatch(ctx, []Spec{mixSpec(0, "a"), mixSpec(3, "b")}))
	for i := 0; i < 20; i++ {
		e.Tick(ctx)
	}
	st.armed = true
	if err := e.Register(ctx, mixSpec(1, "c")); !errors.Is(err, store.ErrIndeterminate) {
		t.Fatalf("register: err = %v, want ErrIndeterminate", err)
	}
	if err := e.SetCondition(ctx, "a", historyConds[4]); !errors.Is(err, store.ErrIndeterminate) {
		t.Fatalf("condition: err = %v, want ErrIndeterminate", err)
	}
	if !e.Snapshot().Has("c") {
		t.Fatal("an indeterminate registration was not applied")
	}
	for e.Stats().Epoch < 300 { // epoch flushes and a checkpoint
		e.Tick(ctx)
	}
	if st := e.Stats(); st.PendingEpochs >= 16 || st.CommitErrors < 10 {
		t.Fatalf("stats %+v: want every indeterminate flush taken", st)
	}
	if n := countCheckpoints(inner.Replay()); n != 1 {
		t.Fatalf("%d checkpoints in the journal, want 1", n)
	}
	st.armed = false
	flush(t, e)
	want := dumpEngine(e)
	if err := inner.Close(); err != nil { // a crash: the engine is never closed
		t.Fatal(err)
	}
	reopened, _, err := store.Open[any](dir, store.JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	e2, err := New(reopened, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	sameDump(t, "restart after indeterminate commits", dumpEngine(e2), want)
}

// FuzzEngineCheckpointDecode: a checkpoint encoding either fails to
// restore, leaving the engine as it was, or restores an engine that
// encodes to the same bytes.
func FuzzEngineCheckpointDecode(f *testing.F) {
	e, err := New(store.NewMem[any](), Config{EpochHours: 0.5, Workers: 1})
	if err != nil {
		f.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 12; i++ {
		sp := mixSpec(i, fmt.Sprintf("z%d", i))
		if i == 7 {
			sp.Kind = KindFleet
		}
		if err := e.Register(ctx, sp); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(e.encodeCheckpoint())
	for i := 0; i < 20; i++ {
		e.Tick(ctx)
	}
	if err := e.SetSchedule(ctx, "z1", Schedule{StressEpochs: 3, SleepEpochs: 5, SleepTempC: 110, SleepVdd: -0.3}); err != nil {
		f.Fatal(err)
	}
	f.Add(e.encodeCheckpoint())
	f.Add([]byte{checkpointVersion})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		e, err := New(store.NewMem[any](), Config{EpochHours: 0.5, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		empty := e.encodeCheckpoint()
		if err := e.restoreCheckpoint(b); err != nil {
			if got := e.encodeCheckpoint(); !bytes.Equal(got, empty) {
				t.Fatalf("a refused checkpoint changed the engine: %v", err)
			}
			return
		}
		if got := e.encodeCheckpoint(); !bytes.Equal(got, b) {
			t.Fatalf("restored checkpoint re-encodes to %x, want %x", got, b)
		}
		e.tickMu.Lock()
		e.publishSnapshotLocked()
		e.tickMu.Unlock()
		e.Tick(context.Background())
	})
}
