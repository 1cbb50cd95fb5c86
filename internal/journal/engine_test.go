package journal

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestEngineRecordRoundTrip persists the full set of engine record
// kinds and checks every field survives a reopen (compaction included,
// since Open always compacts).
func TestEngineRecordRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, j, Record{Op: OpEngineReg, ID: "e0", Phase: "stress",
		TempC: 110, Vdd: 1.2, Duty: 0.5})
	mustAppend(t, j, Record{Op: OpEngineSchedule, ID: "e0",
		StressEpochs: 32, SleepEpochs: 16, SleepTempC: 80, SleepVdd: -0.3})
	mustAppend(t, j, Record{Op: OpEngineEpoch, Epochs: 100, Hours: 0.5})
	mustAppend(t, j, Record{Op: OpEngineSet, ID: "e0", Phase: "sleep",
		TempC: 20, Vdd: -0.3, Duty: 1})
	j.Close()

	j2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	recs := j2.Records()
	if got, want := ids(recs), "engine_reg:e0 engine_schedule:e0 engine_epoch: engine_set:e0"; got != want {
		t.Fatalf("replay = %q, want %q", got, want)
	}
	if r := recs[0]; r.Phase != "stress" || r.TempC != 110 || r.Vdd != 1.2 || r.Duty != 0.5 {
		t.Fatalf("reg record lost fields: %+v", r)
	}
	if r := recs[1]; r.StressEpochs != 32 || r.SleepEpochs != 16 || r.SleepTempC != 80 || r.SleepVdd != -0.3 {
		t.Fatalf("schedule record lost fields: %+v", r)
	}
	if r := recs[2]; r.Epochs != 100 || r.Hours != 0.5 {
		t.Fatalf("epoch record lost fields: %+v", r)
	}
	if r := recs[3]; r.Phase != "sleep" || r.TempC != 20 || r.Duty != 1 {
		t.Fatalf("set record lost fields: %+v", r)
	}
}

// TestEngineRemovePrunesChipHistory checks that an engine-native
// chip's removal is a plain engine record: the chip's history stays
// live beside the epoch records until the next engine checkpoint
// supersedes all of it, while a fleet delete supersedes its own chip's
// records at once.
func TestEngineRemovePrunesChipHistory(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	mustAppend(t, j, Record{Op: OpEngineReg, ID: "e0", Phase: "stress", TempC: 110, Vdd: 1.2, Duty: 1})
	mustAppend(t, j, Record{Op: OpCreate, ID: "c0", Seed: 1})
	mustAppend(t, j, Record{Op: OpEngineEpoch, Epochs: 10, Hours: 1})
	mustAppend(t, j, Record{Op: OpEngineSet, ID: "e0", Phase: "sleep", TempC: 20})
	mustAppend(t, j, Record{Op: OpEngineRemove, ID: "e0"})
	mustAppend(t, j, Record{Op: OpDelete, ID: "c0"})

	if got, want := ids(j.Records()), "engine_reg:e0 engine_epoch: engine_set:e0 engine_remove:e0"; got != want {
		t.Fatalf("after removals replay = %q, want %q", got, want)
	}
	if err := j.AppendBatch(context.Background(), []Record{chunk(1, true)}); err != nil {
		t.Fatal(err)
	}
	if got, want := ids(j.Records()), "engine_checkpoint:"; got != want {
		t.Fatalf("after an engine checkpoint replay = %q, want %q", got, want)
	}
}

// TestIsEngineOp pins the op classification the fleet replay skips on.
func TestIsEngineOp(t *testing.T) {
	engine := []Op{OpEngineReg, OpEngineRemove, OpEngineSet, OpEngineSchedule, OpEngineEpoch, OpEngineCheckpoint}
	for _, op := range engine {
		if !IsEngineOp(op) {
			t.Errorf("IsEngineOp(%q) = false", op)
		}
	}
	fleet := []Op{OpCreate, OpStress, OpRejuvenate, OpDelete, OpMeasure, OpOdometer}
	for _, op := range fleet {
		if IsEngineOp(op) {
			t.Errorf("IsEngineOp(%q) = true", op)
		}
	}
}

// chunk is one chunk of a (stand-in) engine checkpoint.
func chunk(b byte, final bool) Record {
	return Record{Op: OpEngineCheckpoint, State: []byte{b, b, b}, Final: final}
}

// TestEngineCheckpointSupersedesEngineRecordsOnly: a durable engine
// checkpoint drops every engine record before its group — chip
// records, epoch records, a removal and the older group — and never a
// fleet record, a fleet checkpoint or a fleet chip's mark; the engine
// records after it, a removal and the removed chip's condition change
// included, stay live until the next group, and all of it survives
// compaction and reopen.
func TestEngineCheckpointSupersedesEngineRecordsOnly(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, j, Record{Op: OpCreate, ID: "c0", Seed: 1, Kind: "bench"})
	mustAppend(t, j, Record{Op: OpEngineReg, ID: "c0", Kind: "fleet"})
	mustAppend(t, j, Record{Op: OpEngineReg, ID: "e0"})
	mustAppend(t, j, Record{Op: OpEngineReg, ID: "e1"})
	mustAppend(t, j, ckpt("c0"))
	mustAppend(t, j, Record{Op: OpEngineEpoch, Epochs: 16, Hours: 0.5})
	mustAppend(t, j, Record{Op: OpEngineRemove, ID: "e1"})
	mustAppend(t, j, Record{Op: OpStress, ID: "c0", Hours: 1})
	if err := j.AppendBatch(context.Background(), []Record{chunk(1, false), chunk(2, true)}); err != nil {
		t.Fatal(err)
	}
	mustAppend(t, j, Record{Op: OpEngineSet, ID: "e0", TempC: 90})
	mustAppend(t, j, Record{Op: OpEngineRemove, ID: "e0"})
	mustAppend(t, j, Record{Op: OpEngineEpoch, Epochs: 3, Hours: 0.5})
	want := "stress:c0 stress:c0 engine_checkpoint: engine_checkpoint: engine_set:e0 engine_remove:e0 engine_epoch:"
	if got := ids(j.Records()); got != want {
		t.Fatalf("live history %q, want %q", got, want)
	}
	mustAppend(t, j, ckpt("c0")) // the chip's fleet mark still supersedes
	want = "engine_checkpoint: engine_checkpoint: engine_set:e0 engine_remove:e0 engine_epoch: stress:c0"
	if got, n := ids(j.Records()), j.Stats().Records; got != want || n != 6 {
		t.Fatalf("history %q (%d records), want %q", got, n, want)
	}
	if err := j.AppendBatch(context.Background(), []Record{chunk(3, false), chunk(4, true)}); err != nil {
		t.Fatal(err)
	}
	want = "stress:c0 engine_checkpoint: engine_checkpoint:"
	if got := ids(j.Records()); got != want {
		t.Fatalf("history after a second checkpoint %q, want %q", got, want)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	recs := j2.Records()
	if got := ids(recs); got != want {
		t.Fatalf("reopened history %q, want %q", got, want)
	}
	if recs[1].State[0] != 3 || recs[1].Final || recs[2].State[0] != 4 || !recs[2].Final {
		t.Fatalf("reopened group %+v, want the second checkpoint's chunks", recs[1:])
	}
}

// TestEngineCheckpointReleasesOldGroup: absorbing a checkpoint's final
// chunk releases the previous group's records from memory at once, not
// at the next size-triggered compaction, and requests a compaction
// that folds them out of the log.
func TestEngineCheckpointReleasesOldGroup(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	ctx := context.Background()
	big := func(b byte, final bool) Record {
		return Record{Op: OpEngineCheckpoint, State: bytes.Repeat([]byte{b}, 100<<10), Final: final}
	}
	if err := j.AppendBatch(ctx, []Record{big(1, false), big(1, true)}); err != nil {
		t.Fatal(err)
	}
	mustAppend(t, j, Record{Op: OpEngineEpoch, Epochs: 16, Hours: 0.5})
	if err := j.AppendBatch(ctx, []Record{big(2, false), big(2, true)}); err != nil {
		t.Fatal(err)
	}
	j.mu.Lock()
	held := len(j.recs)
	for _, r := range j.recs {
		if r.State[0] != 2 {
			held = -1
		}
	}
	stale := j.stale
	j.mu.Unlock()
	if held != 2 || stale != 0 {
		t.Fatalf("journal holds %d records (-1: an old chunk), %d stale, want the new group's 2", held, stale)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		fi, err := os.Stat(filepath.Join(dir, logName))
		if err != nil {
			t.Fatal(err)
		}
		if st := j.Stats(); st.Compactions >= 2 && fi.Size() == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no compaction after the checkpoints: %+v, log %d bytes", j.Stats(), fi.Size())
		}
		time.Sleep(5 * time.Millisecond)
	}
	snap, err := os.ReadFile(filepath.Join(dir, snapshotName))
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(snap, []byte("\n")); n != 2 {
		t.Fatalf("snapshot holds %d lines, want the newest group's 2", n)
	}
}

// TestTornEngineCheckpointGroup: chunks without their final chunk — at
// the log's tail, or ended by another record — are dropped at open,
// and the previous group stays the live checkpoint.
func TestTornEngineCheckpointGroup(t *testing.T) {
	for name, tail := range map[string][]Record{
		"at the tail":       {chunk(2, false), chunk(3, false)},
		"before a record":   {chunk(2, false), {Op: OpEngineEpoch, Epochs: 1, Hours: 0.5}},
		"before a chip one": {chunk(2, false), {Op: OpCreate, ID: "c1", Seed: 2}},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			j, err := Open(dir, Options{CompactEvery: -1})
			if err != nil {
				t.Fatal(err)
			}
			mustAppend(t, j, Record{Op: OpCreate, ID: "c0", Seed: 1})
			if err := j.AppendBatch(context.Background(), []Record{chunk(1, true)}); err != nil {
				t.Fatal(err)
			}
			mustAppend(t, j, Record{Op: OpEngineEpoch, Epochs: 16, Hours: 0.5})
			var want []string
			for _, r := range j.Records() {
				want = append(want, string(r.Op)+":"+r.ID)
			}
			for _, r := range tail {
				if r.Op != OpEngineCheckpoint {
					want = append(want, string(r.Op)+":"+r.ID)
				}
			}
			// A follower's path: records arrive with their seqs, the
			// group's frames one by one.
			seq := j.Stats().LastSeq
			for i := range tail {
				seq++
				tail[i].Seq = seq
				if err := j.AppendReplica(context.Background(), tail[i:i+1]); err != nil {
					t.Fatal(err)
				}
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			j2, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer j2.Close()
			if got := ids(j2.Records()); got != strings.Join(want, " ") {
				t.Fatalf("reopened history %q, want %q", got, strings.Join(want, " "))
			}
		})
	}
}
