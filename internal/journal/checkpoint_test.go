package journal

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// ckpt is a stress record carrying a (stand-in) checkpoint of chip id.
func ckpt(id string) Record {
	return Record{Op: OpStress, ID: id, Seed: 1, Kind: "bench", Hours: 1, State: []byte{1, 2, 3}}
}

// TestCheckpointSupersedesFleetRecords: a durable checkpoint ends the
// life of the chip's earlier fleet records — create, phases, reads,
// quarantine changes and older checkpoints — while its engine records,
// the epoch records and other chips' records stay live, in Records,
// in Stats and across compaction and reopen. A delete supersedes the
// chip's fleet records and itself, and leaves its engine twin's
// registration to the next engine checkpoint.
func TestCheckpointSupersedesFleetRecords(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, j, Record{Op: OpCreate, ID: "c0", Seed: 1, Kind: "bench"})
	mustAppend(t, j, Record{Op: OpEngineReg, ID: "c0", Kind: "fleet"})
	mustAppend(t, j, Record{Op: OpCreate, ID: "c1", Seed: 2})
	mustAppend(t, j, Record{Op: OpStress, ID: "c0", Hours: 1})
	mustAppend(t, j, Record{Op: OpMeasure, ID: "c0"})
	mustAppend(t, j, Record{Op: OpQuarantine, ID: "c0", Kind: "why"})
	mustAppend(t, j, Record{Op: OpRelease, ID: "c0"})
	mustAppend(t, j, Record{Op: OpEngineEpoch, Epochs: 2, Hours: 0.5})
	mustAppend(t, j, ckpt("c0"))
	mustAppend(t, j, Record{Op: OpStress, ID: "c1", Hours: 1})
	mustAppend(t, j, Record{Op: OpRejuvenate, ID: "c0", Hours: 1})
	want := "engine_reg:c0 create:c1 engine_epoch: stress:c0 stress:c1 rejuvenate:c0"
	if got := j.Stats().Records; got != 6 {
		t.Fatalf("Stats().Records = %d before Records drops the superseded, want 6", got)
	}
	if got := ids(j.Records()); got != want {
		t.Fatalf("live history %q, want %q", got, want)
	}
	mustAppend(t, j, ckpt("c0"))
	want = "engine_reg:c0 create:c1 engine_epoch: stress:c1 stress:c0"
	if got := j.Stats().Records; got != 5 {
		t.Fatalf("Stats().Records = %d after a second checkpoint, want 5", got)
	}
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := ids(j.Records()); got != want {
		t.Fatalf("compacted history %q, want %q", got, want)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if got := ids(j2.Records()); got != want {
		t.Fatalf("reopened history %q, want %q", got, want)
	}
	mustAppend(t, j2, Record{Op: OpDelete, ID: "c0"})
	if got, want := ids(j2.Records()), "engine_reg:c0 create:c1 engine_epoch: stress:c1"; got != want {
		t.Fatalf("history after deleting c0 %q, want %q", got, want)
	}
	if got := j2.Stats().Records; got != 4 {
		t.Fatalf("Stats().Records = %d after the delete, want 4", got)
	}
}

// TestCompactionCrashWithCheckpoints: a hard stop at either side of
// the snapshot rename — the new snapshot beside the untruncated log,
// or the old snapshot with a half-written snapshot.json.tmp — reopens
// to the same live history and record count. The histories put
// checkpoints on both sides of the snapshot and the log, and a fleet
// and an engine chip that leave and come back under their ids: no
// superseded record comes back, no record applies twice, and the log's
// older records never outrank the snapshot's newer ones.
func TestCompactionCrashWithCheckpoints(t *testing.T) {
	for _, tc := range []struct {
		name    string
		history func(t *testing.T, j *Journal)
	}{
		{"checkpoints on both sides", func(t *testing.T, j *Journal) {
			mustAppend(t, j, Record{Op: OpCreate, ID: "c0", Seed: 1, Kind: "bench"})
			mustAppend(t, j, Record{Op: OpStress, ID: "c0", Hours: 1})
			mustAppend(t, j, ckpt("c0"))
			mustAppend(t, j, Record{Op: OpStress, ID: "c0", Hours: 2})
			if err := j.Compact(); err != nil { // the old snapshot: checkpoint A and its tail
				t.Fatal(err)
			}
			mustAppend(t, j, Record{Op: OpStress, ID: "c0", Hours: 3})
			mustAppend(t, j, Record{Op: OpCreate, ID: "c1", Seed: 2})
			mustAppend(t, j, ckpt("c0")) // checkpoint B, in the log
			mustAppend(t, j, Record{Op: OpStress, ID: "c0", Hours: 4})
		}},
		{"fleet chip created again", func(t *testing.T, j *Journal) {
			mustAppend(t, j, Record{Op: OpCreate, ID: "c0", Seed: 1, Kind: "bench"})
			mustAppend(t, j, Record{Op: OpStress, ID: "c0", Hours: 1})
			mustAppend(t, j, Record{Op: OpDelete, ID: "c0"})
			mustAppend(t, j, Record{Op: OpCreate, ID: "c0", Seed: 2, Kind: "bench"})
			mustAppend(t, j, Record{Op: OpStress, ID: "c0", Hours: 2})
		}},
		{"engine chip registered again", func(t *testing.T, j *Journal) {
			mustAppend(t, j, Record{Op: OpEngineReg, ID: "e0", TempC: 80})
			mustAppend(t, j, Record{Op: OpEngineRemove, ID: "e0"})
			mustAppend(t, j, Record{Op: OpEngineReg, ID: "e0", TempC: 90})
			mustAppend(t, j, Record{Op: OpEngineEpoch, Epochs: 4, Hours: 0.5})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			j, err := Open(dir, Options{CompactEvery: -1})
			if err != nil {
				t.Fatal(err)
			}
			read := func(name string) []byte {
				b, err := os.ReadFile(filepath.Join(dir, name))
				if err != nil {
					t.Fatal(err)
				}
				return b
			}
			tc.history(t, j)
			want, st := ids(j.Records()), j.Stats()
			oldSnap, log := read(snapshotName), read(logName)
			if err := j.Compact(); err != nil {
				t.Fatal(err)
			}
			newSnap := read(snapshotName)
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			for _, crash := range []struct {
				name  string
				files [3][]byte // snapshot, log, snapshot.json.tmp; nil: absent
			}{
				{"new snapshot beside the untruncated log", [3][]byte{newSnap, log, nil}},
				{"old snapshot beside a half-written tmp", [3][]byte{oldSnap, log, newSnap[:len(newSnap)/2]}},
			} {
				for i, f := range []string{snapshotName, logName, snapshotName + ".tmp"} {
					if crash.files[i] == nil {
						os.Remove(filepath.Join(dir, f))
						continue
					}
					if err := os.WriteFile(filepath.Join(dir, f), crash.files[i], 0o644); err != nil {
						t.Fatal(err)
					}
				}
				j, err := Open(dir, Options{})
				if err != nil {
					t.Fatalf("%s: %v", crash.name, err)
				}
				recs := j.Records()
				if got := ids(recs); got != want {
					t.Fatalf("%s: history %q, want %q", crash.name, got, want)
				}
				if got := j.Stats(); got.Records != st.Records || len(recs) != st.Records || got.LastSeq != st.LastSeq {
					t.Fatalf("%s: Stats = %+v, want %d records up to seq %d", crash.name, got, st.Records, st.LastSeq)
				}
				if err := j.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestAppendBatchOrderedAndWhole: a batch lands contiguously in input
// order under one group commit, and a failed write anywhere in it
// unwinds the whole batch, leaving the log as it was.
func TestAppendBatchOrderedAndWhole(t *testing.T) {
	dir := t.TempDir()
	var failOn string
	j, err := Open(dir, Options{Hook: func(op string, line []byte) ([]byte, error) {
		if op == failOn {
			return line[:len(line)/2], errors.New("torn")
		}
		return line, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	batch := []Record{
		{Op: OpEngineReg, ID: "e1"}, {Op: OpEngineReg, ID: "e0"}, {Op: OpEngineSet, ID: "e2"},
	}
	if err := j.AppendBatch(ctx, batch); err != nil {
		t.Fatal(err)
	}
	failOn = string(OpEngineSet)
	if err := j.AppendBatch(ctx, batch); err == nil {
		t.Fatal("a batch with a torn write succeeded")
	}
	failOn = ""
	if err := j.AppendBatch(ctx, batch[:1]); err != nil {
		t.Fatal(err)
	}
	st := j.Stats()
	if got, want := ids(j.Records()), "engine_reg:e1 engine_reg:e0 engine_set:e2 engine_reg:e1"; got != want {
		t.Fatalf("history %q, want %q", got, want)
	}
	if st.LastSeq != 4 || st.SyncBatches != 2 {
		t.Fatalf("Stats = %+v, want seq 4 over 2 group commits", st)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if got := ids(j2.Records()); got != "engine_reg:e1 engine_reg:e0 engine_set:e2 engine_reg:e1" {
		t.Fatalf("reopened history %q", got)
	}
}
