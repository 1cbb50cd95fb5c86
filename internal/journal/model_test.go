package journal

import (
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// modelLive is the supersede rule written out plainly: the live records
// of a durable history in commit order. A fleet checkpoint moves its
// chip's mark to itself, a fleet delete moves it past itself, and an
// engine checkpoint group's final chunk moves the engine's mark to the
// group's first chunk; a record below its key's mark is superseded.
// Chunks that another record follows before their final chunk are a
// torn group, which never counts; an open group at the tail still does
// until the journal is reopened.
func modelLive(hist []Record) []Record {
	key := func(r Record) string {
		if IsEngineOp(r.Op) {
			return "engine"
		}
		return "chip " + r.ID
	}
	marks := map[string]uint64{}
	torn := map[uint64]bool{}
	var group []uint64
	for _, r := range hist {
		if r.Op != OpEngineCheckpoint {
			for _, seq := range group {
				torn[seq] = true
			}
			group = nil
		}
		switch {
		case r.Checkpoint():
			marks[key(r)] = r.Seq
		case r.Op == OpDelete:
			marks[key(r)] = r.Seq + 1
		case r.Op == OpEngineCheckpoint:
			group = append(group, r.Seq)
			if r.Final {
				marks[key(r)] = group[0]
				group = nil
			}
		}
	}
	var live []Record
	for _, r := range hist {
		if !torn[r.Seq] && r.Seq >= marks[key(r)] {
			live = append(live, r)
		}
	}
	return live
}

// modelReopen is what Open makes of a history: the live records, less
// an open group at the tail and every sensor read no later record of
// the same id builds on.
func modelReopen(hist []Record) []Record {
	n := len(hist)
	for n > 0 && hist[n-1].Op == OpEngineCheckpoint && !hist[n-1].Final {
		n--
	}
	live := modelLive(hist[:n])
	lastMut := map[string]uint64{}
	for _, r := range live {
		if !r.Op.isRead() {
			lastMut[r.ID] = r.Seq
		}
	}
	var out []Record
	for _, r := range live {
		if !r.Op.isRead() || r.Seq < lastMut[r.ID] {
			out = append(out, r)
		}
	}
	return out
}

func seqIDs(recs []Record) string {
	var b strings.Builder
	for _, r := range recs {
		fmt.Fprintf(&b, "%d:%s:%s ", r.Seq, r.Op, r.ID)
	}
	return b.String()
}

// runModel drives a journal through the history prog encodes, two bytes
// a step: fleet creates, phases, checkpoints, reads and deletes over
// four re-used ids; engine registrations (of native chips and of the
// fleet chips' twins), condition changes, removals and epochs; engine
// checkpoint groups, whole or cut before their final chunk; and
// compactions, reopens and crashes between a compaction's snapshot
// rename and its log truncation. After every step Records and
// Stats().Records must equal the model's; a failure names the history
// as label.
func runModel(t *testing.T, dir, label string, prog []byte) {
	j, err := Open(dir, Options{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { j.Close() }()
	ctx := context.Background()
	var hist []Record
	step := 0
	check := func(what string) {
		t.Helper()
		want := modelLive(hist)
		if got := j.Records(); seqIDs(got) != seqIDs(want) {
			t.Fatalf("%s step %d, %s:\n got %s\nwant %s", label, step, what, seqIDs(got), seqIDs(want))
		}
		if got := j.Stats().Records; got != len(want) {
			t.Fatalf("%s step %d, %s: Stats().Records = %d, want %d", label, step, what, got, len(want))
		}
	}
	appendRecs := func(recs ...Record) {
		t.Helper()
		if err := j.AppendBatch(ctx, recs); err != nil {
			t.Fatal(err)
		}
		last := j.Stats().LastSeq
		for i := range recs {
			recs[i].Seq = last - uint64(len(recs)-1-i)
			hist = append(hist, recs[i])
		}
		check(fmt.Sprintf("append %s", seqIDs(recs)))
	}
	reopen := func(what string) {
		t.Helper()
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		if j, err = Open(dir, Options{CompactEvery: -1}); err != nil {
			t.Fatal(err)
		}
		hist = modelReopen(hist)
		check(what)
	}
	chunk := func(final bool) Record {
		return Record{Op: OpEngineCheckpoint, State: []byte{byte(step)}, Final: final}
	}
	for ; 2*step+1 < len(prog); step++ {
		op, arg := prog[2*step]%18, prog[2*step+1]
		fleetID := fmt.Sprintf("c%d", arg%4)
		engineID := []string{"e0", "e1", "e2", "c0", "c1", "c2", "c3"}[arg%7]
		switch op {
		case 0, 1:
			appendRecs(Record{Op: OpCreate, ID: fleetID, Seed: uint64(arg), Kind: "bench"})
		case 2, 3:
			appendRecs(Record{Op: []Op{OpStress, OpRejuvenate}[arg/4%2], ID: fleetID, Hours: 1})
		case 4:
			appendRecs(Record{Op: OpStress, ID: fleetID, Seed: 1, Kind: "bench", Hours: 1, State: []byte{arg}})
		case 5, 6:
			appendRecs(Record{Op: []Op{OpMeasure, OpOdometer}[arg/4%2], ID: fleetID})
		case 7:
			appendRecs(Record{Op: OpDelete, ID: fleetID})
		case 8, 9:
			kind := ""
			if engineID[0] == 'c' {
				kind = "fleet"
			}
			appendRecs(Record{Op: OpEngineReg, ID: engineID, Kind: kind, TempC: 80})
		case 10:
			appendRecs(Record{Op: OpEngineSet, ID: engineID, TempC: 90})
		case 11:
			appendRecs(Record{Op: OpEngineRemove, ID: engineID})
		case 12:
			appendRecs(Record{Op: OpEngineEpoch, Epochs: uint64(arg%8 + 1), Hours: 0.5})
		case 13:
			group := make([]Record, arg%3+1)
			for i := range group {
				group[i] = chunk(i == len(group)-1)
			}
			appendRecs(group...)
		case 14:
			// A group cut before its final chunk: a follower's stream
			// broken between frames, then a crash or the next record.
			for i := 0; i < int(arg%2)+1; i++ {
				rec := chunk(false)
				rec.Seq = j.Stats().LastSeq + 1
				if err := j.AppendReplica(ctx, []Record{rec}); err != nil {
					t.Fatal(err)
				}
				hist = append(hist, rec)
				check("a torn group's chunk")
			}
			if arg&4 != 0 {
				reopen("reopen after a torn group")
			}
			appendRecs(Record{Op: OpEngineEpoch, Epochs: 1, Hours: 0.5})
		case 15:
			if err := j.Compact(); err != nil {
				t.Fatal(err)
			}
			check("compact")
		case 16:
			reopen("reopen")
		case 17:
			log, err := os.ReadFile(filepath.Join(dir, logName))
			if err != nil {
				t.Fatal(err)
			}
			if err := j.Compact(); err != nil {
				t.Fatal(err)
			}
			// The crash: the snapshot is renamed, the log not truncated.
			if err := os.WriteFile(filepath.Join(dir, logName), log, 0o644); err != nil {
				t.Fatal(err)
			}
			reopen("reopen after a crash between rename and truncate")
		}
	}
	reopen("final reopen")
}

// TestSupersedeRuleModel holds the journal to modelLive over seeded
// random histories.
func TestSupersedeRuleModel(t *testing.T) {
	dir := t.TempDir()
	prog := make([]byte, 2*40)
	for seed := 0; seed < 1000; seed++ {
		r := rand.New(rand.NewPCG(uint64(seed), 0))
		for i := range prog {
			prog[i] = byte(r.Uint32())
		}
		for _, f := range []string{snapshotName, logName} {
			os.Remove(filepath.Join(dir, f))
		}
		runModel(t, dir, fmt.Sprintf("seed %d", seed), prog)
	}
}

// FuzzSupersedeRule explores histories beyond the seeded ones: the
// input is the step program runModel reads.
func FuzzSupersedeRule(f *testing.F) {
	f.Add([]byte{0, 0, 2, 0, 7, 0, 0, 1, 2, 0, 15, 0, 17, 0})          // a chip deleted and created again, then a crash
	f.Add([]byte{8, 0, 11, 0, 8, 0, 12, 0, 13, 2, 8, 3, 7, 3, 17, 0})  // engine chips removed and back, a group, a twin
	f.Add([]byte{0, 1, 4, 1, 5, 1, 14, 5, 16, 0, 14, 0, 13, 1, 17, 0}) // checkpoints, reads and torn groups
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 2*64 {
			t.Skip()
		}
		runModel(t, t.TempDir(), "", prog)
	})
}
