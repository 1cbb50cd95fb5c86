package fleet

import (
	"context"
	"fmt"
	"testing"

	"selfheal/internal/journal"
	"selfheal/internal/store"
)

// BenchmarkFleetReplay times a restart of a 100-chip bench fleet —
// store.Open of its journal plus NewService — after 1k, 10k and 100k
// journaled ops, and reports the live records the restart replayed and
// the bytes of one chip's checkpoint. The first open of each journal
// compacts it and is not timed.
func BenchmarkFleetReplay(b *testing.B) {
	const chips = 100
	for _, ops := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("ops=%d", ops), func(b *testing.B) {
			dir := b.TempDir()
			journalHistory(b, dir, chips, ops)
			var live, ckpts, ckptBytes int
			for i := 0; i <= b.N; i++ {
				if i == 1 {
					b.ResetTimer()
				}
				st, _, err := store.Open[*ChipEntry](dir, store.JournalOptions{})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := NewService(st); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				recs := st.Replay()
				live, ckpts, ckptBytes = len(recs), 0, 0
				for _, r := range recs {
					if r.Checkpoint() {
						ckpts++
						ckptBytes += len(r.State)
					}
				}
				if err := st.Close(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(live), "records")
			if ckpts > 0 {
				b.ReportMetric(float64(ckptBytes)/float64(ckpts), "ckpt-B/chip")
			}
		})
	}
}

// journalHistory runs ops round-robin over the chips of a live fleet —
// in turn a 1 h stress at 110 °C / 1.2 V, DC then AC, a read, and a
// 1 h sleep at 110 °C / −0.3 V — and writes every record it commits to
// a journal in dir with one fsync.
func journalHistory(b *testing.B, dir string, chips, ops int) {
	var recs []store.Record
	s, err := NewService(&hookStore{Store: store.NewMem[*ChipEntry](), commit: func(rec store.Record) error {
		rec.Seq = uint64(len(recs) + 1)
		recs = append(recs, rec)
		return nil
	}})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	for c := 0; c < chips; c++ {
		if _, err := s.Create(ctx, CreateSpec{ID: fmt.Sprintf("c%03d", c), Seed: uint64(c)}); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < ops; i++ {
		op := OpSpec{ID: fmt.Sprintf("c%03d", i%chips)}
		switch turn := i / chips % 4; turn {
		case 0, 1:
			op.Op, op.PhaseRequest = BatchOpStress, PhaseRequest{TempC: 110, Vdd: 1.2, Hours: 1, AC: turn == 1}
		case 2:
			op.Op = BatchOpMeasure
		default:
			op.Op, op.PhaseRequest = BatchOpRejuvenate, PhaseRequest{TempC: 110, Vdd: -0.3, Hours: 1}
		}
		if r := s.Apply(ctx, op); r.Err != nil {
			b.Fatal(r.Err)
		}
	}
	j, err := journal.Open(dir, journal.Options{})
	if err != nil {
		b.Fatal(err)
	}
	if err := j.AppendReplica(ctx, recs); err != nil {
		b.Fatal(err)
	}
	if err := j.Close(); err != nil {
		b.Fatal(err)
	}
}
