package journal

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzParseLine throws arbitrary bytes at the journal line parser. It
// must never panic, and whenever it does accept a line the record must
// survive a re-encode → re-parse round trip — otherwise a salvaged log
// could mutate history on the next startup.
func FuzzParseLine(f *testing.F) {
	// A genuine checksummed line, exactly as the journal writes it.
	var lines lineEncoder
	if line, err := lines.encode(&Record{Seq: 7, Op: OpStress, ID: "c0", TempC: 85, Vdd: 1.2, Hours: 4}); err == nil {
		f.Add(bytes.Clone(line[:len(line)-1])) // parseLine sees lines without the trailing \n
	}
	// A checkpoint line.
	if line, err := lines.encode(&Record{Seq: 9, Op: OpRejuvenate, ID: "c0", Seed: 7, Kind: "bench", Hours: 1, State: []byte{1, 1, 0, 9}}); err == nil {
		f.Add(bytes.Clone(line[:len(line)-1]))
	}
	// A legacy checksum-less line.
	f.Add([]byte(`{"seq":1,"op":"create","id":"c0","seed":7}`))
	// A bit-flipped checksum (mismatch), a torn prefix, a malformed
	// checksum suffix, tab-only, and plain garbage.
	f.Add([]byte(`{"seq":1,"op":"create","id":"c0"}` + "\tc00000000"))
	f.Add([]byte(`{"seq":3,"op":"stress","id":"c0","temp_`))
	f.Add([]byte(`{"seq":1,"op":"delete","id":"c0"}` + "\tcZZZZZZZZ"))
	f.Add([]byte("\t"))
	f.Add([]byte("garbage not json"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, line []byte) {
		if bytes.IndexByte(line, '\n') >= 0 {
			t.Skip() // the scanner guarantees parseLine never sees a newline
		}
		rec, err := parseLine(line)
		if err != nil {
			return
		}
		// Accepted lines must round-trip losslessly.
		reenc, err := new(lineEncoder).encode(&rec)
		if err != nil {
			t.Fatalf("accepted record %+v does not re-encode: %v", rec, err)
		}
		rec2, err := parseLine(bytes.TrimSuffix(reenc, []byte("\n")))
		if err != nil {
			t.Fatalf("re-encoded line rejected: %v", err)
		}
		// A checkpoint's empty and absent state both mean "none".
		if !bytes.Equal(rec.State, rec2.State) {
			t.Fatalf("round trip mutated the checkpoint: %x -> %x", rec.State, rec2.State)
		}
		rec.State, rec2.State = nil, nil
		if !reflect.DeepEqual(rec, rec2) {
			t.Fatalf("round trip mutated the record: %+v -> %+v", rec, rec2)
		}
	})
}
