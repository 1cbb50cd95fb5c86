package repl

import (
	"encoding/json"
	"fmt"
)

// Message kinds. A frame's payload is one kind byte followed by the
// message's JSON encoding.
const (
	kindHello    byte = 1 // follower → primary: identify + last durable seq
	kindReset    byte = 2 // primary → follower: full snapshot begins
	kindBatch    byte = 3 // primary → follower: records (snapshot chunk or live tail)
	kindSnapDone byte = 4 // primary → follower: snapshot complete
	kindAck      byte = 5 // follower → primary: cumulative durable seq
)

// ErrBadMessage is returned for a frame whose payload is empty or whose
// JSON body does not decode — protocol corruption that survives the
// CRC (e.g. a version-skewed peer). It forces a reconnect.
var ErrBadMessage = fmt.Errorf("repl: malformed message")

// helloMsg opens a session. LastSeq is informational (every session
// resyncs from a full snapshot; see the package comment), surfaced in
// the primary's logs to show how far behind a reconnecting follower was.
type helloMsg struct {
	NodeID  string `json:"node_id"`
	LastSeq uint64 `json:"last_seq"`
}

// resetMsg announces a full snapshot: the follower must discard its
// history and accumulate batches until snapDoneMsg.
type resetMsg struct {
	LastSeq uint64 `json:"last_seq"` // primary's durable seq at snapshot time
}

// batchMsg carries records — snapshot chunks before snapDoneMsg, the
// live committed tail after. TraceID tags live tail batches with the
// distributed trace id of the newest traced record inside, so a
// mutation's trace can be followed across the replication hop (the
// follower surfaces it as Stats.LastTraceID; the records themselves
// also carry their ids durably). Old peers ignore the field. The
// follower decodes R = store.Record; the primary encodes R =
// json.RawMessage, records it has already marshalled, so it can cut
// frames by their encoded size.
type batchMsg[R any] struct {
	Recs    []R    `json:"recs"`
	TraceID string `json:"trace_id,omitempty"`
}

// snapDoneMsg closes the snapshot phase.
type snapDoneMsg struct {
	LastSeq uint64 `json:"last_seq"` // highest seq included in the snapshot
}

// ackMsg is the follower's cumulative durability cursor: every record
// with Seq <= Seq is fsync'd in the follower's journal.
type ackMsg struct {
	Seq uint64 `json:"seq"`
}

// encodeMsg renders one kind-prefixed JSON payload.
func encodeMsg(kind byte, msg any) ([]byte, error) {
	body, err := json.Marshal(msg)
	if err != nil {
		return nil, fmt.Errorf("repl: encode message kind %d: %w", kind, err)
	}
	out := make([]byte, 0, len(body)+1)
	out = append(out, kind)
	return append(out, body...), nil
}

// decodeMsg splits a payload into its kind and decodes the JSON body
// into msg (which may be nil to inspect only the kind).
func decodeMsg(payload []byte, msg any) (byte, error) {
	if len(payload) == 0 {
		return 0, fmt.Errorf("%w: empty payload", ErrBadMessage)
	}
	kind := payload[0]
	if msg != nil {
		if err := json.Unmarshal(payload[1:], msg); err != nil {
			return kind, fmt.Errorf("%w: kind %d: %v", ErrBadMessage, kind, err)
		}
	}
	return kind, nil
}
