// Package repl streams a node's journal to a follower so a shard can
// be promoted after a crash with exact replay. The primary wraps the
// journal as a store.Log: every durably committed batch is fanned out
// to connected followers, and in semisync mode a mutation is
// acknowledged only after local group commit *plus* a follower ack. The
// follower tails the stream into its own journal, preserving the
// primary's sequence numbers bit-for-bit; promotion is then an ordinary
// store.Open of the follower's data directory.
//
// Every (re)connect starts with a full snapshot: compaction prunes
// records on the primary (deletes erase a chip's history), so an
// incremental catch-up from an old seq could resurrect pruned state.
// The snapshot/tail overlap is harmless — the follower dedups by
// sequence number — and a gap in the tail (a frame lost to a network
// fault) forces a reconnect, which is again a full resync. The
// convergence invariant: absorbing the primary's compacted prefix and
// then its tail yields the same live history as absorbing the full
// history, so the follower's journal is bit-identical to what the
// primary would replay.
//
// repl sits outside the canonical lock hierarchy (see internal/store):
// the primary's internal locks are leaves (no journal or store call is
// made while holding them), and the journal's commit callback only
// enqueues to buffered per-connection channels.
package repl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// MaxFrame bounds one frame's payload. The largest legitimate frame is
// a batch frame of frameBudget bytes of records (or one journal line
// past it, at most 1 MiB); 4 MiB leaves room to spare. A length prefix
// past the bound is rejected *before* any allocation, so a corrupt or
// hostile peer cannot make the reader allocate unboundedly.
const MaxFrame = 4 << 20

// Typed frame errors. Readers distinguish a clean end of stream
// (io.EOF before any header byte) from a stream that died mid-frame
// (ErrFrameTruncated) and from corruption (ErrFrameChecksum,
// ErrFrameTooLarge); all three force a reconnect and full resync.
var (
	ErrFrameTooLarge  = errors.New("repl: frame length exceeds maximum")
	ErrFrameChecksum  = errors.New("repl: frame checksum mismatch")
	ErrFrameTruncated = errors.New("repl: truncated frame")
)

// frameHeaderSize is the wire prefix: 4-byte big-endian payload length
// followed by 4-byte big-endian CRC32 (IEEE) of the payload.
const frameHeaderSize = 8

// WriteFrame writes one length-prefixed CRC-framed payload.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("%w (%d > %d)", ErrFrameTooLarge, len(payload), MaxFrame)
	}
	var hdr [frameHeaderSize]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("repl: write frame header: %w", err)
	}
	if len(payload) == 0 {
		return nil
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("repl: write frame payload: %w", err)
	}
	return nil
}

// ReadFrame reads one frame, reusing buf when it is large enough. A
// clean close between frames returns io.EOF; a stream cut mid-frame
// returns ErrFrameTruncated; a length prefix past MaxFrame returns
// ErrFrameTooLarge without allocating; a payload that fails its CRC
// returns ErrFrameChecksum.
func ReadFrame(r io.Reader, buf []byte) ([]byte, error) {
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%w: header: %v", ErrFrameTruncated, err)
	}
	length := binary.BigEndian.Uint32(hdr[0:4])
	want := binary.BigEndian.Uint32(hdr[4:8])
	if length > MaxFrame {
		return nil, fmt.Errorf("%w (%d > %d)", ErrFrameTooLarge, length, MaxFrame)
	}
	payload := buf
	if uint32(cap(payload)) < length {
		payload = make([]byte, length)
	}
	payload = payload[:length]
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("%w: payload: %v", ErrFrameTruncated, err)
	}
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, fmt.Errorf("%w (stored %08x, computed %08x)", ErrFrameChecksum, want, got)
	}
	return payload, nil
}
