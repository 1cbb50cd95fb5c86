// Package codec is the little-endian byte encoding the checkpoint
// codecs share (the root package's chip state and the aging engine's
// checkpoint): append helpers, and a Reader whose first error sticks,
// so a decoder reads field after field and checks once. Floats travel
// as their IEEE 754 bits, so a round trip is exact.
package codec

import (
	"encoding/binary"
	"fmt"
	"math"
)

// AppendU32 appends v in 4 bytes.
func AppendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }

// AppendU64 appends v in 8 bytes.
func AppendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

// AppendF64 appends v's bits in 8 bytes.
func AppendF64(b []byte, v float64) []byte { return AppendU64(b, math.Float64bits(v)) }

// AppendStr appends s after its length as a uvarint.
func AppendStr(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// Flags packs two bits into a byte: bit0 as 1, bit1 as 2.
func Flags(bit0, bit1 bool) byte {
	var f byte
	if bit0 {
		f |= 1
	}
	if bit1 {
		f |= 2
	}
	return f
}

// Reader decodes an encoding. The first error sticks: later reads
// return zeros, and Err and Done report it.
type Reader struct {
	b      []byte
	prefix string
	err    error
}

// NewReader reads b; every error it reports starts with prefix.
func NewReader(b []byte, prefix string) *Reader { return &Reader{b: b, prefix: prefix} }

// Fail records an error unless one is recorded already.
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(r.prefix+": "+format, args...)
	}
}

// Err returns the first error.
func (r *Reader) Err() error { return r.err }

// Len returns the number of unread bytes.
func (r *Reader) Len() int { return len(r.b) }

// Take returns the next n bytes, or nil once the input has run out.
func (r *Reader) Take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.b) {
		r.Fail("truncated: want %d more bytes, have %d", n, len(r.b))
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

// U8 reads one byte.
func (r *Reader) U8() byte {
	if b := r.Take(1); b != nil {
		return b[0]
	}
	return 0
}

// U32 reads 4 bytes.
func (r *Reader) U32() uint32 {
	if b := r.Take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// U64 reads 8 bytes.
func (r *Reader) U64() uint64 {
	if b := r.Take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// F64 reads a float's 8 bytes of bits.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Count reads a U32 length whose items take at least size bytes each,
// refusing one the remaining input cannot hold before anything is
// allocated for it.
func (r *Reader) Count(what string, size int) int {
	n := int(r.U32())
	if r.err == nil && n > len(r.b)/size {
		r.Fail("%d %s do not fit in %d bytes", n, what, len(r.b))
		return 0
	}
	return n
}

// Flags reads a byte packed by Flags, refusing undefined bits.
func (r *Reader) Flags() (bit0, bit1 bool) {
	f := r.U8()
	if f > 3 {
		r.Fail("mode byte %#x has undefined bits", f)
	}
	return f&1 != 0, f&2 != 0
}

// Str reads a string AppendStr appended, refusing a length not written
// in its shortest form, so decoding stays the inverse of encoding.
func (r *Reader) Str() string {
	if r.err != nil {
		return ""
	}
	n, k := binary.Uvarint(r.b)
	if k <= 0 || k != len(binary.AppendUvarint(nil, n)) || n > uint64(len(r.b)-k) {
		r.Fail("bad string length")
		return ""
	}
	r.b = r.b[k:]
	return string(r.Take(int(n)))
}

// Done reports the first error, or unread bytes.
func (r *Reader) Done() error {
	if r.err == nil && len(r.b) > 0 {
		r.Fail("%d trailing bytes", len(r.b))
	}
	return r.err
}
