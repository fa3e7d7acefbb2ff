// Package binio provides the little-endian binary primitives shared by the
// per-layer snapshot codecs (gridfile, rtree, model, softfd, lifecycle, core)
// and the wire protocol. A Writer appends into an in-memory buffer so
// section lengths and checksums can be computed before framing; a Reader
// parses a byte slice with strict bounds checking so corrupted or truncated
// input surfaces as an error from Err/Close, never as a panic or an
// oversized allocation.
package binio

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Writer accumulates little-endian encoded values in memory.
type Writer struct {
	buf []byte
}

// NewWriter returns an empty writer.
func NewWriter() *Writer { return &Writer{} }

// Bytes returns the encoded payload. The slice aliases the writer's buffer.
func (w *Writer) Bytes() []byte { return w.buf }

// Len reports the number of bytes written so far.
func (w *Writer) Len() int { return len(w.buf) }

// Uint32 appends a fixed-width 32-bit value.
func (w *Writer) Uint32(v uint32) {
	w.buf = binary.LittleEndian.AppendUint32(w.buf, v)
}

// Uint64 appends a fixed-width 64-bit value.
func (w *Writer) Uint64(v uint64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
}

// Int appends a signed integer as a fixed-width 64-bit two's-complement
// value; the full int range round-trips.
func (w *Writer) Int(v int) { w.Uint64(uint64(int64(v))) }

// Int64 appends a signed 64-bit value.
func (w *Writer) Int64(v int64) { w.Uint64(uint64(v)) }

// Bool appends one byte: 0 or 1.
func (w *Writer) Bool(v bool) {
	if v {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}

// Float64 appends an IEEE-754 value bit pattern.
func (w *Writer) Float64(v float64) { w.Uint64(math.Float64bits(v)) }

// String appends a length-prefixed UTF-8 string.
func (w *Writer) String(s string) {
	w.Uint64(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Float64s appends a length-prefixed float64 slice.
func (w *Writer) Float64s(vs []float64) {
	w.Uint64(uint64(len(vs)))
	for _, v := range vs {
		w.Float64(v)
	}
}

// Ints appends a length-prefixed int slice.
func (w *Writer) Ints(vs []int) {
	w.Uint64(uint64(len(vs)))
	for _, v := range vs {
		w.Int(v)
	}
}

// Int64s appends a length-prefixed int64 slice.
func (w *Writer) Int64s(vs []int64) {
	w.Uint64(uint64(len(vs)))
	for _, v := range vs {
		w.Int64(v)
	}
}

// Reader parses a byte slice written by Writer. The first decoding error
// sticks: every subsequent call returns zero values, so codecs can decode a
// whole structure and check Err once at the end.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader wraps payload for decoding.
func NewReader(payload []byte) *Reader { return &Reader{buf: payload} }

// Err returns the first decoding error, or nil.
func (r *Reader) Err() error { return r.err }

// Remaining reports the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// Close verifies the payload was consumed exactly: it returns the sticky
// decoding error if any, or an error if trailing bytes remain.
func (r *Reader) Close() error {
	if r.err != nil {
		return r.err
	}
	if n := r.Remaining(); n != 0 {
		return fmt.Errorf("binio: %d trailing bytes after decode", n)
	}
	return nil
}

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// take returns the next n bytes, or nil after recording an error.
func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.Remaining() < n {
		r.fail(fmt.Errorf("binio: need %d bytes, have %d: %w", n, r.Remaining(), io.ErrUnexpectedEOF))
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// Uint32 reads a fixed-width 32-bit value.
func (r *Reader) Uint32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// Uint64 reads a fixed-width 64-bit value.
func (r *Reader) Uint64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// Int reads a signed integer written by Writer.Int.
func (r *Reader) Int() int { return int(int64(r.Uint64())) }

// Int64 reads a signed 64-bit value.
func (r *Reader) Int64() int64 { return int64(r.Uint64()) }

// Bool reads one byte and requires it to be 0 or 1.
func (r *Reader) Bool() bool {
	b := r.take(1)
	if b == nil {
		return false
	}
	switch b[0] {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail(fmt.Errorf("binio: invalid bool byte %#x", b[0]))
		return false
	}
}

// Float64 reads an IEEE-754 value.
func (r *Reader) Float64() float64 { return math.Float64frombits(r.Uint64()) }

// length reads a length prefix and bounds it by the bytes actually present
// (elemSize bytes per element), so a corrupted length cannot drive a huge
// allocation.
func (r *Reader) length(elemSize int) int {
	n := r.Uint64()
	if r.err != nil {
		return 0
	}
	if max := uint64(r.Remaining() / elemSize); n > max {
		r.fail(fmt.Errorf("binio: declared length %d exceeds remaining payload (%d elems): %w", n, max, io.ErrUnexpectedEOF))
		return 0
	}
	return int(n)
}

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := r.length(1)
	b := r.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

// Float64s reads a length-prefixed float64 slice; a zero length yields nil.
func (r *Reader) Float64s() []float64 {
	n := r.length(8)
	if n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = r.Float64()
	}
	return out
}

// Ints reads a length-prefixed int slice; a zero length yields nil.
func (r *Reader) Ints() []int {
	n := r.length(8)
	if n == 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = r.Int()
	}
	return out
}

// Int64s reads a length-prefixed int64 slice; a zero length yields nil.
func (r *Reader) Int64s() []int64 {
	n := r.length(8)
	if n == 0 {
		return nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = r.Int64()
	}
	return out
}
