// Package codec implements the little-endian binary encoding used for
// durable snapshot state. It is deliberately tiny: a Writer that appends
// fixed-width integers, floats, and length-prefixed blobs to a growing
// buffer, and a Reader with a sticky error that decodes the same stream.
// Slices go in bulk: the writer grows the buffer once per slice and the
// reader bounds-checks once per slice, so multi-megabyte cache arrays do
// not pay a growth or bounds check per element.
//
// The encoding has no self-description: reader and writer must agree on the
// field order, which the per-package EncodeState/DecodeState pairs pin by
// construction. Structural mismatches (a decoded length that disagrees with
// the receiver's geometry) are reported through Reader.Fail so a single
// corrupt or stale byte stream degrades to one error, never a panic.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

// ErrTruncated is the sticky error a Reader reports when the stream ends
// before a requested field.
var ErrTruncated = errors.New("codec: truncated input")

// Writer appends fields to a buffer. All methods are infallible: the only
// failure mode of encoding is running out of memory.
type Writer struct {
	buf []byte
}

// Bytes returns the encoded stream.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the number of bytes written so far.
func (w *Writer) Len() int { return len(w.buf) }

// Raw appends b verbatim (no length prefix).
func (w *Writer) Raw(b []byte) { w.buf = append(w.buf, b...) }

// U8 appends one byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// Bool appends a byte: 1 for true, 0 for false.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// U32 appends a little-endian uint32.
func (w *Writer) U32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }

// U64 appends a little-endian uint64.
func (w *Writer) U64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

// I64 appends a little-endian int64.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Int appends an int as an int64.
func (w *Writer) Int(v int) { w.I64(int64(v)) }

// F64 appends a float64 as its IEEE-754 bits.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Blob appends a u32 length prefix followed by the bytes.
func (w *Writer) Blob(b []byte) {
	w.U32(uint32(len(b)))
	w.buf = append(w.buf, b...)
}

// Nested appends a u32 length prefix followed by whatever fn writes — the
// same bytes as Blob of fn's encoding, without encoding into a separate
// buffer first. If fn fails, the partial write is dropped.
func (w *Writer) Nested(fn func(*Writer) error) error {
	at := len(w.buf)
	w.U32(0)
	if err := fn(w); err != nil {
		w.buf = w.buf[:at]
		return err
	}
	binary.LittleEndian.PutUint32(w.buf[at:], uint32(len(w.buf)-at-4))
	return nil
}

// String appends s as a Blob.
func (w *Writer) String(s string) { w.Blob([]byte(s)) }

// Grow reserves room for n more bytes, so a caller that knows the size of
// what it is about to write pays for at most one reallocation.
func (w *Writer) Grow(n int) { w.buf = slices.Grow(w.buf, n) }

// extend appends n bytes to the buffer (growing it at most once) and
// returns them for the caller to fill.
func (w *Writer) extend(n int) []byte {
	w.buf = slices.Grow(w.buf, n)
	l := len(w.buf)
	w.buf = w.buf[:l+n]
	return w.buf[l:]
}

// U64s appends a u32 count followed by the values.
func (w *Writer) U64s(vs []uint64) {
	w.U32(uint32(len(vs)))
	b := w.extend(8 * len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint64(b[8*i:], v)
	}
}

// U32s appends a u32 count followed by the values.
func (w *Writer) U32s(vs []uint32) {
	w.U32(uint32(len(vs)))
	b := w.extend(4 * len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint32(b[4*i:], v)
	}
}

// I64s appends a u32 count followed by the values.
func (w *Writer) I64s(vs []int64) {
	w.U32(uint32(len(vs)))
	b := w.extend(8 * len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint64(b[8*i:], uint64(v))
	}
}

// F64s appends a u32 count followed by the values.
func (w *Writer) F64s(vs []float64) {
	w.U32(uint32(len(vs)))
	b := w.extend(8 * len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
	}
}

// Reader decodes a stream produced by Writer. The first failure — a
// truncated buffer or an explicit Fail from a structural check — sticks:
// every later read returns the zero value, so decode sequences need one
// error check at the end, not one per field.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader wraps data for decoding.
func NewReader(data []byte) *Reader { return &Reader{buf: data} }

// Err returns the sticky error, if any.
func (r *Reader) Err() error { return r.err }

// Fail records err (if none is already recorded) and poisons further reads.
// Decode methods use it to reject structurally inconsistent input.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Failf is Fail with formatting.
func (r *Reader) Failf(format string, args ...any) {
	r.Fail(fmt.Errorf(format, args...))
}

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// take returns the next n bytes, or nil after setting the sticky error.
func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.Remaining() < n {
		r.Fail(ErrTruncated)
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// Raw returns the next n bytes verbatim.
func (r *Reader) Raw(n int) []byte { return r.take(n) }

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads one byte and rejects anything but 0 or 1.
func (r *Reader) Bool() bool {
	switch r.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.Fail(errors.New("codec: invalid bool"))
		return false
	}
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads a little-endian int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Int reads an int64 and returns it as int.
func (r *Reader) Int() int { return int(r.I64()) }

// F64 reads a float64 from its IEEE-754 bits.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// count reads a u32 length prefix and bounds it by the bytes remaining
// (each element occupies at least elemSize bytes), so corrupt input cannot
// drive a huge allocation.
func (r *Reader) count(elemSize int) int {
	n := int(r.U32())
	if r.err != nil {
		return 0
	}
	if n*elemSize > r.Remaining() {
		r.Fail(ErrTruncated)
		return 0
	}
	return n
}

// Blob reads a length-prefixed byte slice (copied out of the buffer).
func (r *Reader) Blob() []byte {
	n := r.count(1)
	b := r.take(n)
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}

// String reads a Blob as a string.
func (r *Reader) String() string { return string(r.Blob()) }

// slice reads a u32 count and the n*elemSize bytes behind it with one
// bounds check, returning the count and the element bytes (nil and 0 on
// error or an empty slice).
func (r *Reader) slice(elemSize int) ([]byte, int) {
	n := r.count(elemSize)
	b := r.take(n * elemSize)
	if b == nil || n == 0 {
		return nil, 0
	}
	return b, n
}

// U64s reads a count-prefixed []uint64.
func (r *Reader) U64s() []uint64 {
	b, n := r.slice(8)
	if n == 0 {
		return nil
	}
	vs := make([]uint64, n)
	for i := range vs {
		vs[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	return vs
}

// U32s reads a count-prefixed []uint32.
func (r *Reader) U32s() []uint32 {
	b, n := r.slice(4)
	if n == 0 {
		return nil
	}
	vs := make([]uint32, n)
	for i := range vs {
		vs[i] = binary.LittleEndian.Uint32(b[4*i:])
	}
	return vs
}

// I64s reads a count-prefixed []int64.
func (r *Reader) I64s() []int64 {
	b, n := r.slice(8)
	if n == 0 {
		return nil
	}
	vs := make([]int64, n)
	for i := range vs {
		vs[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return vs
}

// F64s reads a count-prefixed []float64.
func (r *Reader) F64s() []float64 {
	b, n := r.slice(8)
	if n == 0 {
		return nil
	}
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return vs
}
