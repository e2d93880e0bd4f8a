package codec

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"testing"
)

// bulkSlices returns one slice of every bulk type, each n elements long,
// filled with values that exercise every byte of the encoding.
func bulkSlices(n int) (u64 []uint64, u32 []uint32, i64 []int64, f64 []float64) {
	for i := 0; i < n; i++ {
		x := uint64(i) * 0x9E3779B97F4A7C15
		u64 = append(u64, x)
		u32 = append(u32, uint32(x>>17))
		i64 = append(i64, -int64(x>>3))
		f64 = append(f64, math.Float64frombits(x>>2))
	}
	return
}

func writeBulk(w *Writer, n int) {
	u64, u32, i64, f64 := bulkSlices(n)
	w.U64s(u64)
	w.U32s(u32)
	w.I64s(i64)
	w.F64s(f64)
}

// TestBulkRoundTrip pins the bulk slice codecs on empty, small and large
// slices: every value survives, an empty slice decodes as nil, and the
// stream is consumed exactly.
func TestBulkRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 7, 1 << 16} {
		w := &Writer{}
		writeBulk(w, n)
		if want := 4*4 + n*(8+4+8+8); w.Len() != want {
			t.Fatalf("n=%d: encoded %d bytes, want %d", n, w.Len(), want)
		}
		r := NewReader(w.Bytes())
		u64, u32, i64, f64 := r.U64s(), r.U32s(), r.I64s(), r.F64s()
		if err := r.Err(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if r.Remaining() != 0 {
			t.Fatalf("n=%d: %d bytes left over", n, r.Remaining())
		}
		wu64, wu32, wi64, wf64 := bulkSlices(n)
		for _, c := range []struct{ got, want any }{
			{u64, wu64}, {u32, wu32}, {i64, wi64},
		} {
			if !reflect.DeepEqual(c.got, c.want) {
				t.Fatalf("n=%d: decoded %T differs", n, c.got)
			}
		}
		if len(f64) != len(wf64) {
			t.Fatalf("n=%d: decoded %d floats, want %d", n, len(f64), len(wf64))
		}
		for i := range f64 {
			if math.Float64bits(f64[i]) != math.Float64bits(wf64[i]) {
				t.Fatalf("n=%d: float %d decoded as %v, want %v", n, i, f64[i], wf64[i])
			}
		}
	}
}

// TestBulkMatchesScalar pins the wire shape: a bulk slice is its count
// followed by the same bytes the scalar writers produce element by
// element.
func TestBulkMatchesScalar(t *testing.T) {
	u64, u32, i64, f64 := bulkSlices(33)
	bulk, scalar := &Writer{}, &Writer{}
	writeBulk(bulk, 33)
	scalar.U32(33)
	for _, v := range u64 {
		scalar.U64(v)
	}
	scalar.U32(33)
	for _, v := range u32 {
		scalar.U32(v)
	}
	scalar.U32(33)
	for _, v := range i64 {
		scalar.I64(v)
	}
	scalar.U32(33)
	for _, v := range f64 {
		scalar.F64(v)
	}
	if !bytes.Equal(bulk.Bytes(), scalar.Bytes()) {
		t.Fatal("bulk encoding differs from the element-by-element encoding")
	}
}

// TestTruncatedBulkSlice cuts the stream inside each bulk slice: every
// read must come back empty with ErrTruncated — never a panic, never a
// partially filled slice.
func TestTruncatedBulkSlice(t *testing.T) {
	w := &Writer{}
	writeBulk(w, 100)
	data := w.Bytes()
	readers := []func(r *Reader) int{
		func(r *Reader) int { return len(r.U64s()) },
		func(r *Reader) int { return len(r.U32s()) },
		func(r *Reader) int { return len(r.I64s()) },
		func(r *Reader) int { return len(r.F64s()) },
	}
	for cut := 0; cut < len(data); cut += 13 {
		r := NewReader(data[:cut])
		for _, read := range readers {
			read(r)
		}
		if !errors.Is(r.Err(), ErrTruncated) {
			t.Fatalf("cut at %d of %d: err %v, want ErrTruncated", cut, len(data), r.Err())
		}
		// Once failed, every later bulk read is empty.
		for _, read := range readers {
			if n := read(r); n != 0 {
				t.Fatalf("cut at %d: read %d elements after the failure", cut, n)
			}
		}
	}

	// A count that promises more elements than the buffer holds fails
	// before allocating.
	huge := &Writer{}
	huge.U32(math.MaxUint32)
	huge.U64(1)
	r := NewReader(huge.Bytes())
	if vs := r.U64s(); vs != nil || !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("oversized count: got %d values, err %v", len(vs), r.Err())
	}
}

// TestNestedMatchesBlob pins Nested as a copy-free Blob: the same bytes as
// encoding into a separate buffer first, and nothing at all when the
// nested encoder fails.
func TestNestedMatchesBlob(t *testing.T) {
	inner := func(w *Writer) error {
		w.Raw([]byte("hdr"))
		writeBulk(w, 9)
		return nil
	}
	sep := &Writer{}
	inner(sep)
	blob, nested := &Writer{}, &Writer{}
	blob.U64(42)
	blob.Blob(sep.Bytes())
	nested.U64(42)
	nested.Grow(1 << 10)
	if err := nested.Nested(inner); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob.Bytes(), nested.Bytes()) {
		t.Fatal("Nested differs from Blob of the same encoding")
	}

	boom := errors.New("boom")
	err := nested.Nested(func(w *Writer) error {
		w.U64s(make([]uint64, 50))
		return boom
	})
	if !errors.Is(err, boom) || !bytes.Equal(blob.Bytes(), nested.Bytes()) {
		t.Fatalf("failed Nested left %d bytes behind (err %v)", nested.Len()-blob.Len(), err)
	}
}
