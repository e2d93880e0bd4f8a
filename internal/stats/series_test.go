package stats

import (
	"bytes"
	"testing"

	"a4sim/internal/codec"
)

func TestSeriesAppendAndReduce(t *testing.T) {
	s := NewSeries("a", "b")
	if s.Len() != 0 {
		t.Fatalf("empty series Len = %d", s.Len())
	}
	s.Append(1, 10)
	s.Append(2, 20)
	s.Append(3, 30)
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	if got := s.Sum("a"); got != 6 {
		t.Fatalf("Sum(a) = %g, want 6", got)
	}
	if got := s.SumInt("b"); got != 60 {
		t.Fatalf("SumInt(b) = %d, want 60", got)
	}
	if s.Column("nope") != nil {
		t.Fatal("Column of unknown name should be nil")
	}
	if got := s.Tail("b", 2); len(got) != 2 || got[0] != 20 || got[1] != 30 {
		t.Fatalf("Tail(b, 2) = %v", got)
	}
	if got := s.Tail("b", 99); len(got) != 3 {
		t.Fatalf("Tail(b, 99) = %v", got)
	}
	if got := s.Tail("b", 0); len(got) != 0 {
		t.Fatalf("Tail(b, 0) = %v, want empty", got)
	}
	if got := s.Tail("b", -1); len(got) != 0 {
		t.Fatalf("Tail(b, -1) = %v, want empty", got)
	}
}

// Reducing a column left-to-right must be bit-identical to the incremental
// accumulator it replaced — same additions, same order.
func TestSeriesSumMatchesIncremental(t *testing.T) {
	s := NewSeries("v")
	var acc float64
	vals := []float64{0.1, 0.7, 1e-9, 3.14159, 0.1, 42.5}
	for _, v := range vals {
		s.Append(v)
		acc += v
	}
	if got := s.Sum("v"); got != acc {
		t.Fatalf("Sum = %x, incremental = %x", got, acc)
	}
}

func TestSeriesAppendArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("short row should panic")
		}
	}()
	NewSeries("a", "b").Append(1)
}

func TestSeriesDuplicateColumnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate column should panic")
		}
	}()
	NewSeries("a", "a")
}

// TestSeriesStateRoundTripIndependent pins the snapshot form of a series:
// the decoded copy has the same rows and shares no storage with the
// original.
func TestSeriesStateRoundTripIndependent(t *testing.T) {
	s := NewSeries("a")
	s.Append(1)
	w := &codec.Writer{}
	s.EncodeState(w)
	r := codec.NewReader(w.Bytes())
	c := DecodeSeriesState(r)
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	s.Append(2)
	if c.Len() != 1 || s.Len() != 2 {
		t.Fatalf("decoded rows = %d (want 1), original = %d (want 2)", c.Len(), s.Len())
	}
	c.Append(9)
	if s.Column("a")[1] != 2 {
		t.Fatal("decoded append leaked into original")
	}
}

func TestSeriesEncodeCanonicalRoundTrip(t *testing.T) {
	s := NewSeries("b", "a") // declaration order, not sorted
	s.Append(1.5, 2)
	s.Append(0.25, -3)
	data, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	want := `{"hz":1,"len":2,"columns":[{"name":"b","values":[1.5,0.25]},{"name":"a","values":[2,-3]}]}`
	if string(data) != want {
		t.Fatalf("encoding = %s\nwant %s", data, want)
	}
	back, err := DecodeSeries(data)
	if err != nil {
		t.Fatal(err)
	}
	data2, err := back.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatalf("round trip changed bytes: %s vs %s", data, data2)
	}
}

func TestSeriesEmptyEncode(t *testing.T) {
	s := NewSeries("a")
	data, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	want := `{"hz":1,"len":0,"columns":[{"name":"a","values":[]}]}`
	if string(data) != want {
		t.Fatalf("empty encoding = %s, want %s", data, want)
	}
}

func TestDecodeSeriesRejectsRaggedColumns(t *testing.T) {
	_, err := DecodeSeries([]byte(`{"hz":1,"len":2,"columns":[{"name":"a","values":[1]}]}`))
	if err == nil {
		t.Fatal("ragged column should fail decode")
	}
	_, err = DecodeSeries([]byte(`{"hz":1,"len":1,"columns":[{"name":"a","values":[1]},{"name":"a","values":[2]}]}`))
	if err == nil {
		t.Fatal("duplicate column should fail decode")
	}
}
