package scenario

import (
	"bytes"
	"testing"

	"a4sim/internal/harness"
)

// fuzzSnapSpec is the builtin tiny mix with the full telemetry plane, so
// the open measurement window's series rides the snapshots under fuzz.
func fuzzSnapSpec(tb testing.TB) *Spec {
	tb.Helper()
	sp, err := BuiltinMix("tiny")
	if err != nil {
		tb.Fatal(err)
	}
	sp.Series = &SeriesSpec{}
	return sp
}

// FuzzDecodeSnapshot feeds arbitrary bytes to the whole snapshot decoder,
// each input onto a fresh Spec.Start skeleton of the tiny mix, the way the
// service rehydrates a stored or handed-off snapshot. Whatever the bytes,
// decoding must not panic, and a decode that succeeds must round-trip:
// the restored state, encoded again through a fork, gives exactly the
// input bytes (the encoding is canonical, which lets DecodeSnapshot keep
// the bytes it validated), and those decode again onto another fresh
// skeleton to the same bytes. The corpus is seeded with encoded snapshots
// taken at 0, 1 and 2 measured seconds.
//
// Run with `go test -run='^$' -fuzz=FuzzDecodeSnapshot ./internal/scenario`.
func FuzzDecodeSnapshot(f *testing.F) {
	sp := fuzzSnapSpec(f)
	skeleton := func(tb testing.TB) *harness.Scenario {
		tb.Helper()
		s, err := sp.Clone().Start()
		if err != nil {
			tb.Fatal(err)
		}
		return s
	}
	for _, k := range []float64{0, 1, 2} {
		s := skeleton(f)
		s.Warm(sp.WarmupSec)
		s.BeginMeasure()
		s.Measure(k)
		data, err := s.Snapshot().Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte("A4SN"))

	f.Fuzz(func(t *testing.T, data []byte) {
		sn, err := harness.DecodeSnapshot(data, skeleton(t))
		if err != nil {
			return
		}
		first, err := sn.Fork().Snapshot().Encode()
		if err != nil {
			t.Fatalf("decoded snapshot does not encode: %v", err)
		}
		if !bytes.Equal(first, data) {
			t.Fatal("decode → encode changed the bytes: the decoder accepted a non-canonical stream")
		}
		again, err := harness.DecodeSnapshot(first, skeleton(t))
		if err != nil {
			t.Fatalf("re-encoded snapshot does not decode: %v", err)
		}
		second, err := again.Encode()
		if err != nil {
			t.Fatalf("re-decoded snapshot does not encode: %v", err)
		}
		if !bytes.Equal(first, second) {
			t.Fatal("encode → decode → encode changed the bytes")
		}
	})
}
