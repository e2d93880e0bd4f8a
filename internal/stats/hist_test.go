package stats

import (
	"bytes"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// TestHistogramQuantileGoldens pins the bucket scheme: for 1..1000 recorded
// once each, the quantiles are the lower bounds of the log-linear buckets
// holding the exact ranks. Changing histSubBits (or the index arithmetic)
// breaks these on purpose.
func TestHistogramQuantileGoldens(t *testing.T) {
	h := NewHistogram()
	for v := int64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	for _, tc := range []struct {
		p    float64
		want float64
	}{
		{0, 1}, // rank clamps to 1
		{0.50, 496},
		{0.90, 896},
		{0.99, 976},
		{0.999, 992},
		{1.0, 992},
	} {
		if got := h.Quantile(tc.p); got != tc.want {
			t.Errorf("Quantile(%g) = %g, want %g", tc.p, got, tc.want)
		}
	}
	if h.Count() != 1000 {
		t.Errorf("Count = %d, want 1000", h.Count())
	}
	if h.Sum() != 500500 {
		t.Errorf("Sum = %d, want 500500", h.Sum())
	}
}

// TestHistogramSmallValuesExact: below one octave of sub-buckets every value
// has its own bucket, so quantiles are exact.
func TestHistogramSmallValuesExact(t *testing.T) {
	h := NewHistogram()
	for v := int64(0); v < 32; v++ {
		h.Observe(v)
	}
	for v := 0; v < 32; v++ {
		p := float64(v+1) / 32
		if got := h.Quantile(p); got != float64(v) {
			t.Fatalf("Quantile(%g) = %g, want %d", p, got, v)
		}
	}
}

// TestHistogramRelativeError: every recorded value is reported within one
// bucket width, i.e. the quantile never over-reports and under-reports by
// less than ~3.2%.
func TestHistogramRelativeError(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		v := rng.Int63n(1 << 40)
		h := NewHistogram()
		h.Observe(v)
		got := int64(h.Quantile(0.5))
		if got > v {
			t.Fatalf("value %d reported as %d (over)", v, got)
		}
		if v >= 32 && float64(v-got) > float64(v)/32 {
			t.Fatalf("value %d reported as %d: error beyond one bucket", v, got)
		}
	}
}

func (h *Histogram) mustEncode(t *testing.T) []byte {
	t.Helper()
	data, err := h.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestHistogramMergeAssociative: merging per-client histograms in any
// grouping equals recording every value into one — bucket-wise addition is
// exact. Equality is checked on canonical bytes, the same way the service
// compares everything else.
func TestHistogramMergeAssociative(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	parts := make([]*Histogram, 3)
	all := NewHistogram()
	for i := range parts {
		parts[i] = NewHistogram()
		for j := 0; j < 500; j++ {
			v := rng.Int63n(1 << 30)
			parts[i].Observe(v)
			all.Observe(v)
		}
	}
	// (a ⊕ b) ⊕ c
	left := NewHistogram()
	left.Merge(parts[0])
	left.Merge(parts[1])
	left.Merge(parts[2])
	// a ⊕ (b ⊕ c)
	bc := NewHistogram()
	bc.Merge(parts[1])
	bc.Merge(parts[2])
	right := NewHistogram()
	right.Merge(parts[0])
	right.Merge(bc)
	want := all.mustEncode(t)
	if got := left.mustEncode(t); !bytes.Equal(got, want) {
		t.Errorf("(a+b)+c != direct: %s vs %s", got, want)
	}
	if got := right.mustEncode(t); !bytes.Equal(got, want) {
		t.Errorf("a+(b+c) != direct: %s vs %s", got, want)
	}
}

// TestHistogramJSONRoundTrip: canonical encode → decode → encode is the
// identity, and the decoded histogram answers the same quantiles.
func TestHistogramJSONRoundTrip(t *testing.T) {
	h := NewHistogram()
	for v := int64(1); v <= 777; v++ {
		h.Observe(v * 3)
	}
	data := h.mustEncode(t)
	back, err := DecodeHistogram(data)
	if err != nil {
		t.Fatal(err)
	}
	if again := back.mustEncode(t); !bytes.Equal(again, data) {
		t.Errorf("re-encode differs:\n%s\n%s", again, data)
	}
	for _, p := range []float64{0.1, 0.5, 0.99} {
		if back.Quantile(p) != h.Quantile(p) {
			t.Errorf("Quantile(%g) changed across round-trip", p)
		}
	}
	// Tampered bytes must be rejected, not silently accepted.
	for _, bad := range []string{
		`{"sub_bits":4,"count":0,"sum":0,"buckets":[]}`,
		`{"sub_bits":5,"count":2,"sum":0,"buckets":[[3,1]]}`,
		`{"sub_bits":5,"count":2,"sum":0,"buckets":[[3,1],[2,1]]}`,
	} {
		if _, err := DecodeHistogram([]byte(bad)); err == nil {
			t.Errorf("DecodeHistogram accepted %s", bad)
		}
	}
}

// TestHistogramCumulative checks the exposition view against a brute-force
// count: cum[k] is exactly the number of recorded values strictly below
// bounds[k], bounds are strictly increasing powers of two, and the last
// bound covers the maximum recorded value.
func TestHistogramCumulative(t *testing.T) {
	h := NewHistogram()
	vals := []int64{0, 1, 3, 31, 32, 100, 1000, 65536, 1 << 30}
	for _, v := range vals {
		h.Observe(v)
	}
	bounds, cum := h.Cumulative()
	if len(bounds) != len(cum) || len(bounds) == 0 {
		t.Fatalf("bounds/cum lengths %d/%d", len(bounds), len(cum))
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for k, bound := range bounds {
		if k > 0 && bound <= bounds[k-1] {
			t.Fatalf("bounds not increasing at %d: %v", k, bounds)
		}
		var want uint64
		for _, v := range vals {
			if v < bound {
				want++
			}
		}
		if cum[k] != want {
			t.Errorf("cum[%d] (bound %d) = %d, want %d", k, bound, cum[k], want)
		}
	}
	if last := bounds[len(bounds)-1]; last <= vals[len(vals)-1] {
		t.Errorf("last bound %d does not cover max value %d", last, vals[len(vals)-1])
	}
	if b, c := NewHistogram().Cumulative(); b != nil || c != nil {
		t.Error("empty histogram should expose no buckets")
	}
}

// TestHistogramEmptyAndNegative: an empty histogram quantiles to 0, and
// negative observations clamp to the zero bucket instead of panicking.
func TestHistogramEmptyAndNegative(t *testing.T) {
	h := NewHistogram()
	if h.Quantile(0.5) != 0 {
		t.Error("empty quantile should be 0")
	}
	h.Observe(-5)
	if h.Count() != 1 || h.Sum() != 0 || h.Quantile(1) != 0 {
		t.Errorf("negative observation: count=%d sum=%d q=%g", h.Count(), h.Sum(), h.Quantile(1))
	}
}

// TestSyncHistogramConcurrent: concurrent observers lose nothing, and a
// snapshot equals one histogram that saw every value. Run it under -race.
func TestSyncHistogramConcurrent(t *testing.T) {
	var s SyncHistogram
	want := NewHistogram()
	var wg sync.WaitGroup
	for g := int64(0); g < 4; g++ {
		for v := int64(0); v < 1000; v++ {
			want.Observe(g*1000 + v)
		}
		wg.Add(1)
		go func(g int64) {
			defer wg.Done()
			for v := int64(0); v < 1000; v++ {
				s.Observe(g*1000 + v)
				if v%100 == 0 {
					s.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	got, _ := s.Snapshot().Encode()
	exp, _ := want.Encode()
	if !bytes.Equal(got, exp) {
		t.Errorf("snapshot %s, want %s", got, exp)
	}
}
