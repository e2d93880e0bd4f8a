package service

import (
	"bytes"
	"context"
	"testing"

	"a4sim/internal/scenario"
)

// seriesSpec is testSpec with the telemetry plane enabled.
func seriesSpec(seed uint64, measure float64) *scenario.Spec {
	sp := testSpec(seed)
	sp.MeasureSec = measure
	sp.Series = &scenario.SeriesSpec{} // all groups
	return sp
}

// TestSeriesStoredBesideReport pins the storage contract: a run whose spec
// carries a series block serves its per-second telemetry by content
// address, and a run without one serves nothing time-resolved.
func TestSeriesStoredBesideReport(t *testing.T) {
	svc := New(Config{Workers: 2})
	defer svc.Close()

	res, err := svc.Submit(context.Background(), seriesSpec(21, 2))
	if err != nil {
		t.Fatal(err)
	}
	series, ok := svc.Series(res.Hash)
	if !ok {
		t.Fatal("no series stored for a series-enabled run")
	}
	rep, err := scenario.DecodeReport(res.Report)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Series == nil || rep.Series.Len() != 2 {
		t.Fatalf("report series rows = %v, want 2", rep.Series)
	}
	repSeries, err := rep.Series.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(series, repSeries) {
		t.Error("stored series differs from the report's embedded series")
	}

	plain, err := svc.Submit(context.Background(), testSpec(22))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := svc.Series(plain.Hash); ok {
		t.Error("series served for a run without a series block")
	}
	if _, ok := svc.Series("no-such-hash"); ok {
		t.Error("series served for an unknown hash")
	}
}

// TestSeriesAbsenceKeepsHashes pins the cache-compatibility guarantee: the
// series block is additive, so a spec without one must hash exactly as it
// did before the field existed — both content and prefix addresses.
func TestSeriesAbsenceKeepsHashes(t *testing.T) {
	with := seriesSpec(1, 1)
	without := testSpec(1)
	h1, err := without.Hash()
	if err != nil {
		t.Fatal(err)
	}
	h2, err := with.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 == h2 {
		t.Error("series block must change the content address (the report differs)")
	}
	p1, err := without.PrefixHash()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := with.PrefixHash()
	if err != nil {
		t.Fatal(err)
	}
	if p1 == p2 {
		t.Error("series block must change the prefix (snapshots carry the monitor's recording state)")
	}
	// The canonical bytes of the series-free spec contain no series field
	// at all — byte-compatible with pre-telemetry canonical encodings.
	canon, err := without.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(canon, []byte("series")) {
		t.Errorf("series leaked into a series-free canonical encoding: %s", canon)
	}
}

// TestExtendAppendsSeries pins the telemetry half of the /extend contract:
// extending a served series-enabled run continues its per-second series by
// appending seconds (via the warm-snapshot fork), and the result — report
// and series bytes — is identical to a fresh longer run on a cold service.
func TestExtendAppendsSeries(t *testing.T) {
	svc := New(Config{Workers: 2})
	defer svc.Close()

	first, err := svc.Submit(context.Background(), seriesSpec(31, 1))
	if err != nil {
		t.Fatal(err)
	}
	ext, err := svc.Extend(context.Background(), first.Hash, 4)
	if err != nil {
		t.Fatal(err)
	}
	if st := svc.Stats(); st.SnapshotForks == 0 {
		t.Error("extend did not fork the cached snapshot")
	}

	cold := New(Config{Workers: 1})
	defer cold.Close()
	fresh, err := cold.Submit(context.Background(), seriesSpec(31, 4))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ext.Report, fresh.Report) {
		t.Error("extend-appended report differs from fresh longer run")
	}
	extSeries, ok := svc.Series(ext.Hash)
	if !ok {
		t.Fatal("extended run has no stored series")
	}
	freshSeries, ok := cold.Series(fresh.Hash)
	if !ok {
		t.Fatal("fresh run has no stored series")
	}
	if !bytes.Equal(extSeries, freshSeries) {
		t.Errorf("extend-appended series differs from fresh longer run\next:   %.200s\nfresh: %.200s", extSeries, freshSeries)
	}
	rep, err := scenario.DecodeReport(ext.Report)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Series.Len() != 4 {
		t.Errorf("extended series has %d rows, want 4", rep.Series.Len())
	}
}

// TestSweepSeriesDeterministicAcrossWorkers pins serial-vs-parallel
// byte-identity with the series plane on: a measure_sec axis chains
// snapshot forks, and the appended series must not depend on the worker
// count or on whether a row forked or ran fresh.
func TestSweepSeriesDeterministicAcrossWorkers(t *testing.T) {
	req := func() *SweepRequest {
		sp := seriesSpec(41, 0)
		return &SweepRequest{
			Spec: *sp,
			Axes: []Axis{
				{Param: "measure_sec", Values: []float64{1, 2, 3}},
				{Param: "manager", Managers: []string{"default", "a4-d"}},
			},
		}
	}
	// The reference runs every point fresh and serially, with no service.
	specs, _, err := ExpandSweep(req())
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 6 {
		t.Fatalf("expected 6 grid points, got %d", len(specs))
	}
	serial := make([][]byte, len(specs))
	for i, sp := range specs {
		serial[i] = freshReport(t, sp)
	}
	for _, workers := range []int{2, 4} {
		svc := New(Config{Workers: workers})
		parallel, err := svc.Sweep(context.Background(), req()) // snapshot chaining on
		svc.Close()
		if err != nil {
			t.Fatal(err)
		}
		for i := range serial {
			if !bytes.Equal(serial[i], parallel[i].Report) {
				t.Fatalf("workers=%d: point %d (series-enabled) differs from fresh serial run", workers, i)
			}
		}
	}
}
