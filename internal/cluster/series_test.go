package cluster

import (
	"bytes"
	"context"
	"testing"

	"a4sim/internal/scenario"
	"a4sim/internal/service"
)

// seriesSpec is testSpec with the telemetry plane enabled.
func seriesSpec(seed uint64, measure float64) *scenario.Spec {
	sp := testSpec(seed)
	sp.MeasureSec = measure
	sp.Series = &scenario.SeriesSpec{}
	return sp
}

// TestClusterSeriesByteIdenticalToSingleNode pins the coordinator half of
// the telemetry determinism contract: a series-enabled run served through
// the sharded fleet — and its /series retrieval, routed by the content
// index — returns byte-identical report and series to a single local node.
func TestClusterSeriesByteIdenticalToSingleNode(t *testing.T) {
	coord := newCoordinator(t, newBackend(t).URL, newBackend(t).URL, newBackend(t).URL)

	local := service.New(service.Config{Workers: 1})
	defer local.Close()

	for _, seed := range []uint64{1, 2, 3, 4} {
		res, err := coord.Submit(context.Background(), seriesSpec(seed, 2))
		if err != nil {
			t.Fatal(err)
		}
		want, err := local.Submit(context.Background(), seriesSpec(seed, 2))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(res.Report, want.Report) {
			t.Fatalf("seed %d: coordinator report differs from single node", seed)
		}
		got, ok := coord.Series(res.Hash)
		if !ok {
			t.Fatalf("seed %d: coordinator cannot retrieve series %s", seed, res.Hash)
		}
		wantSeries, ok := local.Series(want.Hash)
		if !ok {
			t.Fatalf("seed %d: local node has no series", seed)
		}
		if !bytes.Equal(got, wantSeries) {
			t.Fatalf("seed %d: cluster-served series differs from single node", seed)
		}
	}
	if _, ok := coord.Series("deadbeef"); ok {
		t.Error("coordinator served a series for an unknown hash")
	}
}

// TestClusterExtendAppendsSeries pins that /extend through the coordinator
// lands on the snapshot-owning backend and appends to its series, matching
// a fresh longer run bit for bit.
func TestClusterExtendAppendsSeries(t *testing.T) {
	coord := newCoordinator(t, newBackend(t).URL, newBackend(t).URL)

	first, err := coord.Submit(context.Background(), seriesSpec(7, 1))
	if err != nil {
		t.Fatal(err)
	}
	ext, err := coord.Extend(context.Background(), first.Hash, 3)
	if err != nil {
		t.Fatal(err)
	}
	local := service.New(service.Config{Workers: 1})
	defer local.Close()
	fresh, err := local.Submit(context.Background(), seriesSpec(7, 3))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ext.Report, fresh.Report) {
		t.Error("cluster-extended report differs from fresh longer run")
	}
	got, ok := coord.Series(ext.Hash)
	if !ok {
		t.Fatal("extended run's series not retrievable through the coordinator")
	}
	want, ok := local.Series(fresh.Hash)
	if !ok {
		t.Fatal("fresh run has no series")
	}
	if !bytes.Equal(got, want) {
		t.Error("cluster-extended series differs from fresh longer run")
	}
}
