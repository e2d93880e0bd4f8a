package service

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"

	"a4sim/internal/scenario"
)

// extendSpec is testSpec with an adjustable measurement window.
func extendSpec(seed uint64, measure float64) *scenario.Spec {
	sp := testSpec(seed)
	sp.MeasureSec = measure
	return sp
}

// freshReport runs sp serially out of band and returns its encoded report —
// the ground truth every snapshot-forked serving path must reproduce.
func freshReport(t *testing.T, sp *scenario.Spec) []byte {
	t.Helper()
	rep, err := sp.Run()
	if err != nil {
		t.Fatal(err)
	}
	data, err := rep.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestExtendContinuesFromSnapshot pins the /extend contract: extending a
// previously served run to a longer measurement window forks the cached
// warm snapshot, simulates only the additional seconds, and still returns
// bytes identical to a fresh serial run of the longer spec.
func TestExtendContinuesFromSnapshot(t *testing.T) {
	svc := New(Config{Workers: 2})
	defer svc.Close()

	first, err := svc.Submit(context.Background(), extendSpec(11, 1))
	if err != nil {
		t.Fatal(err)
	}
	ext, err := svc.Extend(context.Background(), first.Hash, 3)
	if err != nil {
		t.Fatal(err)
	}
	if ext.Hash == first.Hash {
		t.Fatal("extended run must have a new content address")
	}
	st := svc.Stats()
	if st.SnapshotForks == 0 {
		t.Error("extend did not fork the cached snapshot")
	}
	if st.SnapshotEntries == 0 {
		t.Error("no snapshot retained")
	}
	if want := freshReport(t, extendSpec(11, 3)); !bytes.Equal(ext.Report, want) {
		t.Fatalf("extended report differs from fresh serial run:\n%s\nvs\n%s", ext.Report, want)
	}
	// Extending the extension continues from the newer snapshot.
	ext2, err := svc.Extend(context.Background(), ext.Hash, 5)
	if err != nil {
		t.Fatal(err)
	}
	if want := freshReport(t, extendSpec(11, 5)); !bytes.Equal(ext2.Report, want) {
		t.Fatal("second extension diverged from fresh serial run")
	}

	if _, err := svc.Extend(context.Background(), "no-such-hash", 2); !errors.Is(err, ErrUnknownHash) {
		t.Errorf("unknown hash: got %v, want ErrUnknownHash", err)
	}
	if _, err := svc.Extend(context.Background(), first.Hash, -1); err == nil {
		t.Error("negative measure_sec must be rejected")
	}
}

// TestSubmitReusesPrefixSnapshots pins that the plain /run path also forks
// a resident snapshot when a longer window of a known prefix arrives, with
// byte-identical output; and that a shorter-window request never misuses a
// longer snapshot.
func TestSubmitReusesPrefixSnapshots(t *testing.T) {
	svc := New(Config{Workers: 2})
	defer svc.Close()

	if _, err := svc.Submit(context.Background(), extendSpec(12, 2)); err != nil {
		t.Fatal(err)
	}
	longer, err := svc.Submit(context.Background(), extendSpec(12, 4))
	if err != nil {
		t.Fatal(err)
	}
	if got := svc.Stats().SnapshotForks; got != 1 {
		t.Errorf("snapshot forks = %d, want 1", got)
	}
	if want := freshReport(t, extendSpec(12, 4)); !bytes.Equal(longer.Report, want) {
		t.Fatal("snapshot-forked run differs from fresh serial run")
	}
	// Shorter than the resident snapshot: must run fresh, not reuse.
	shorter, err := svc.Submit(context.Background(), extendSpec(12, 1))
	if err != nil {
		t.Fatal(err)
	}
	if got := svc.Stats().SnapshotForks; got != 1 {
		t.Errorf("shorter window reused a longer snapshot (forks = %d)", got)
	}
	if want := freshReport(t, extendSpec(12, 1)); !bytes.Equal(shorter.Report, want) {
		t.Fatal("shorter run differs from fresh serial run")
	}
}

// TestSweepChainsPrefixRows pins that a measure_sec-axis sweep forks later
// rows from earlier rows' snapshots and that every row stays byte-identical
// to its fresh serial run, at any worker count.
func TestSweepChainsPrefixRows(t *testing.T) {
	svc := New(Config{Workers: 4})
	defer svc.Close()

	req := &SweepRequest{
		Spec: *extendSpec(14, 0),
		Axes: []Axis{{Param: "measure_sec", Values: []float64{1, 2, 3}}},
	}
	points, err := svc.Sweep(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("got %d points", len(points))
	}
	if got := svc.Stats().SnapshotForks; got != 2 {
		t.Errorf("snapshot forks = %d, want 2 (rows 2 and 3 chained)", got)
	}
	for i, meas := range []float64{1, 2, 3} {
		if want := freshReport(t, extendSpec(14, meas)); !bytes.Equal(points[i].Report, want) {
			t.Errorf("sweep row %d (measure %g) differs from fresh serial run", i, meas)
		}
	}
}

// TestConcurrentExtendsAreConsistent hammers one prefix from several
// goroutines with growing windows; every response must match its fresh run.
func TestConcurrentExtendsAreConsistent(t *testing.T) {
	svc := New(Config{Workers: 4})
	defer svc.Close()

	windows := []float64{1, 2, 3, 4}
	reports := make([][]byte, len(windows))
	errs := make([]error, len(windows))
	var wg sync.WaitGroup
	for i, m := range windows {
		wg.Add(1)
		go func(i int, m float64) {
			defer wg.Done()
			res, err := svc.Submit(context.Background(), extendSpec(15, m))
			reports[i], errs[i] = res.Report, err
		}(i, m)
	}
	wg.Wait()
	for i, m := range windows {
		if errs[i] != nil {
			t.Fatalf("window %g: %v", m, errs[i])
		}
		if want := freshReport(t, extendSpec(15, m)); !bytes.Equal(reports[i], want) {
			t.Errorf("window %g differs from fresh serial run", m)
		}
	}
}

// TestGroupByPrefix unit-tests the sweep grouping: same-prefix rows chain
// shortest-first; distinct prefixes split.
func TestGroupByPrefix(t *testing.T) {
	specs := []*scenario.Spec{
		extendSpec(1, 3),
		extendSpec(2, 1), // different seed -> different prefix
		extendSpec(1, 1),
		extendSpec(1, 0), // default window (3): ties keep grid order
	}
	groups := GroupSpecsByPrefix(specs)
	if len(groups) != 2 {
		t.Fatalf("got %d groups, want 2", len(groups))
	}
	// First-appearance order: seed-1 group first, sorted ascending by
	// effective measure with the tie (3 vs default 3) in grid order.
	want := []int{2, 0, 3}
	for i, idx := range groups[0] {
		if idx != want[i] {
			t.Fatalf("group 0 = %v, want %v", groups[0], want)
		}
	}
	if len(groups[1]) != 1 || groups[1][0] != 1 {
		t.Fatalf("group 1 = %v, want [1]", groups[1])
	}
}
