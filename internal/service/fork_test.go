package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"a4sim/internal/scenario"
	"a4sim/internal/sim"
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

// TestShorterWindowKeepsFurtherSnapshot pins that the warm snapshot a
// prefix keeps is the one whose window has run furthest: a shorter run of
// the same prefix executes fresh and deposits its own state, which must not
// replace the longer one, so the exported snapshot still holds 2 s.
func TestShorterWindowKeepsFurtherSnapshot(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()
	for _, m := range []float64{2, 1} {
		if _, err := svc.Submit(context.Background(), tinySpec(t, m)); err != nil {
			t.Fatal(err)
		}
	}
	prefix, err := tinySpec(t, 1).PrefixHash()
	if err != nil {
		t.Fatal(err)
	}
	data, ok := svc.SnapshotBytes(prefix)
	if !ok {
		t.Fatal("no snapshot resident for the prefix")
	}
	snap, _, err := decodeWrappedSnapshot(prefix, data)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := snap.WindowEpochs(), sim.Epochs(2); got != want {
		t.Errorf("resident snapshot window = %d epochs, want %d", got, want)
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
// shortest-first, fractional windows included; distinct prefixes split.
func TestGroupByPrefix(t *testing.T) {
	specs := []*scenario.Spec{
		extendSpec(1, 3),
		extendSpec(2, 1), // different seed -> different prefix
		extendSpec(1, 1),
		extendSpec(1, 0), // default window (3): ties keep grid order
		extendSpec(1, 2.5),
		extendSpec(2, 0.4),
	}
	groups := GroupSpecsByPrefix(specs)
	if len(groups) != 2 {
		t.Fatalf("got %d groups, want 2", len(groups))
	}
	// First-appearance order: seed-1 group first, sorted ascending by
	// effective measure with the tie (3 vs default 3) in grid order.
	for g, want := range [][]int{{2, 4, 0, 3}, {5, 1}} {
		if fmt.Sprint(groups[g]) != fmt.Sprint(want) {
			t.Fatalf("group %d = %v, want %v", g, groups[g], want)
		}
	}
}

// tinySpec is the builtin tiny mix with the given measurement window.
func tinySpec(t *testing.T, measure float64) *scenario.Spec {
	t.Helper()
	sp, err := scenario.BuiltinMix("tiny")
	if err != nil {
		t.Fatal(err)
	}
	sp.MeasureSec = measure
	return sp
}

// TestFractionalWindowsContinue pins that the service continues any
// measurement window, not only whole seconds: each extension forks the
// snapshot the previous window deposited and is byte-identical to a fresh
// run. The last chain splits at half an epoch (1.0015 s rounds to 1002
// epochs, 2.003 s to 2003), so a continuation that measured the
// difference in seconds instead of epochs would run one epoch too many.
func TestFractionalWindowsContinue(t *testing.T) {
	for _, chain := range [][]float64{{1, 1.5, 2.25}, {0.4, 1.7}, {1.0015, 2.003}} {
		svc := New(Config{Workers: 1})
		res, err := svc.Submit(context.Background(), tinySpec(t, chain[0]))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range chain[1:] {
			forks := svc.Stats().SnapshotForks
			if res, err = svc.Extend(context.Background(), res.Hash, m); err != nil {
				t.Fatal(err)
			}
			if got := svc.Stats().SnapshotForks; got != forks+1 {
				t.Errorf("chain %v: extending to %g did not fork (forks %d -> %d)", chain, m, forks, got)
			}
			if want := freshReport(t, tinySpec(t, m)); !bytes.Equal(res.Report, want) {
				t.Errorf("chain %v: window %g differs from a fresh run", chain, m)
			}
		}
		svc.Close()
	}
}
