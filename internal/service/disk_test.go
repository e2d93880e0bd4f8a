package service

import (
	"bytes"
	"context"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"a4sim/internal/scenario"
	"a4sim/internal/store"
)

// openStore opens the durable store at dir, failing the test on error.
func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// seriesSpec is testSpec with the telemetry plane on, so series objects
// ride the disk plane too.
func diskSpec(seed uint64) *scenario.Spec {
	sp := testSpec(seed)
	sp.Series = &scenario.SeriesSpec{}
	return sp
}

// TestRestartServesPreCrashResults is the restart-rehydration property: a
// service is "killed" (abandoned without Close, as a crash would), a new
// one opens the same store directory, and the new instance serves the old
// instance's reports, series, and controller event logs, and extends its
// runs — byte-identically, without re-executing what disk already holds.
func TestRestartServesPreCrashResults(t *testing.T) {
	dir := t.TempDir()
	sp := diskSpec(11)
	sp.MeasureSec = 3 // long enough for the controller to log a decision

	svc1 := New(Config{Workers: 2, Store: openStore(t, dir)})
	r1, err := svc1.Submit(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	series1, ok := svc1.Series(r1.Hash)
	if !ok {
		t.Fatal("no series for the submitted run")
	}
	events1, ok := svc1.TraceEvents(r1.Hash, 0)
	if !ok || !bytes.Contains(events1, []byte(`"t=`)) {
		t.Fatalf("want a non-empty event log before the crash, got %s (ok=%v)", events1, ok)
	}
	// No svc1.Close(): the daemon dies here. Puts are synced at return, so
	// everything the submission answered with is already durable.

	svc2 := New(Config{Workers: 2, Store: openStore(t, dir)})
	defer svc2.Close()

	if events2, ok := svc2.TraceEvents(r1.Hash, 0); !ok || !bytes.Equal(events2, events1) {
		t.Errorf("event log after restart = %s (ok=%v), want %s", events2, ok, events1)
	}
	rep, ok := svc2.Lookup(r1.Hash)
	if !ok {
		t.Fatal("restarted service cannot serve the pre-crash report")
	}
	if !bytes.Equal(rep, r1.Report) {
		t.Fatal("pre-crash report served with different bytes after restart")
	}
	if series2, ok := svc2.Series(r1.Hash); !ok || !bytes.Equal(series2, series1) {
		t.Fatal("pre-crash series missing or changed after restart")
	}
	st := svc2.Stats()
	if st.StoreHits == 0 {
		t.Errorf("restart served without store hits: %+v", st)
	}
	if st.Executions != 0 {
		t.Errorf("restart re-executed a durably stored run: %+v", st)
	}

	// A re-submission of the same spec is a store-backed cache hit too.
	r2, err := svc2.Submit(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Cached || !bytes.Equal(r2.Report, r1.Report) {
		t.Error("re-submission after restart was not served from the store")
	}
	if st := svc2.Stats(); st.Executions != 0 {
		t.Errorf("re-submission after restart executed: %+v", st)
	}
}

// TestUndecodableRunObjectIsAMiss pins the store's read rule for run
// records: an object whose checksum verifies but whose payload is not a
// whole run record (here "{}", no report, spec or log) is a miss. The
// submission re-executes, its write replaces the object, and a restarted
// service then serves the run from the store without executing.
func TestUndecodableRunObjectIsAMiss(t *testing.T) {
	dir := t.TempDir()
	sp := diskSpec(15)
	hash, err := sp.Hash()
	if err != nil {
		t.Fatal(err)
	}
	disk := openStore(t, dir)
	if err := disk.Replace(store.KindRun, hash, []byte("{}")); err != nil {
		t.Fatal(err)
	}

	svc1 := New(Config{Workers: 1, Store: disk})
	r1, err := svc1.Submit(context.Background(), sp)
	svc1.Close()
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cached {
		t.Error("an undecodable run object was served as a hit")
	}
	if st := svc1.Stats(); st.Executions != 1 {
		t.Errorf("an undecodable run object did not force an execution: %+v", st)
	}
	if data, ok := disk.Get(store.KindRun, hash); !ok || bytes.Equal(data, []byte("{}")) {
		t.Errorf("the re-execution did not replace the undecodable run object (ok=%v)", ok)
	}

	svc2 := New(Config{Workers: 1, Store: openStore(t, dir)})
	defer svc2.Close()
	if rep, ok := svc2.Lookup(hash); !ok || !bytes.Equal(rep, r1.Report) {
		t.Fatal("restarted service did not serve the rewritten run record")
	}
	if st := svc2.Stats(); st.Executions != 0 {
		t.Errorf("restarted service executed a stored run: %+v", st)
	}
}

// TestRestartRehydratesConcurrently has readers of every by-hash surface
// and resubmitters race for one stored run on a restarted service (run it
// under -race): each sees the pre-crash bytes, and nothing executes.
func TestRestartRehydratesConcurrently(t *testing.T) {
	dir := t.TempDir()
	sp := diskSpec(16)
	svc1 := New(Config{Workers: 1, Store: openStore(t, dir)})
	r1, err := svc1.Submit(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	series1, _ := svc1.Series(r1.Hash)
	events1, _ := svc1.TraceEvents(r1.Hash, 0)
	svc1.Close()

	svc2 := New(Config{Workers: 1, Store: openStore(t, dir)})
	defer svc2.Close()
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var got, want []byte
			var ok bool
			switch c % 4 {
			case 0:
				got, ok = svc2.Lookup(r1.Hash)
				want = r1.Report
			case 1:
				got, ok = svc2.Series(r1.Hash)
				want = series1
			case 2:
				got, ok = svc2.TraceEvents(r1.Hash, 0)
				want = events1
			default:
				res, err := svc2.Submit(context.Background(), sp)
				got, ok, want = res.Report, err == nil && res.Cached, r1.Report
			}
			if !ok || !bytes.Equal(got, want) {
				t.Errorf("client %d: served %q (ok=%v), want the pre-crash bytes", c, got, ok)
			}
		}(c)
	}
	wg.Wait()
	if st := svc2.Stats(); st.Executions != 0 {
		t.Errorf("concurrent rehydration executed: %+v", st)
	}
}

// TestRestartExtendsPreCrashSnapshot pins warm-state durability: after a
// restart, extending a pre-crash run forks the snapshot rehydrated from
// disk — no fresh warm-up — and still renders bytes identical to running
// the longer spec from scratch.
func TestRestartExtendsPreCrashSnapshot(t *testing.T) {
	dir := t.TempDir()

	svc1 := New(Config{Workers: 2, Store: openStore(t, dir)})
	r1, err := svc1.Submit(context.Background(), diskSpec(12))
	if err != nil {
		t.Fatal(err)
	}
	// Crash. The warm snapshot at measure_sec=1 is on disk.

	svc2 := New(Config{Workers: 2, Store: openStore(t, dir)})
	defer svc2.Close()
	ext, err := svc2.Extend(context.Background(), r1.Hash, 2)
	if err != nil {
		t.Fatal(err)
	}
	st := svc2.Stats()
	if st.SnapshotForks != 1 {
		t.Errorf("extend after restart did not fork the disk snapshot: %+v", st)
	}

	// Byte-identity vs. a from-scratch run of the extended spec.
	longer := diskSpec(12)
	longer.MeasureSec = 2
	fresh := New(Config{Workers: 1})
	defer fresh.Close()
	want, err := fresh.Submit(context.Background(), longer)
	if err != nil {
		t.Fatal(err)
	}
	if ext.Hash != want.Hash || !bytes.Equal(ext.Report, want.Report) {
		t.Fatal("extended-from-disk report differs from a from-scratch run")
	}
}

// corruptOneObject flips a payload bit in the single object of the given
// kind under dir, returning its key.
func corruptOneObject(t *testing.T, dir, kind string) string {
	t.Helper()
	var path string
	root := filepath.Join(dir, "objects", kind)
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			path = p
		}
		return nil
	})
	if path == "" {
		t.Fatalf("no %s object found under %s", kind, root)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return filepath.Base(path)
}

// TestCorruptObjectsQuarantinedAndReExecuted injects corruption into every
// kind the service spills and proves each path degrades to correct
// re-execution: a flipped run object is quarantined and the run
// re-executes to the same bytes; a flipped snapshot is quarantined and the extension
// re-simulates from scratch — same bytes again; nothing is ever served
// from the damaged objects.
func TestCorruptObjectsQuarantinedAndReExecuted(t *testing.T) {
	dir := t.TempDir()
	svc1 := New(Config{Workers: 2, Store: openStore(t, dir)})
	r1, err := svc1.Submit(context.Background(), diskSpec(13))
	if err != nil {
		t.Fatal(err)
	}

	corruptOneObject(t, dir, store.KindRun)
	corruptOneObject(t, dir, store.KindSnap)

	svc2 := New(Config{Workers: 2, Store: openStore(t, dir)})
	defer svc2.Close()

	// The corrupt run object must not be served; the resubmission
	// re-executes and lands on identical bytes.
	r2, err := svc2.Submit(context.Background(), diskSpec(13))
	if err != nil {
		t.Fatal(err)
	}
	if r2.Cached {
		t.Error("corrupt run object was served as a cache hit")
	}
	if !bytes.Equal(r2.Report, r1.Report) {
		t.Fatal("re-executed report differs from the original")
	}
	st := svc2.Stats()
	if st.Executions != 1 {
		t.Errorf("corrupt run object did not force a re-execution: %+v", st)
	}
	if st.StoreQuarantined == 0 {
		t.Errorf("corruption left no quarantine trace: %+v", st)
	}

	// The flipped snapshot was quarantined by the read above (the execute
	// path probed it before running fresh); the rewritten warm state
	// deposited by the re-execution extends correctly.
	ext, err := svc2.Extend(context.Background(), r2.Hash, 2)
	if err != nil {
		t.Fatal(err)
	}
	longer := diskSpec(13)
	longer.MeasureSec = 2
	fresh := New(Config{Workers: 1})
	defer fresh.Close()
	want, err := fresh.Submit(context.Background(), longer)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ext.Report, want.Report) {
		t.Fatal("extension after snapshot corruption diverged from a fresh run")
	}
}

// TestInstallSnapshotRejectsBadBytes pins the handoff import's validation:
// garbage, truncations, and prefix-mismatched payloads are rejected with an
// error (never a panic, never a poisoned cache), while re-installing a
// correctly exported snapshot succeeds and seeds warm state.
func TestInstallSnapshotRejectsBadBytes(t *testing.T) {
	svc := New(Config{Workers: 2})
	defer svc.Close()
	sp := diskSpec(14)
	if _, err := svc.Submit(context.Background(), sp); err != nil {
		t.Fatal(err)
	}
	prefix, err := sp.PrefixHash()
	if err != nil {
		t.Fatal(err)
	}
	wrapped, ok := svc.SnapshotBytes(prefix)
	if !ok {
		t.Fatal("no exportable snapshot after a run")
	}

	dst := New(Config{Workers: 2})
	defer dst.Close()
	if err := dst.InstallSnapshot(prefix, []byte("certainly not a snapshot")); err == nil {
		t.Error("garbage snapshot accepted")
	}
	for _, n := range []int{0, 4, 12, len(wrapped) / 2, len(wrapped) - 1} {
		if err := dst.InstallSnapshot(prefix, wrapped[:n]); err == nil {
			t.Errorf("snapshot truncated to %d bytes accepted", n)
		}
	}
	if err := dst.InstallSnapshot(strings.Repeat("0", 64), append([]byte(nil), wrapped...)); err == nil {
		t.Error("snapshot installed under a foreign prefix")
	}
	if st := dst.Stats(); st.SnapshotEntries != 0 {
		t.Errorf("rejected installs leaked cache entries: %+v", st)
	}

	// The intact export installs, and the next longer run forks it.
	if err := dst.InstallSnapshot(prefix, wrapped); err != nil {
		t.Fatal(err)
	}
	longer := diskSpec(14)
	longer.MeasureSec = 2
	res, err := dst.Submit(context.Background(), longer)
	if err != nil {
		t.Fatal(err)
	}
	st := dst.Stats()
	if st.SnapshotForks != 1 {
		t.Errorf("installed snapshot was not forked: %+v", st)
	}

	// And the continued run matches a from-scratch execution byte for byte.
	fresh := New(Config{Workers: 1})
	defer fresh.Close()
	want, err := fresh.Submit(context.Background(), longer)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Report, want.Report) {
		t.Fatal("run continued from an installed snapshot diverged from a fresh run")
	}
}
