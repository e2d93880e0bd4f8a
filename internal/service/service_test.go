package service

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"a4sim/internal/scenario"
)

// testSpec is a fast-running scenario (high rate scale, short windows).
func testSpec(seed uint64) *scenario.Spec {
	return &scenario.Spec{
		Name:       "svc-test",
		Manager:    "a4-d",
		Params:     scenario.ParamSpec{RateScale: 8192, Seed: seed},
		WarmupSec:  1,
		MeasureSec: 1,
		Workloads: []scenario.WorkloadSpec{
			{Kind: "dpdk", Name: "dpdk-t", Cores: []int{0, 1}, Priority: "hpw", Touch: true},
			{Kind: "xmem", Name: "xmem", Cores: []int{2}, Priority: "lpw", WSKB: 1024, Pattern: "random"},
		},
	}
}

func TestSubmitCachesByHash(t *testing.T) {
	svc := New(Config{Workers: 2})
	defer svc.Close()

	r1, err := svc.Submit(context.Background(), testSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cached {
		t.Error("first submission reported cached")
	}
	r2, err := svc.Submit(context.Background(), testSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Cached {
		t.Error("second identical submission not served from cache")
	}
	if r1.Hash != r2.Hash {
		t.Fatalf("hash changed between submissions: %s vs %s", r1.Hash, r2.Hash)
	}
	if !bytes.Equal(r1.Report, r2.Report) {
		t.Fatal("cached report differs from executed report")
	}

	st := svc.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Executions != 1 {
		t.Errorf("stats = %+v, want 1 hit, 1 miss, 1 execution", st)
	}

	// The cache serves by content address too.
	if rep, ok := svc.Lookup(r1.Hash); !ok || !bytes.Equal(rep, r1.Report) {
		t.Error("Lookup by hash did not return the cached report")
	}
	if _, ok := svc.Lookup("deadbeef"); ok {
		t.Error("Lookup invented a result")
	}
}

func TestCachedReportByteIdenticalToFreshSerialRun(t *testing.T) {
	svc := New(Config{Workers: 4})
	defer svc.Close()

	res, err := svc.Submit(context.Background(), testSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	cached, err := svc.Submit(context.Background(), testSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	if !cached.Cached {
		t.Fatal("second submission was not a cache hit")
	}

	// A fresh, serial, out-of-band run of the same spec must reproduce the
	// served bytes exactly — the determinism that makes caching sound.
	rep, err := testSpec(3).Run()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := rep.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cached.Report, fresh) {
		t.Fatalf("cached report differs from fresh serial run:\n%s\nvs\n%s", cached.Report, fresh)
	}
	if rep.Hash != res.Hash {
		t.Fatalf("fresh run hash %s != served hash %s", rep.Hash, res.Hash)
	}
}

func TestConcurrentIdenticalSubmissionsExecuteOnce(t *testing.T) {
	svc := New(Config{Workers: 4})
	defer svc.Close()

	const clients = 8
	results := make([]Result, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = svc.Submit(context.Background(), testSpec(2))
		}(i)
	}
	wg.Wait()

	for i := 0; i < clients; i++ {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		if !bytes.Equal(results[i].Report, results[0].Report) {
			t.Fatalf("client %d saw a different report", i)
		}
	}
	st := svc.Stats()
	if st.Executions != 1 {
		t.Errorf("%d concurrent identical submissions ran %d executions, want 1", clients, st.Executions)
	}
	if st.Dedups+st.Hits != clients-1 {
		t.Errorf("stats = %+v, want dedups+hits = %d", st, clients-1)
	}
}

func TestSweepDeterministicAtAnyWorkerCount(t *testing.T) {
	req := func() *SweepRequest {
		return &SweepRequest{
			Spec: *testSpec(1),
			Axes: []Axis{
				{Param: "manager", Managers: []string{"default", "a4-d"}},
				{Param: "nic_gbps", Values: []float64{50, 100}},
			},
		}
	}

	run := func(workers int) []SweepPoint {
		svc := New(Config{Workers: workers})
		defer svc.Close()
		points, err := svc.Sweep(context.Background(), req())
		if err != nil {
			t.Fatal(err)
		}
		return points
	}

	serial := run(1)
	if len(serial) != 4 {
		t.Fatalf("expected 4 grid points, got %d", len(serial))
	}
	for _, workers := range []int{2, 4} {
		parallel := run(workers)
		for i := range serial {
			if serial[i].Hash != parallel[i].Hash {
				t.Fatalf("workers=%d reordered point %d: %s vs %s",
					workers, i, serial[i].Hash, parallel[i].Hash)
			}
			if !bytes.Equal(serial[i].Report, parallel[i].Report) {
				t.Fatalf("workers=%d: point %d report differs from serial", workers, i)
			}
		}
	}
	// Grid labels follow row-major axis order.
	if serial[0].Grid["manager"] != "default" || serial[0].Grid["nic_gbps"] != 50.0 {
		t.Errorf("unexpected first grid point %v", serial[0].Grid)
	}
	if serial[3].Grid["manager"] != "a4-d" || serial[3].Grid["nic_gbps"] != 100.0 {
		t.Errorf("unexpected last grid point %v", serial[3].Grid)
	}
}

func TestSweepSharesCacheAcrossPoints(t *testing.T) {
	svc := New(Config{Workers: 2})
	defer svc.Close()

	req := &SweepRequest{
		Spec: *testSpec(1),
		Axes: []Axis{{Param: "manager", Managers: []string{"default", "a4-d"}}},
	}
	if _, err := svc.Sweep(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	points, err := svc.Sweep(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range points {
		if !p.Cached {
			t.Errorf("re-swept point %d not served from cache", i)
		}
	}
	if st := svc.Stats(); st.Executions != 2 {
		t.Errorf("re-sweep re-executed: %+v", st)
	}
}

func TestSweepRejectsBadGrid(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()

	if _, err := svc.Sweep(context.Background(), &SweepRequest{Spec: *testSpec(1)}); err == nil {
		t.Error("sweep with no axes accepted")
	}
	if _, err := svc.Sweep(context.Background(), &SweepRequest{
		Spec: *testSpec(1),
		Axes: []Axis{{Param: "voltage", Values: []float64{1}}},
	}); err == nil {
		t.Error("sweep with unknown param accepted")
	}
	if _, err := svc.Sweep(context.Background(), &SweepRequest{
		Spec: *testSpec(1),
		Axes: []Axis{
			{Param: "seed", Values: []float64{1, 2}},
			{Param: "seed", Values: []float64{3, 4}},
		},
	}); err == nil {
		t.Error("sweep with duplicate axis param accepted")
	}
	// Value 0 would silently run the default under a lying grid label.
	if _, err := svc.Sweep(context.Background(), &SweepRequest{
		Spec: *testSpec(1),
		Axes: []Axis{{Param: "warmup_sec", Values: []float64{0, 1}}},
	}); err == nil {
		t.Error("sweep with zero axis value accepted")
	}
	// A cartesian blowup is rejected before any allocation or execution.
	wide := make([]float64, 100)
	for i := range wide {
		wide[i] = float64(i + 1)
	}
	if _, err := svc.Sweep(context.Background(), &SweepRequest{
		Spec: *testSpec(1),
		Axes: []Axis{
			{Param: "seed", Values: wide},
			{Param: "nic_gbps", Values: wide},
			{Param: "ssd_gbps", Values: wide},
		},
	}); err == nil {
		t.Error("oversized sweep grid accepted")
	}
	// A grid that contains an invalid point fails before any execution.
	bad := &SweepRequest{
		Spec: *testSpec(1),
		Axes: []Axis{{Param: "manager", Managers: []string{"default", "bogus"}}},
	}
	if _, err := svc.Sweep(context.Background(), bad); err == nil {
		t.Error("sweep with invalid manager point accepted")
	}
	if st := svc.Stats(); st.Executions != 0 {
		t.Errorf("invalid sweeps executed points: %+v", st)
	}
}

func TestSubmitInvalidSpecFails(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()
	sp := testSpec(1)
	sp.Manager = "bogus"
	if _, err := svc.Submit(context.Background(), sp); err == nil {
		t.Fatal("invalid spec accepted")
	}
	// A valid but over-budget spec is a serving-policy rejection.
	over := testSpec(1)
	over.Params.RateScale = 1
	over.WarmupSec, over.MeasureSec = 3000, 600
	if err := over.Validate(); err != nil {
		t.Fatalf("over-budget spec should be valid: %v", err)
	}
	if _, err := svc.Submit(context.Background(), over); err == nil {
		t.Fatal("over-budget spec accepted")
	}
	if st := svc.Stats(); st.Errors != 2 || st.Executions != 0 {
		t.Errorf("stats = %+v, want 2 errors and no executions", st)
	}
}

func TestLRUEviction(t *testing.T) {
	svc := New(Config{Workers: 2, CacheEntries: 2})
	defer svc.Close()

	hashes := make([]string, 3)
	for i := range hashes {
		res, err := svc.Submit(context.Background(), testSpec(uint64(10+i)))
		if err != nil {
			t.Fatal(err)
		}
		hashes[i] = res.Hash
	}
	if _, ok := svc.Lookup(hashes[0]); ok {
		t.Error("oldest entry survived beyond cache capacity")
	}
	if _, ok := svc.Lookup(hashes[2]); !ok {
		t.Error("newest entry evicted")
	}
	// Evicted specs re-execute and re-enter the cache.
	res, err := svc.Submit(context.Background(), testSpec(10))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cached {
		t.Error("evicted spec served from cache")
	}
}

func TestLRUUnit(t *testing.T) {
	svc := New(Config{CacheEntries: 2})
	defer svc.Close()
	c := svc.cache
	svc.publish("a", runRecord{Report: []byte("1"), Spec: []byte("sa")})
	svc.publish("b", runRecord{Report: []byte("2"), Spec: []byte("sb")})
	c.Get("a", true) // refresh a; b is now oldest
	svc.publish("c", runRecord{Report: []byte("3"), Spec: []byte("sc")})
	if _, ok := c.Get("b", true); ok {
		t.Error("LRU evicted the recently-used entry instead of the oldest")
	}
	e, ok := c.Get("a", true)
	if !ok {
		t.Error("refreshed entry was evicted")
	} else if string(e.Report) != "1" {
		t.Errorf("entry report = %q, want %q", e.Report, "1")
	}
	if c.Len() != 2 {
		t.Errorf("len = %d, want 2", c.Len())
	}
	// Entries carry their pre-encoded cache-hit response body.
	if want := string(encodeResultEnvelope("a", true, []byte("1"))); string(e.hitBody) != want {
		t.Errorf("hitBody = %q, want %q", e.hitBody, want)
	}
}

func TestSubmitBackpressure(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()
	svc.maxQueue = 1

	// Hold the single slot, so an accepted submission waits for it whenever
	// its goroutine gets scheduled, and the state is deterministic.
	svc.slots <- struct{}{}
	waiting := make(chan error, 1)
	go func() {
		_, err := svc.Submit(context.Background(), testSpec(2))
		waiting <- err
	}()
	for svc.Stats().Queued != 1 {
		time.Sleep(time.Millisecond)
	}

	if _, err := svc.Submit(context.Background(), testSpec(1)); err != ErrBusy {
		t.Errorf("got %v, want ErrBusy", err)
	}
	if st := svc.Stats(); st.Errors != 1 || st.Executions != 0 {
		t.Errorf("stats = %+v, want 1 error, 0 executions", st)
	}
	<-svc.slots // release the slot; the waiting submission runs
	if err := <-waiting; err != nil {
		t.Fatalf("waiting submission: %v", err)
	}
}

func TestClosedServiceRejectsSubmissions(t *testing.T) {
	svc := New(Config{Workers: 1})
	svc.Close()
	svc.Close() // idempotent
	if _, err := svc.Submit(context.Background(), testSpec(1)); err != ErrClosed {
		t.Fatalf("got %v, want ErrClosed", err)
	}
}

// TestCloseWaitsForAcceptedRun pins Close's contract: a run accepted before
// Close finishes and returns its report, Close returns only after that run
// has published it, later submissions get ErrClosed, and neither a busy nor
// a closed rejection leaves a flight behind.
func TestCloseWaitsForAcceptedRun(t *testing.T) {
	ctx := context.Background()
	svc := New(Config{Workers: 1})
	type outcome struct {
		res Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := svc.Submit(ctx, testSpec(21))
		done <- outcome{res, err}
	}()
	for svc.Stats().Misses == 0 { // wait until the run is accepted
		time.Sleep(time.Millisecond)
	}
	svc.Close()

	hash, err := testSpec(21).Hash()
	if err != nil {
		t.Fatal(err)
	}
	rep, ok := svc.Lookup(hash)
	if !ok {
		t.Fatal("Close returned before the accepted run published its report")
	}
	if n := inflightLen(svc); n != 0 {
		t.Errorf("%d flights left after Close", n)
	}
	out := <-done
	if out.err != nil {
		t.Fatalf("accepted run failed: %v", out.err)
	}
	if out.res.Cached || !bytes.Equal(out.res.Report, rep) {
		t.Error("accepted run did not return its own executed report")
	}

	if _, err := svc.Submit(ctx, testSpec(22)); err != ErrClosed {
		t.Fatalf("after Close: got %v, want ErrClosed", err)
	}
	if n := inflightLen(svc); n != 0 {
		t.Errorf("closed rejection left %d flights", n)
	}
	if st := svc.Stats(); st.Misses != 1 || st.Executions != 1 || st.Queued != 0 {
		t.Errorf("stats = %+v, want 1 miss, 1 execution, 0 queued", st)
	}

	// A service with no room to wait rejects every execution as busy.
	busy := New(Config{Workers: 1})
	defer busy.Close()
	busy.maxQueue = 0
	if _, err := busy.Submit(ctx, testSpec(23)); err != ErrBusy {
		t.Fatalf("got %v, want ErrBusy", err)
	}
	if n := inflightLen(busy); n != 0 {
		t.Errorf("busy rejection left %d flights", n)
	}
	if st := busy.Stats(); st.Errors != 1 || st.Misses != 0 || st.Executions != 0 || st.Queued != 0 {
		t.Errorf("stats = %+v, want 1 error, 0 misses, 0 executions, 0 queued", st)
	}
}

// inflightLen counts the service's registered flights.
func inflightLen(svc *Service) int {
	svc.fmu.Lock()
	defer svc.fmu.Unlock()
	return len(svc.inflight)
}

func BenchmarkSubmitCached(b *testing.B) {
	svc := New(Config{Workers: 2})
	defer svc.Close()
	sp := testSpec(1)
	if _, err := svc.Submit(context.Background(), sp); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := svc.Submit(context.Background(), sp)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Cached {
			b.Fatal("not cached")
		}
	}
	st := svc.Stats()
	b.ReportMetric(float64(st.Hits)/float64(b.N), "hits/op")
	_ = fmt.Sprintf("%v", st)
}
