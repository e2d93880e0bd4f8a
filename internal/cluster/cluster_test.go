package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"a4sim/internal/figures"
	"a4sim/internal/scenario"
	"a4sim/internal/service"
)

// testSpec is a fast-running scenario (high rate scale, short windows).
func testSpec(seed uint64) *scenario.Spec {
	return &scenario.Spec{
		Name:       "cluster-test",
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

// newBackend starts one real a4serve backend (service + HTTP mux) and
// returns its server.
func newBackend(t *testing.T) *httptest.Server {
	t.Helper()
	svc := service.New(service.Config{Workers: 2, CacheEntries: 64})
	t.Cleanup(svc.Close)
	srv := httptest.NewServer(service.NewMux(svc, func() any { return svc.Stats() }, nil))
	t.Cleanup(srv.Close)
	return srv
}

// killableBackend aborts every request after the first `serve` have been
// served, simulating a backend dying mid-sweep: in-flight and subsequent
// requests fail at the transport level, exactly like a killed process.
type killableBackend struct {
	inner  http.Handler
	serve  int64
	served atomic.Int64
	armed  atomic.Bool
}

func (k *killableBackend) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if k.armed.Load() && k.served.Add(1) > k.serve {
		panic(http.ErrAbortHandler)
	}
	k.inner.ServeHTTP(w, r)
}

func newCoordinator(t *testing.T, urls ...string) *Coordinator {
	t.Helper()
	c, err := New(Config{Backends: urls, ReviveAfter: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// sweepReq sweeps managers × measurement windows: two prefix groups whose
// rows chain through backend snapshots, exercising both the concurrent and
// the sequential routing paths.
func sweepReq() *service.SweepRequest {
	return &service.SweepRequest{
		Spec: *testSpec(1),
		Axes: []service.Axis{
			{Param: "manager", Managers: []string{"default", "a4-d"}},
			{Param: "measure_sec", Values: []float64{1, 2}},
		},
	}
}

// TestClusterSweepByteIdenticalToSerial is the acceptance pin: the same
// sweep through a 3-backend coordinator and serially on one local node must
// agree on every byte of every point.
func TestClusterSweepByteIdenticalToSerial(t *testing.T) {
	coord := newCoordinator(t, newBackend(t).URL, newBackend(t).URL, newBackend(t).URL)
	got, err := coord.Sweep(context.Background(), sweepReq())
	if err != nil {
		t.Fatal(err)
	}

	serial := service.New(service.Config{Workers: 1})
	defer serial.Close()
	want, err := serial.Sweep(context.Background(), sweepReq())
	if err != nil {
		t.Fatal(err)
	}

	comparePoints(t, got, want)

	// The merged stats cover the whole fleet: executions sum to the grid
	// size and the per-backend breakdown is preserved.
	st := coord.Stats()
	if st.Executions != uint64(len(want)) {
		t.Errorf("merged executions = %d, want %d", st.Executions, len(want))
	}
	if len(st.Backends) != 3 {
		t.Fatalf("got %d backend entries, want 3", len(st.Backends))
	}
	var sum uint64
	for _, bs := range st.Backends {
		if !bs.Reachable {
			t.Errorf("backend %s unreachable in stats: %s", bs.URL, bs.Error)
		}
		sum += bs.Stats.Executions
	}
	if sum != st.Executions {
		t.Errorf("per-backend executions sum %d != merged %d", sum, st.Executions)
	}
}

func comparePoints(t *testing.T, got, want []service.SweepPoint) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d points, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Hash != want[i].Hash {
			t.Errorf("point %d hash %s, want %s", i, got[i].Hash, want[i].Hash)
		}
		if got[i].Cached != want[i].Cached {
			t.Errorf("point %d cached=%v, want %v", i, got[i].Cached, want[i].Cached)
		}
		if !bytes.Equal(got[i].Report, want[i].Report) {
			t.Errorf("point %d report differs from serial run", i)
		}
		if fmt.Sprint(got[i].Grid) != fmt.Sprint(want[i].Grid) {
			t.Errorf("point %d grid %v, want %v", i, got[i].Grid, want[i].Grid)
		}
	}
}

// TestClusterReroutesLostBackendMidSweep kills the backend the sweep
// places the most groups on after it has served exactly one point and pins
// that every lost point is rerouted: the sweep completes and stays
// byte-identical to a serial run.
func TestClusterReroutesLostBackendMidSweep(t *testing.T) {
	// Three backends, the victim wrapped so it can be killed mid-flight.
	kills := make([]*killableBackend, 3)
	urls := make([]string, 3)
	for i := range kills {
		svc := service.New(service.Config{Workers: 2, CacheEntries: 64})
		t.Cleanup(svc.Close)
		kills[i] = &killableBackend{
			inner: service.NewMux(svc, func() any { return svc.Stats() }, nil),
			serve: 1,
		}
		srv := httptest.NewServer(kills[i])
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	coord := newCoordinator(t, urls...)

	// Eight distinct-seed points: eight prefix groups. Pick the backend the
	// sweep places the most of them on as the victim, so it is guaranteed
	// to receive at least one point after its single allowed request —
	// httptest ports are random, so the placement must be derived, not
	// assumed.
	req := &service.SweepRequest{
		Spec: *testSpec(0),
		Axes: []service.Axis{{Param: "seed", Values: []float64{100, 101, 102, 103, 104, 105, 106, 107}}},
	}
	specs, _, err := service.ExpandSweep(req)
	if err != nil {
		t.Fatal(err)
	}
	placed := map[string]int{}
	for _, b := range coord.place(specs, service.GroupSpecsByPrefix(specs)) {
		placed[b.url]++
	}
	victim, most := "", 0
	for url, n := range placed {
		if n > most {
			victim, most = url, n
		}
	}
	if most < 2 {
		// 8 points over <=3 backends: pigeonhole guarantees one with >=3.
		t.Fatalf("no backend is placed 2+ points: %v", placed)
	}
	for i, url := range urls {
		if url == victim {
			kills[i].armed.Store(true)
		}
	}

	got, err := coord.Sweep(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}

	serial := service.New(service.Config{Workers: 1})
	defer serial.Close()
	want, err := serial.Sweep(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	comparePoints(t, got, want)

	st := coord.Stats()
	if st.Reroutes < uint64(most-1) {
		t.Errorf("reroutes = %d, want >= %d (victim was placed %d points, served 1)", st.Reroutes, most-1, most)
	}
	downSeen := false
	for _, bs := range st.Backends {
		if bs.URL == victim && bs.Down {
			downSeen = true
		}
	}
	if !downSeen {
		t.Errorf("victim %s not marked down in stats: %+v", victim, st.Backends)
	}
}

// TestClusterExtendRoutesToOwner pins prefix affinity end to end: /run then
// Extend land on the same backend, whose warm snapshot serves the extension
// as a fork, and the result matches a cold serial run of the longer spec.
func TestClusterExtendRoutesToOwner(t *testing.T) {
	coord := newCoordinator(t, newBackend(t).URL, newBackend(t).URL)

	res, err := coord.Submit(context.Background(), testSpec(7))
	if err != nil {
		t.Fatal(err)
	}
	ext, err := coord.Extend(context.Background(), res.Hash, 3)
	if err != nil {
		t.Fatal(err)
	}
	if ext.Hash == res.Hash {
		t.Error("extension must re-address under the longer window's hash")
	}

	long := testSpec(7)
	long.MeasureSec = 3
	rep, err := long.Run()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := rep.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ext.Report, fresh) {
		t.Fatal("extended report differs from a cold serial run of the longer spec")
	}

	// The fork happened on the owning backend instead of a cold restart.
	if st := coord.Stats(); st.SnapshotForks < 1 {
		t.Errorf("merged snapshot_forks = %d, want >= 1", st.SnapshotForks)
	}

	// The extended run is addressable through the coordinator too.
	if data, ok := coord.Lookup(ext.Hash); !ok || !bytes.Equal(data, ext.Report) {
		t.Error("Lookup did not serve the extended report by content address")
	}

	if _, err := coord.Extend(context.Background(), "feedfacefeedface", 2); !errors.Is(err, service.ErrUnknownHash) {
		t.Errorf("unknown hash: got %v, want ErrUnknownHash", err)
	}
}

// TestRunSpecsOverCluster pins the figures fan-out path: spec points run
// through a coordinator come back in input order, byte-identical to running
// each spec serially in-process.
func TestRunSpecsOverCluster(t *testing.T) {
	coord := newCoordinator(t, newBackend(t).URL, newBackend(t).URL)
	specs := []*scenario.Spec{testSpec(11), testSpec(12), testSpec(11)}
	specs[2].MeasureSec = 2 // shares spec[0]'s prefix: chained on one backend

	got, err := figures.RunSpecs(coord, specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(specs) {
		t.Fatalf("got %d reports, want %d", len(got), len(specs))
	}
	for i, sp := range specs {
		rep, err := sp.Run()
		if err != nil {
			t.Fatal(err)
		}
		want, _ := rep.Encode()
		have, _ := got[i].Encode()
		if !bytes.Equal(have, want) {
			t.Errorf("spec %d: cluster report differs from serial run", i)
		}
	}
}

func TestClusterSweepRejectsBadGridBeforeExecuting(t *testing.T) {
	coord := newCoordinator(t, newBackend(t).URL)
	_, err := coord.Sweep(context.Background(), &service.SweepRequest{
		Spec: *testSpec(1),
		Axes: []service.Axis{{Param: "manager", Managers: []string{"default", "bogus"}}},
	})
	if err == nil {
		t.Fatal("sweep with an invalid point accepted")
	}
	if st := coord.Stats(); st.Executions != 0 {
		t.Errorf("invalid sweep executed points: %+v", st)
	}
}

func TestClusterUnavailableWhenFleetIsGone(t *testing.T) {
	srv := newBackend(t)
	url := srv.URL
	srv.Close()
	coord := newCoordinator(t, url)
	if _, err := coord.Submit(context.Background(), testSpec(1)); !errors.Is(err, service.ErrUnavailable) {
		t.Fatalf("got %v, want ErrUnavailable", err)
	}
}

func TestRendezvousDeterministicAndSpreads(t *testing.T) {
	c, err := New(Config{Backends: []string{"http://a", "http://b", "http://c"}})
	if err != nil {
		t.Fatal(err)
	}
	homes := map[string]bool{}
	for i := 0; i < 64; i++ {
		key := fmt.Sprintf("key-%d", i)
		o1, o2 := c.rendezvous(key), c.rendezvous(key)
		for j := range o1 {
			if o1[j] != o2[j] {
				t.Fatalf("rendezvous order for %q not stable", key)
			}
		}
		seen := map[*backend]bool{}
		for _, b := range o1 {
			seen[b] = true
		}
		if len(seen) != 3 {
			t.Fatalf("rendezvous order for %q misses backends: %v", key, o1)
		}
		homes[o1[0].url] = true
	}
	if len(homes) != 3 {
		t.Errorf("64 keys homed to only %d/3 backends", len(homes))
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty backend list accepted")
	}
	if _, err := New(Config{Backends: []string{"http://a", "http://a/"}}); err == nil {
		t.Error("duplicate backends accepted")
	}
	if _, err := New(Config{Backends: []string{" "}}); err == nil {
		t.Error("blank backend accepted")
	}
}

// flakyBackend drops the next `drops` connections at the transport level,
// then serves normally — a transient hiccup, not a dead node.
type flakyBackend struct {
	inner http.Handler
	drops atomic.Int64
}

func (f *flakyBackend) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if f.drops.Add(-1) >= 0 {
		panic(http.ErrAbortHandler)
	}
	f.inner.ServeHTTP(w, r)
}

// TestSoftRetrySurvivesTransientDrop pins the same-backend retry: one
// dropped connection costs a soft retry, not a down-mark — the point is
// served by the same backend, nothing is rerouted, and the backend keeps
// its place in the routing order (and its warm state with it).
func TestSoftRetrySurvivesTransientDrop(t *testing.T) {
	svc := service.New(service.Config{Workers: 2})
	t.Cleanup(svc.Close)
	fb := &flakyBackend{inner: service.NewMux(svc, func() any { return svc.Stats() }, nil)}
	fb.drops.Store(1)
	srv := httptest.NewServer(fb)
	t.Cleanup(srv.Close)

	coord := newCoordinator(t, srv.URL)
	res, err := coord.Submit(context.Background(), testSpec(21))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := testSpec(21).Run()
	if err != nil {
		t.Fatal(err)
	}
	want, _ := rep.Encode()
	if !bytes.Equal(res.Report, want) {
		t.Fatal("report served through a soft retry differs from a serial run")
	}

	st := coord.Stats()
	if st.SoftRetries != 1 {
		t.Errorf("soft_retries = %d, want 1", st.SoftRetries)
	}
	if st.Reroutes != 0 {
		t.Errorf("transient drop caused %d reroutes, want 0", st.Reroutes)
	}
	if st.Backends[0].Down {
		t.Error("transient drop down-marked the backend")
	}
}

// togglableBackend can be switched between alive and killed: while dead it
// aborts every connection (requests, healthz probes, snapshot GETs alike),
// exactly like a kill -9'd process behind the same port.
type togglableBackend struct {
	inner http.Handler
	dead  atomic.Bool
}

func (tb *togglableBackend) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if tb.dead.Load() {
		panic(http.ErrAbortHandler)
	}
	tb.inner.ServeHTTP(w, r)
}

// TestSnapshotHandoffOnRevival walks the full lose-and-revive cycle: the
// prefix's home backend dies (its points reroute cold — the fallback
// backend re-executes, which is always correct), then the home revives and
// the coordinator ships the fallback's warm snapshot back before routing
// the next same-prefix point there — the revived node continues from warm
// state instead of re-simulating the prefix.
func TestSnapshotHandoffOnRevival(t *testing.T) {
	toggles := make([]*togglableBackend, 2)
	urls := make([]string, 2)
	for i := range toggles {
		svc := service.New(service.Config{Workers: 2, CacheEntries: 64})
		t.Cleanup(svc.Close)
		toggles[i] = &togglableBackend{inner: service.NewMux(svc, func() any { return svc.Stats() }, nil)}
		srv := httptest.NewServer(toggles[i])
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	coord, err := New(Config{Backends: urls, ReviveAfter: 75 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}

	sp := testSpec(22)
	_, _, prefix, err := sp.Digest()
	if err != nil {
		t.Fatal(err)
	}
	home := coord.rendezvous(prefix)[0].url
	var homeToggle *togglableBackend
	for i, url := range urls {
		if url == home {
			homeToggle = toggles[i]
		}
	}

	// Warm the home backend, then kill it.
	if _, err := coord.Submit(context.Background(), sp); err != nil {
		t.Fatal(err)
	}
	homeToggle.dead.Store(true)

	// The next same-prefix point reroutes to the fallback, which re-executes
	// from scratch (the dead owner cannot export its snapshot — degradation,
	// not failure) and becomes the recorded owner.
	mid := testSpec(22)
	mid.MeasureSec = 2
	if _, err := coord.Submit(context.Background(), mid); err != nil {
		t.Fatal(err)
	}
	if st := coord.Stats(); st.SnapshotHandoffs != 0 {
		t.Errorf("handoff claimed from a dead owner: %+v", st)
	}

	// Revive the home; after ReviveAfter its healthz probe readmits it, and
	// the coordinator ships the fallback's warm snapshot over first.
	homeToggle.dead.Store(false)
	time.Sleep(150 * time.Millisecond)
	long := testSpec(22)
	long.MeasureSec = 3
	res, err := coord.Submit(context.Background(), long)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := long.Run()
	if err != nil {
		t.Fatal(err)
	}
	want, _ := rep.Encode()
	if !bytes.Equal(res.Report, want) {
		t.Fatal("post-revival report differs from a serial run")
	}

	st := coord.Stats()
	if st.SnapshotHandoffs < 1 {
		t.Errorf("snapshot_handoffs = %d, want >= 1 after revival", st.SnapshotHandoffs)
	}
	for _, bs := range st.Backends {
		if bs.URL == home {
			if bs.Down {
				t.Error("revived home still marked down")
			}
			if bs.Stats.SnapshotForks < 1 {
				t.Errorf("revived home snapshot_forks = %d, want >= 1 (warm handoff unused)", bs.Stats.SnapshotForks)
			}
		}
	}
}

// snapshotCorruptor flips a byte in every snapshot export it proxies; all
// other traffic passes through untouched.
type snapshotCorruptor struct {
	inner http.Handler
}

func (sc *snapshotCorruptor) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet || !strings.HasPrefix(r.URL.Path, "/snapshot/") {
		sc.inner.ServeHTTP(w, r)
		return
	}
	rec := httptest.NewRecorder()
	sc.inner.ServeHTTP(rec, r)
	data := rec.Body.Bytes()
	if rec.Code == http.StatusOK && len(data) > 0 {
		data[len(data)-1] ^= 0x01
	}
	for k, v := range rec.Header() {
		w.Header()[k] = v
	}
	w.WriteHeader(rec.Code)
	w.Write(data)
}

// TestHandoffRejectsCorruptSnapshot ships deliberately corrupted snapshot
// bytes on the handoff path and pins the degradation contract: the target
// rejects the import (no handoff counted, no warm state seeded) and simply
// re-executes — byte-identically.
func TestHandoffRejectsCorruptSnapshot(t *testing.T) {
	// The previous owner sits outside the coordinator's fleet and serves its
	// snapshot through a corrupting proxy.
	ownerSvc := service.New(service.Config{Workers: 2})
	t.Cleanup(ownerSvc.Close)
	owner := httptest.NewServer(&snapshotCorruptor{
		inner: service.NewMux(ownerSvc, func() any { return ownerSvc.Stats() }, nil),
	})
	t.Cleanup(owner.Close)

	sp := testSpec(23)
	if _, err := ownerSvc.Submit(context.Background(), sp); err != nil {
		t.Fatal(err)
	}
	_, _, prefix, err := sp.Digest()
	if err != nil {
		t.Fatal(err)
	}

	target := newBackend(t)
	coord := newCoordinator(t, target.URL)
	coord.owners.Put(prefix, owner.URL, nil)

	long := testSpec(23)
	long.MeasureSec = 2
	res, err := coord.Submit(context.Background(), long)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := long.Run()
	if err != nil {
		t.Fatal(err)
	}
	want, _ := rep.Encode()
	if !bytes.Equal(res.Report, want) {
		t.Fatal("report after a corrupt handoff differs from a serial run")
	}

	st := coord.Stats()
	if st.SnapshotHandoffs != 0 {
		t.Errorf("corrupt snapshot counted as a handoff: %+v", st)
	}
	if st.Backends[0].Stats.SnapshotForks != 0 {
		t.Errorf("corrupt snapshot seeded warm state: %+v", st.Backends[0].Stats)
	}
	if st.Backends[0].Stats.Executions != 1 {
		t.Errorf("target executions = %d, want 1 (re-execution)", st.Backends[0].Stats.Executions)
	}
}
