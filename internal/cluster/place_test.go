package cluster

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"a4sim/internal/scenario"
	"a4sim/internal/service"
)

// backendsFor builds unrouted backend handles for placement tests; nothing
// contacts their URLs.
func backendsFor(urls ...string) []*backend {
	out := make([]*backend, len(urls))
	for i, u := range urls {
		out[i] = &backend{url: u}
	}
	return out
}

// keysHomedOn returns n generated routing keys whose rendezvous home over
// bs is home.
func keysHomedOn(t *testing.T, n int, home *backend, bs []*backend) []string {
	t.Helper()
	var keys []string
	for i := 0; len(keys) < n; i++ {
		if i > 10000 {
			t.Fatalf("no %d keys homed on %s", n, home.url)
		}
		key := fmt.Sprintf("prefix-%d", i)
		if rendezvousOver(key, bs)[0] == home {
			keys = append(keys, key)
		}
	}
	return keys
}

func TestPlaceGroupsTable(t *testing.T) {
	bs := backendsFor("http://a", "http://b")
	a, b := bs[0], bs[1]
	cases := []struct {
		name  string
		costs []float64
		up    []*backend
		want  []*backend
	}{
		// Four equal groups hashed to one home split 2-2; the first two
		// keep their home.
		{"equal groups one home", []float64{3, 3, 3, 3}, bs, []*backend{a, a, b, b}},
		// Bound ceil(9/2)=5: the third group fits nowhere and goes to the
		// least-loaded backend, its home on the tie.
		{"no room anywhere", []float64{3, 3, 3}, bs, []*backend{a, b, a}},
		// A group larger than the bound still goes home when home is
		// empty; the rest fill the other backend.
		{"oversized group", []float64{10, 1, 1}, bs, []*backend{a, b, b}},
		{"single backend", []float64{2, 2, 2}, []*backend{a}, []*backend{a, a, a}},
		{"no routable backend", []float64{2, 2}, nil, []*backend{nil, nil}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			keys := keysHomedOn(t, len(tc.costs), a, bs)
			got := placeGroups(keys, tc.costs, tc.up)
			for g := range tc.want {
				if got[g] != tc.want[g] {
					t.Fatalf("group %d on %v, want %v (placement %v)", g, urlOf(got[g]), urlOf(tc.want[g]), urlsOf(got))
				}
			}
		})
	}
}

// TestPlaceGroupsProperties checks the bounded-load contract over generated
// prefix keys, costs and 2-4 backends by replaying every placement step:
//
//   - the result is deterministic and independent of the backend order;
//   - a group goes to its rendezvous home whenever the home has room;
//   - a group leaves its home only for the first backend in its order with
//     room, and a backend ends past the bound only when a single group
//     fitted nowhere and went to the least-loaded backend.
func TestPlaceGroupsProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 500; trial++ {
		n := 2 + rng.Intn(3)
		var urls []string
		for seen := map[string]bool{}; len(urls) < n; {
			u := fmt.Sprintf("http://127.0.0.1:%d", 30000+rng.Intn(30000))
			if !seen[u] {
				seen[u] = true
				urls = append(urls, u)
			}
		}
		up := backendsFor(urls...)
		groups := 1 + rng.Intn(12)
		keys := make([]string, groups)
		costs := make([]float64, groups)
		for g := range keys {
			sum := sha256.Sum256([]byte(fmt.Sprint(trial, g)))
			keys[g] = hex.EncodeToString(sum[:])
			costs[g] = float64(1 + rng.Intn(8))
			if rng.Intn(4) == 0 {
				costs[g] += 0.5
			}
		}

		got := placeGroups(keys, costs, up)
		shuffled := append([]*backend(nil), up...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		again := placeGroups(keys, costs, shuffled)
		for g := range got {
			if got[g] != again[g] {
				t.Fatalf("trial %d: group %d placed on %s, then %s with the backends reordered", trial, g, got[g].url, again[g].url)
			}
		}

		total := 0.0
		for _, c := range costs {
			total += c
		}
		bound := math.Ceil(total / float64(n))
		load := map[*backend]float64{}
		for g, key := range keys {
			order := rendezvousOver(key, up)
			var room []*backend
			for _, b := range order {
				if load[b]+costs[g] <= bound {
					room = append(room, b)
				}
			}
			switch {
			case load[order[0]]+costs[g] <= bound && got[g] != order[0]:
				t.Fatalf("trial %d: group %d left its home %s with room", trial, g, order[0].url)
			case len(room) > 0 && got[g] != room[0]:
				t.Fatalf("trial %d: group %d on %s, but %s comes first in its order with room", trial, g, got[g].url, room[0].url)
			case len(room) == 0:
				for _, b := range up {
					if load[b] < load[got[g]] {
						t.Fatalf("trial %d: group %d fit nowhere but went to %s (load %g), not least-loaded %s (load %g)",
							trial, g, got[g].url, load[got[g]], b.url, load[b])
					}
				}
			}
			if load[got[g]] > bound {
				t.Fatalf("trial %d: group %d added to %s already past the bound (%g > %g)", trial, g, got[g].url, load[got[g]], bound)
			}
			load[got[g]] += costs[g]
		}
	}
}

// TestPlaceExcludesDownBackends pins that a sweep's placement skips a
// down-marked backend and equals the pure placement over the rest.
func TestPlaceExcludesDownBackends(t *testing.T) {
	coord := newCoordinator(t, "http://a", "http://b", "http://c")
	down := coord.backends[1]
	down.setDown(true) // ReviveAfter is an hour: never probed

	specs := make([]*scenario.Spec, 9)
	for i := range specs {
		specs[i] = testSpec(uint64(300 + i))
	}
	groups := service.GroupSpecsByPrefix(specs)
	got := coord.place(specs, groups)

	up := []*backend{coord.backends[0], coord.backends[2]}
	keys := make([]string, len(groups))
	costs := make([]float64, len(groups))
	for g, idxs := range groups {
		keys[g], _ = specs[idxs[0]].PrefixHash()
		costs[g] = 2 // testSpec: 1 s warm-up + 1 s measured
	}
	want := placeGroups(keys, costs, up)
	for g := range got {
		if got[g] == down {
			t.Fatalf("group %d placed on down backend %s", g, down.url)
		}
		if got[g] != want[g] {
			t.Fatalf("group %d on %s, want %s", g, got[g].url, want[g].url)
		}
	}
}

// requestCounter counts requests per path prefix on the way to a backend:
// extends, /result reads, and every by-hash read (/result, /series,
// /trace/events and the series stream).
type requestCounter struct {
	inner   http.Handler
	extends atomic.Int64
	results atomic.Int64
	reads   atomic.Int64
}

func (rc *requestCounter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.URL.Path == "/extend":
		rc.extends.Add(1)
	case strings.HasPrefix(r.URL.Path, "/result/"):
		rc.results.Add(1)
	}
	for _, p := range []string{"/result/", "/series/", "/trace/events/"} {
		if strings.HasPrefix(r.URL.Path, p) {
			rc.reads.Add(1)
		}
	}
	rc.inner.ServeHTTP(w, r)
}

// TestExtendRoutesToPlacedOwner pins owner-first hash routing: a sweep
// places a group off its rendezvous home, and the following Extend and
// Lookup of that group's point go straight to the backend that ran it. The
// extension forks there, nothing is handed off, and the home never sees an
// /extend or /result request.
func TestExtendRoutesToPlacedOwner(t *testing.T) {
	counters := map[string]*requestCounter{}
	var urls []string
	for i := 0; i < 2; i++ {
		svc := service.New(service.Config{Workers: 2, CacheEntries: 64})
		t.Cleanup(svc.Close)
		rc := &requestCounter{inner: service.NewMux(svc, func() any { return svc.Stats() }, nil)}
		srv := httptest.NewServer(rc)
		t.Cleanup(srv.Close)
		counters[srv.URL] = rc
		urls = append(urls, srv.URL)
	}
	coord := newCoordinator(t, urls...)

	// Two seeds whose prefixes share a home: the sweep's bound (one group
	// per backend) moves the second group off that home.
	homeOf := func(sp *scenario.Spec) *backend {
		prefix, err := sp.PrefixHash()
		if err != nil {
			t.Fatal(err)
		}
		return coord.rendezvous(prefix)[0]
	}
	first := homeOf(testSpec(200))
	seeds := []float64{200}
	for s := uint64(201); len(seeds) < 2; s++ {
		if homeOf(testSpec(s)) == first {
			seeds = append(seeds, float64(s))
		}
	}
	req := &service.SweepRequest{Spec: *testSpec(0), Axes: []service.Axis{{Param: "seed", Values: seeds}}}
	specs, _, err := service.ExpandSweep(req)
	if err != nil {
		t.Fatal(err)
	}
	home := homeOf(specs[1])
	placed := coord.place(specs, service.GroupSpecsByPrefix(specs))
	if homeOf(specs[0]) != home || placed[1] == home {
		t.Fatalf("second group placed on %s, home %s; want it moved off", placed[1].url, home.url)
	}
	owner := placed[1]

	points, err := coord.Sweep(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	ext, err := coord.Extend(context.Background(), points[1].Hash, 2)
	if err != nil {
		t.Fatal(err)
	}
	long := specs[1].Clone()
	long.MeasureSec = 2
	rep, err := long.Run()
	if err != nil {
		t.Fatal(err)
	}
	want, _ := rep.Encode()
	if !bytes.Equal(ext.Report, want) {
		t.Fatal("extended report differs from a cold serial run of the longer spec")
	}
	if data, ok := coord.Lookup(ext.Hash); !ok || !bytes.Equal(data, ext.Report) {
		t.Error("Lookup did not serve the extended report")
	}

	st := coord.Stats()
	if st.SnapshotForks < 1 {
		t.Errorf("snapshot_forks = %d, want >= 1 (extension ran cold)", st.SnapshotForks)
	}
	if st.SnapshotHandoffs != 0 {
		t.Errorf("snapshot_handoffs = %d, want 0", st.SnapshotHandoffs)
	}
	if n := counters[home.url].extends.Load(); n != 0 {
		t.Errorf("home %s received %d /extend requests, want 0", home.url, n)
	}
	if n := counters[home.url].results.Load(); n != 0 {
		t.Errorf("home %s received %d /result requests, want 0", home.url, n)
	}
	if n := counters[owner.url].extends.Load(); n != 1 {
		t.Errorf("owner %s received %d /extend requests, want 1", owner.url, n)
	}
}

// TestFetchByHashRejectsOversizedAnswer serves a report one byte past the
// response cap: Lookup must miss instead of returning a truncated body, and
// the backend stays routable. An answer exactly at the cap is a hit.
func TestFetchByHashRejectsOversizedAnswer(t *testing.T) {
	var size atomic.Int64
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(bytes.Repeat([]byte{'x'}, int(size.Load())))
	}))
	t.Cleanup(stub.Close)
	coord, err := New(Config{Backends: []string{stub.URL}, ReviveAfter: time.Hour})
	if err != nil {
		t.Fatal(err)
	}

	size.Store(maxResponseBytes + 1)
	if data, ok := coord.Lookup("feedface"); ok {
		t.Fatalf("oversized answer served as a hit (%d bytes)", len(data))
	}
	if _, ok := coord.Series("feedface"); ok {
		t.Fatal("oversized series answer served as a hit")
	}
	if coord.backends[0].isDown() {
		t.Fatal("oversized answer marked the backend down")
	}

	size.Store(maxResponseBytes)
	if data, ok := coord.Lookup("feedface"); !ok || len(data) != maxResponseBytes {
		t.Fatalf("answer at the cap: ok=%v, %d bytes", ok, len(data))
	}
}

func urlOf(b *backend) string {
	if b == nil {
		return "<nil>"
	}
	return b.url
}

func urlsOf(bs []*backend) []string {
	out := make([]string, len(bs))
	for i, b := range bs {
		out[i] = urlOf(b)
	}
	return out
}
