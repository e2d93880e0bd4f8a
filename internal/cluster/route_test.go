package cluster

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"a4sim/internal/scenario"
	"a4sim/internal/service"
)

// TestByHashReadsGoOwnerFirst pins the one by-hash routing loop: after a
// sweep places a run's prefix group off its rendezvous home, every read of
// that run by content hash goes to the backend that ran it, and the home
// never hears of it. The seed is picked so that a router keyed on anything
// but the owner would show: the run's prefix and its decorated tail key
// ("<hash>?n=1") both hash home first.
func TestByHashReadsGoOwnerFirst(t *testing.T) {
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

	spec := func(seed uint64) *scenario.Spec {
		sp := testSpec(seed)
		sp.Series = &scenario.SeriesSpec{}
		return sp
	}
	homeOf := func(key string) *backend { return coord.rendezvous(key)[0] }
	prefixHome := func(sp *scenario.Spec) *backend {
		prefix, err := sp.PrefixHash()
		if err != nil {
			t.Fatal(err)
		}
		return homeOf(prefix)
	}
	home := prefixHome(spec(300))
	var second uint64
	for s := uint64(301); second == 0; s++ {
		sp := spec(s)
		hash, err := sp.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if prefixHome(sp) == home && homeOf(hash+"?n=1") == home {
			second = s
		}
	}
	base := spec(0)
	req := &service.SweepRequest{Spec: *base, Axes: []service.Axis{{Param: "seed", Values: []float64{300, float64(second)}}}}
	points, err := coord.Sweep(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	hash := points[1].Hash
	owner := coord.ownerOf(mustRoute(t, coord, hash))
	if owner == nil || owner == home {
		t.Fatalf("second group owned by %s, home %s; want it placed off home", urlOf(owner), home.url)
	}

	reads := []struct {
		name string
		read func() bool
	}{
		{"result", func() bool { _, ok := coord.Lookup(hash); return ok }},
		{"series", func() bool { _, ok := coord.Series(hash); return ok }},
		{"events n=1", func() bool { _, ok := coord.TraceEvents(hash, 1); return ok }},
		{"stream", func() bool {
			rec := httptest.NewRecorder()
			ok := coord.ServeSeriesStream(rec, httptest.NewRequest(http.MethodGet, "/series/"+hash+"/stream", nil), hash)
			return ok && rec.Code == http.StatusOK && strings.Contains(rec.Body.String(), "event: series")
		}},
	}
	for _, r := range reads {
		t.Run(r.name, func(t *testing.T) {
			for _, rc := range counters {
				rc.reads.Store(0)
			}
			if !r.read() {
				t.Fatal("read missed")
			}
			if n := counters[home.url].reads.Load(); n != 0 {
				t.Errorf("non-owner %s received %d requests, want 0", home.url, n)
			}
			if n := counters[owner.url].reads.Load(); n != 1 {
				t.Errorf("owner %s received %d requests, want 1", owner.url, n)
			}
		})
	}
}

func mustRoute(t *testing.T, c *Coordinator, hash string) string {
	t.Helper()
	key, ok := c.routes.Get(hash, false)
	if !ok {
		t.Fatalf("no route recorded for %s", hash)
	}
	return key
}
