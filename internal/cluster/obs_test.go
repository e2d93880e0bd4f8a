package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"a4sim/internal/obs"
	"a4sim/internal/scenario"
	"a4sim/internal/service"
	"a4sim/internal/store"
)

// newStoreBackend is newBackend with a durable store, so traced runs record
// store_write spans.
func newStoreBackend(t *testing.T) *httptest.Server {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	svc := service.New(service.Config{Workers: 2, CacheEntries: 64, Store: st})
	t.Cleanup(svc.Close)
	srv := httptest.NewServer(service.NewMux(svc, func() any { return svc.Stats() }, nil))
	t.Cleanup(srv.Close)
	return srv
}

// TestCoordinatorTraceJoinAcrossReroute is the cross-host tracing
// acceptance pin: a traced POST /run through a 2-backend coordinator whose
// routing target is dead yields ONE trace that shows the failed hop, the
// reroute decision, and — merged from the surviving backend under the same
// forwarded ID — the execution's own lifecycle spans (queue, warm, measure,
// store), each labeled with the backend that ran them.
func TestCoordinatorTraceJoinAcrossReroute(t *testing.T) {
	dead := newStoreBackend(t)
	live := newStoreBackend(t)
	sp := testSpec(5)
	sp.Series = &scenario.SeriesSpec{}
	_, _, prefix, err := sp.Digest()
	if err != nil {
		t.Fatal(err)
	}

	coord := newCoordinator(t, dead.URL, live.URL)
	// Kill whichever backend rendezvous routing picks first for this prefix,
	// so the submission must reroute to the other.
	order := coord.rendezvous(prefix)
	deadURL, liveURL := dead.URL, live.URL
	if order[0].url == live.URL {
		deadURL, liveURL = live.URL, dead.URL
	}
	if deadURL == dead.URL {
		dead.Close()
	} else {
		live.Close()
	}

	mux := service.NewMux(coord, func() any { return coord.Stats() }, nil)
	front := httptest.NewServer(mux)
	defer front.Close()

	body, _ := json.Marshal(sp)
	req, _ := http.NewRequest(http.MethodPost, front.URL+"/run", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.TraceHeader, "join-across-reroute-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var wr struct {
		Hash string `json:"hash"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&wr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run status %d", resp.StatusCode)
	}

	tresp, err := http.Get(front.URL + "/trace/join-across-reroute-1")
	if err != nil {
		t.Fatal(err)
	}
	tbody, _ := io.ReadAll(tresp.Body)
	tresp.Body.Close()
	if tresp.StatusCode != http.StatusOK {
		t.Fatalf("trace status %d: %s", tresp.StatusCode, tbody)
	}
	id, spans, err := obs.DecodeTrace(tbody)
	if err != nil {
		t.Fatal(err)
	}
	if id != "join-across-reroute-1" {
		t.Errorf("trace id %q", id)
	}

	byName := map[string][]obs.Span{}
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], s)
	}
	// The routing story: attempts against the dead backend (first call plus
	// the soft retry), the reroute decision, then the successful hop.
	deadCalls, liveCalls := 0, 0
	for _, s := range byName["backend_call"] {
		switch s.Backend {
		case deadURL:
			deadCalls++
		case liveURL:
			liveCalls++
		}
	}
	if deadCalls < 2 {
		t.Errorf("want >=2 backend_call spans to the dead backend (call + soft retry), got %d", deadCalls)
	}
	if liveCalls != 1 {
		t.Errorf("want 1 backend_call span to the live backend, got %d", liveCalls)
	}
	if len(byName["reroute"]) != 1 || byName["reroute"][0].Backend != deadURL {
		t.Errorf("reroute mark %v, want one naming %s", byName["reroute"], deadURL)
	}
	// The execution story, merged from the live backend and labeled with it.
	for _, want := range []string{"queue_wait", "warm", "measure", "store_write"} {
		ss := byName[want]
		if len(ss) == 0 {
			t.Errorf("merged trace missing %s span", want)
			continue
		}
		if ss[0].Backend != liveURL {
			t.Errorf("%s span labeled %q, want %q", want, ss[0].Backend, liveURL)
		}
	}

	// The same trace is also served directly by the backend that ran it —
	// the forwarded header joined the two hops under one ID.
	bresp, err := http.Get(liveURL + "/trace/join-across-reroute-1")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, bresp.Body)
	bresp.Body.Close()
	if bresp.StatusCode != http.StatusOK {
		t.Errorf("backend does not serve the joined trace: status %d", bresp.StatusCode)
	}

	// And the run's series streams through the coordinator byte-identically
	// to the backend's stored encoding.
	stored, ok := coord.Series(wr.Hash)
	if !ok {
		t.Fatal("series not fetchable through coordinator")
	}
	sresp, err := http.Get(front.URL + "/series/" + wr.Hash + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", sresp.StatusCode)
	}
	var final []byte
	sc := bufio.NewScanner(sresp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "event: ") {
			event = strings.TrimPrefix(line, "event: ")
		} else if strings.HasPrefix(line, "data: ") && event == "series" {
			final = []byte(strings.TrimPrefix(line, "data: "))
		}
	}
	if !bytes.Equal(final, stored) {
		t.Errorf("proxied stream's terminal series differs from stored bytes")
	}
}

// TestCoordinatorMetricsExposition: one scrape serves the fleet sum
// unlabeled, each reachable backend labeled, backend liveness, and the
// coordinator's routing counters.
func TestCoordinatorMetricsExposition(t *testing.T) {
	b1, b2 := newBackend(t), newBackend(t)
	coord := newCoordinator(t, b1.URL, b2.URL)
	if _, err := coord.Submit(context.Background(), testSpec(6)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	coord.WriteMetrics(&buf)
	out := buf.String()
	for _, want := range []string{
		"# TYPE a4_executions_total counter",
		"a4_executions_total 1\n", // fleet sum, unlabeled
		fmt.Sprintf(`a4_executions_total{backend="%s"}`, b1.URL),
		fmt.Sprintf(`a4_backend_up{backend="%s"} 1`, b2.URL),
		"a4_cluster_reroutes_total 0",
		"a4_cluster_rejected_total 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q in:\n%s", want, out)
		}
	}
}

// TestCoordinatorTraceEventsProxy: the coordinator serves a cached run's
// controller event log from the backend that executed it.
func TestCoordinatorTraceEventsProxy(t *testing.T) {
	coord := newCoordinator(t, newBackend(t).URL, newBackend(t).URL)
	sp := testSpec(7)
	sp.MeasureSec = 8 // long enough for controller decisions to land
	res, err := coord.Submit(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	data, ok := coord.TraceEvents(res.Hash, 0)
	if !ok {
		t.Fatal("event log not served through coordinator")
	}
	var log struct {
		Events []json.RawMessage `json:"events"`
	}
	if err := json.Unmarshal(data, &log); err != nil {
		t.Fatalf("event log not JSON: %v", err)
	}
	if len(log.Events) == 0 {
		t.Error("no controller events recorded")
	}
	if tail, ok := coord.TraceEvents(res.Hash, 1); ok {
		var tl struct {
			Events []json.RawMessage `json:"events"`
		}
		if json.Unmarshal(tail, &tl) != nil || len(tl.Events) != 1 {
			t.Errorf("n=1 tail served %s", tail)
		}
	} else {
		t.Error("tailed event log not served")
	}
	if _, ok := coord.TraceEvents("0000000000000000", 0); ok {
		t.Error("unknown hash served an event log")
	}
}

// TestClusterExtendTraceEventsMatchSingleNode: a coordinator /extend forks
// the owning backend's warm snapshot, and the extended run's event log is
// byte-identical to a single node's fresh run of the longer window.
func TestClusterExtendTraceEventsMatchSingleNode(t *testing.T) {
	coord := newCoordinator(t, newBackend(t).URL, newBackend(t).URL)
	sp := testSpec(99)
	sp.MeasureSec = 2
	first, err := coord.Submit(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	ext, err := coord.Extend(context.Background(), first.Hash, 8)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := coord.TraceEvents(ext.Hash, 0)
	if !ok {
		t.Fatal("extended run's event log not served through the coordinator")
	}

	single := service.New(service.Config{Workers: 1})
	defer single.Close()
	sp = testSpec(99)
	sp.MeasureSec = 8
	fresh, err := single.Submit(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	want, ok := single.TraceEvents(fresh.Hash, 0)
	if !ok {
		t.Fatal("single node served no event log")
	}
	if !bytes.Equal(got, want) {
		t.Errorf("cluster-extended event log differs from a single node's fresh run\ncluster: %s\nsingle:  %s", got, want)
	}
}

// TestCoordinatorStreamUnknownHash404s: a hash no backend can stream gets
// the same error envelope a single node sends.
func TestCoordinatorStreamUnknownHash404s(t *testing.T) {
	coord := newCoordinator(t, newBackend(t).URL, newBackend(t).URL)
	front := httptest.NewServer(service.NewMux(coord, func() any { return coord.Stats() }, nil))
	t.Cleanup(front.Close)
	const hash = "deadbeef"
	resp, err := http.Get(front.URL + "/series/" + hash + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status %d, want 404", resp.StatusCode)
	}
	var eb service.ErrorBody
	if err := json.Unmarshal(body, &eb); err != nil || eb.Status != http.StatusNotFound || eb.Hash != hash || eb.Error == "" {
		t.Errorf("envelope %s (err %v), want status 404 and hash %s", body, err, hash)
	}
}
