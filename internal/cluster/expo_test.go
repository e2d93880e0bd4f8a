package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"a4sim/internal/service"
)

// The exposition pin: the exact shape of /stats and /metrics, served by a
// node with a store and by a coordinator over two such nodes. /stats is
// pinned by key order (top level, coordinator backends, backends[].stats);
// /metrics by the sequence of # TYPE lines and samples with their label
// sets and values. Histograms are timing, so their values are masked and
// only each label set's +Inf bucket, _sum and _count are kept; backend URLs
// read B1 and B2 in configuration order.

const nodeStatsKeys = "hits misses dedups executions errors entries workers queued " +
	"snapshot_forks snapshot_entries store_hits store_objects store_quarantined"

const nodeMetrics = `# TYPE a4_hits_total counter
a4_hits_total 0
# TYPE a4_misses_total counter
a4_misses_total 1
# TYPE a4_dedups_total counter
a4_dedups_total 0
# TYPE a4_executions_total counter
a4_executions_total 1
# TYPE a4_errors_total counter
a4_errors_total 0
# TYPE a4_cache_entries gauge
a4_cache_entries 1
# TYPE a4_workers gauge
a4_workers 2
# TYPE a4_queued gauge
a4_queued 0
# TYPE a4_snapshot_forks_total counter
a4_snapshot_forks_total 0
# TYPE a4_snapshot_entries gauge
a4_snapshot_entries 1
# TYPE a4_store_hits_total counter
a4_store_hits_total 0
# TYPE a4_store_objects gauge
a4_store_objects 2
# TYPE a4_store_quarantined_total counter
a4_store_quarantined_total 0
# TYPE a4_queue_wait_seconds histogram
a4_queue_wait_seconds_bucket{le="+Inf"} *
a4_queue_wait_seconds_sum *
a4_queue_wait_seconds_count *
# TYPE a4_traces gauge
a4_traces 1
# TYPE a4_trace_ring_dropped_total counter
a4_trace_ring_dropped_total 0
# TYPE a4_http_request_duration_seconds histogram
a4_http_request_duration_seconds_bucket{endpoint="run",le="+Inf"} *
a4_http_request_duration_seconds_sum{endpoint="run"} *
a4_http_request_duration_seconds_count{endpoint="run"} *
`

const coordMetrics = `# TYPE a4_hits_total counter
a4_hits_total 0
a4_hits_total{backend="B1"} 0
a4_hits_total{backend="B2"} 0
# TYPE a4_misses_total counter
a4_misses_total 4
a4_misses_total{backend="B1"} 2
a4_misses_total{backend="B2"} 2
# TYPE a4_dedups_total counter
a4_dedups_total 0
a4_dedups_total{backend="B1"} 0
a4_dedups_total{backend="B2"} 0
# TYPE a4_executions_total counter
a4_executions_total 4
a4_executions_total{backend="B1"} 2
a4_executions_total{backend="B2"} 2
# TYPE a4_errors_total counter
a4_errors_total 0
a4_errors_total{backend="B1"} 0
a4_errors_total{backend="B2"} 0
# TYPE a4_cache_entries gauge
a4_cache_entries 4
a4_cache_entries{backend="B1"} 2
a4_cache_entries{backend="B2"} 2
# TYPE a4_workers gauge
a4_workers 4
a4_workers{backend="B1"} 2
a4_workers{backend="B2"} 2
# TYPE a4_queued gauge
a4_queued 0
a4_queued{backend="B1"} 0
a4_queued{backend="B2"} 0
# TYPE a4_snapshot_forks_total counter
a4_snapshot_forks_total 0
a4_snapshot_forks_total{backend="B1"} 0
a4_snapshot_forks_total{backend="B2"} 0
# TYPE a4_snapshot_entries gauge
a4_snapshot_entries 4
a4_snapshot_entries{backend="B1"} 2
a4_snapshot_entries{backend="B2"} 2
# TYPE a4_store_hits_total counter
a4_store_hits_total 0
a4_store_hits_total{backend="B1"} 0
a4_store_hits_total{backend="B2"} 0
# TYPE a4_store_objects gauge
a4_store_objects 8
a4_store_objects{backend="B1"} 4
a4_store_objects{backend="B2"} 4
# TYPE a4_store_quarantined_total counter
a4_store_quarantined_total 0
a4_store_quarantined_total{backend="B1"} 0
a4_store_quarantined_total{backend="B2"} 0
# TYPE a4_backend_up gauge
a4_backend_up{backend="B1"} 1
a4_backend_up{backend="B2"} 1
# TYPE a4_cluster_reroutes_total counter
a4_cluster_reroutes_total 0
# TYPE a4_cluster_soft_retries_total counter
a4_cluster_soft_retries_total 0
# TYPE a4_cluster_snapshot_handoffs_total counter
a4_cluster_snapshot_handoffs_total 0
# TYPE a4_cluster_rejected_total counter
a4_cluster_rejected_total 0
# TYPE a4_traces gauge
a4_traces 0
# TYPE a4_trace_ring_dropped_total counter
a4_trace_ring_dropped_total 0
# TYPE a4_http_request_duration_seconds histogram
a4_http_request_duration_seconds_bucket{endpoint="sweep",le="+Inf"} *
a4_http_request_duration_seconds_sum{endpoint="sweep"} *
a4_http_request_duration_seconds_count{endpoint="sweep"} *
`

func TestExpositionPin(t *testing.T) {
	node := newStoreBackend(t)
	b1, b2 := newStoreBackend(t), newStoreBackend(t)
	coord := newCoordinator(t, b1.URL, b2.URL)
	front := httptest.NewServer(service.NewMux(coord, func() any { return coord.Stats() }, nil))
	t.Cleanup(front.Close)

	body, _ := json.Marshal(testSpec(81))
	pinPost(t, node.URL+"/run", body)
	// Four prefix groups of equal cost: bounded-load placement puts two on
	// each backend whatever their ports, so per-backend values are fixed.
	sweep, _ := json.Marshal(&service.SweepRequest{
		Spec: *testSpec(82),
		Axes: []service.Axis{
			{Param: "manager", Managers: []string{"default", "a4-d"}},
			{Param: "nic_gbps", Values: []float64{50, 100}},
		},
	})
	pinPost(t, front.URL+"/sweep", sweep)

	pinKeys(t, "node /stats", pinGet(t, node.URL+"/stats"), nodeStatsKeys)
	var coordStats map[string]json.RawMessage
	raw := pinGet(t, front.URL+"/stats")
	pinKeys(t, "coordinator /stats", raw, nodeStatsKeys+" reroutes soft_retries snapshot_handoffs rejected backends")
	json.Unmarshal(raw, &coordStats)
	var backends []json.RawMessage
	if err := json.Unmarshal(coordStats["backends"], &backends); err != nil || len(backends) != 2 {
		t.Fatalf("coordinator backends = %s (%v), want 2 entries", coordStats["backends"], err)
	}
	for _, b := range backends {
		pinKeys(t, "coordinator backends[]", b, "url down reachable stats")
		var bs map[string]json.RawMessage
		json.Unmarshal(b, &bs)
		pinKeys(t, "coordinator backends[].stats", bs["stats"], nodeStatsKeys)
	}

	norm := strings.NewReplacer(b1.URL, "B1", b2.URL, "B2")
	if got := pinMetrics(pinGet(t, node.URL+"/metrics"), norm); got != nodeMetrics {
		t.Errorf("node /metrics shape:\n%s\nwant:\n%s", got, nodeMetrics)
	}
	if got := pinMetrics(pinGet(t, front.URL+"/metrics"), norm); got != coordMetrics {
		t.Errorf("coordinator /metrics shape:\n%s\nwant:\n%s", got, coordMetrics)
	}
}

func pinPost(t *testing.T, url string, body []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: %s", url, resp.Status)
	}
}

func pinGet(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s %v", url, resp.Status, err)
	}
	return data
}

// pinKeys checks a JSON object's keys, in wire order, against want
// (space-separated).
func pinKeys(t *testing.T, what string, raw []byte, want string) {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(raw))
	var keys []string
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		t.Fatalf("%s: not an object: %s", what, raw)
	}
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		keys = append(keys, tok.(string))
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	if got := strings.Join(keys, " "); got != want {
		t.Errorf("%s keys:\n got %s\nwant %s", what, got, want)
	}
}

// pinMetrics reduces an exposition to its pinned shape: # TYPE lines as
// they are, non-histogram samples with their values, and per histogram
// label set only the +Inf bucket, _sum and _count with values masked.
func pinMetrics(data []byte, norm *strings.Replacer) string {
	var out strings.Builder
	hist := map[string]bool{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := norm.Replace(sc.Text())
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			hist[f[2]] = f[3] == "histogram"
			out.WriteString(line + "\n")
			continue
		}
		sample, value, _ := strings.Cut(line, " ")
		name, _, _ := strings.Cut(sample, "{")
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(name, suf); ok && hist[base] {
				if suf == "_bucket" && !strings.Contains(sample, `le="+Inf"`) {
					sample = ""
				}
				value = "*"
			}
		}
		if sample != "" {
			out.WriteString(sample + " " + value + "\n")
		}
	}
	return out.String()
}
