package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"a4sim/internal/cluster"
	"a4sim/internal/service"
)

// coordServer stands up nBackends real backend daemons plus a coordinator
// fronting them, all on httptest listeners, and returns the coordinator's
// server (same HTTP API as a single node — that is the point).
func coordServer(t *testing.T, nBackends int) *httptest.Server {
	t.Helper()
	urls := make([]string, nBackends)
	for i := range urls {
		urls[i] = testServer(t).URL
	}
	coord, err := cluster.New(cluster.Config{Backends: urls})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(service.NewMux(coord, func() any { return coord.Stats() }, nil))
	t.Cleanup(srv.Close)
	return srv
}

func postBody(t *testing.T, url string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// TestClusterEndpointMatchesSingleNode pins that a client cannot tell a
// coordinator from a daemon: the full /sweep response body through a
// 2-backend cluster is byte-identical to a fresh single node's, and the
// coordinator's /stats merges per-backend counters whose sums match the
// fleet totals.
func TestClusterEndpointMatchesSingleNode(t *testing.T) {
	sweep := []byte(`{
		"spec": {"name": "smoke", "manager": "a4-d", "params": {"rate_scale": 8192},
		         "warmup_sec": 1, "measure_sec": 1, "workloads": [
		           {"kind": "dpdk", "name": "dpdk-t", "cores": [0, 1], "priority": "hpw", "touch": true},
		           {"kind": "xmem", "name": "xmem", "cores": [2], "ws_kb": 1024, "pattern": "random"}]},
		"axes": [{"param": "manager", "managers": ["default", "a4-d"]},
		         {"param": "nic_gbps", "values": [50, 100]}]
	}`)

	coord := coordServer(t, 2)
	single := testServer(t)

	code, clusterBody := postBody(t, coord.URL+"/sweep", sweep)
	if code != http.StatusOK {
		t.Fatalf("coordinator /sweep status %d: %s", code, clusterBody)
	}
	code, singleBody := postBody(t, single.URL+"/sweep", sweep)
	if code != http.StatusOK {
		t.Fatalf("single-node /sweep status %d", code)
	}
	if !bytes.Equal(clusterBody, singleBody) {
		t.Fatalf("cluster /sweep response differs from single node:\n%s\nvs\n%s", clusterBody, singleBody)
	}

	// Re-POST: every point is now cache-served by its owning backend, and
	// the hits land in the merged per-backend stats.
	if code, again := postBody(t, coord.URL+"/sweep", sweep); code != http.StatusOK {
		t.Fatalf("second coordinator /sweep status %d: %s", code, again)
	}
	resp, err := http.Get(coord.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st cluster.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if len(st.Backends) != 2 {
		t.Fatalf("merged stats list %d backends, want 2", len(st.Backends))
	}
	var hitSum, execSum uint64
	for _, bs := range st.Backends {
		hitSum += bs.Stats.Hits
		execSum += bs.Stats.Executions
	}
	if hitSum != st.Hits || execSum != st.Executions {
		t.Errorf("per-backend sums (hits %d, execs %d) != merged (%d, %d)",
			hitSum, execSum, st.Hits, st.Executions)
	}
	if st.Hits < 4 {
		t.Errorf("merged hits = %d, want >= 4 (every re-swept point cache-served)", st.Hits)
	}
	if st.Executions != 4 {
		t.Errorf("merged executions = %d, want exactly 4", st.Executions)
	}

	// /run through the coordinator serves the same API, including /result
	// retrieval by content address.
	spec := []byte(`{"name": "one", "manager": "a4-d", "params": {"rate_scale": 8192},
		"warmup_sec": 1, "measure_sec": 1,
		"workloads": [{"kind": "xmem", "name": "xmem", "cores": [0], "ws_kb": 1024, "pattern": "random"}]}`)
	code, runBody := postBody(t, coord.URL+"/run", spec)
	if code != http.StatusOK {
		t.Fatalf("coordinator /run status %d: %s", code, runBody)
	}
	var rr runResponse
	if err := json.Unmarshal(runBody, &rr); err != nil {
		t.Fatal(err)
	}
	client := service.NewClient(coord.URL, nil)
	if _, err := client.Result(rr.Hash); err != nil {
		t.Errorf("coordinator /result/<hash>: %v", err)
	}

	// Error taxonomy round-trips through the coordinator: a bad spec is the
	// same 422 APIError a single node answers.
	var ae *service.APIError
	if _, err := client.RunBytes(context.Background(), []byte(`{"manager": "bogus", "workloads": [{"kind": "xmem", "cores": [0]}]}`)); !errors.As(err, &ae) || ae.Status != http.StatusUnprocessableEntity {
		t.Errorf("coordinator bad-spec /run err = %v, want APIError status 422", err)
	}
}
