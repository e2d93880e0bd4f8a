package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"a4sim/internal/scenario"
	"a4sim/internal/service"
)

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	svc := service.New(service.Config{Workers: 2, CacheEntries: 16})
	t.Cleanup(svc.Close)
	srv := httptest.NewServer(service.NewMux(svc, func() any { return svc.Stats() }, nil))
	t.Cleanup(srv.Close)
	return srv
}

func tinyBody(t *testing.T) []byte {
	t.Helper()
	sp, err := scenario.BuiltinMix("tiny")
	if err != nil {
		t.Fatal(err)
	}
	sp.Params.RateScale = 8192
	data, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

type runResponse struct {
	Hash   string          `json:"hash"`
	Cached bool            `json:"cached"`
	Report json.RawMessage `json:"report"`
}

func TestRunEndpointCachesSecondPost(t *testing.T) {
	srv := testServer(t)
	body := tinyBody(t)

	client := service.NewClient(srv.URL, nil)
	post := func() service.Result {
		res, err := client.RunBytes(context.Background(), body)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1 := post()
	r2 := post()
	if r1.Cached || !r2.Cached {
		t.Errorf("cached flags = %v, %v; want false, true", r1.Cached, r2.Cached)
	}
	if !bytes.Equal(r1.Report, r2.Report) {
		t.Error("cache-served report differs from executed report")
	}

	// The hit shows up in /stats and the report is addressable by hash.
	st, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Hits < 1 || st.Executions != 1 {
		t.Errorf("stats = %+v, want >=1 hit and exactly 1 execution", st)
	}

	data, err := client.Result(r1.Hash)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := scenario.DecodeReport(data)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Hash != r1.Hash {
		t.Errorf("served report hash %s, want %s", rep.Hash, r1.Hash)
	}
}

func TestRunEndpointRejectsBadSpecs(t *testing.T) {
	srv := testServer(t)
	client := service.NewClient(srv.URL, nil)

	// Rejections come back through the client as the typed taxonomy: a
	// malformed body is a 400 APIError, an invalid spec a 422, an unknown
	// content address the ErrUnknownHash sentinel.
	var ae *service.APIError
	if _, err := client.RunBytes(context.Background(), []byte("{not json")); !errors.As(err, &ae) || ae.Status != http.StatusBadRequest {
		t.Errorf("malformed JSON: err = %v, want APIError status 400", err)
	}
	if _, err := client.RunBytes(context.Background(), []byte(`{"manager": "bogus", "workloads": [{"kind": "xmem", "cores": [0]}]}`)); !errors.As(err, &ae) || ae.Status != http.StatusUnprocessableEntity {
		t.Errorf("invalid spec: err = %v, want APIError status 422", err)
	}
	if _, err := client.Result("unknownhash"); !errors.Is(err, service.ErrUnknownHash) {
		t.Errorf("unknown result hash: err = %v, want ErrUnknownHash", err)
	}

	resp, err := http.Get(srv.URL + "/run")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /run: status %d, want 405", resp.StatusCode)
	}
}

func TestSweepEndpoint(t *testing.T) {
	srv := testServer(t)
	sp, err := scenario.BuiltinMix("tiny")
	if err != nil {
		t.Fatal(err)
	}
	sp.Params.RateScale = 8192
	req := map[string]any{
		"spec": sp,
		"axes": []map[string]any{{"param": "manager", "managers": []string{"default", "a4-d"}}},
	}
	body, _ := json.Marshal(req)
	resp, err := http.Post(srv.URL+"/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /sweep: status %d", resp.StatusCode)
	}
	var out struct {
		Points []struct {
			Grid map[string]any `json:"grid"`
			Hash string         `json:"hash"`
		} `json:"points"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	points := out.Points
	if len(points) != 2 {
		t.Fatalf("got %d points, want 2", len(points))
	}
	if points[0].Grid["manager"] != "default" || points[1].Grid["manager"] != "a4-d" {
		t.Errorf("grid order not deterministic: %v", points)
	}
	if points[0].Hash == points[1].Hash {
		t.Error("distinct grid points share a hash")
	}
}
