package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"a4sim/internal/service"
)

// stubServer answers every API path with a canned success after delay,
// optionally shedding with 429 once more than maxInflight requests are in
// flight — a server whose capacity the tests control exactly.
func stubServer(t *testing.T, delay time.Duration, maxInflight int64) *httptest.Server {
	t.Helper()
	var inflight atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := inflight.Add(1)
		defer inflight.Add(-1)
		if maxInflight > 0 && n > maxInflight {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(service.ErrorBody{Error: "stub: shedding", Status: http.StatusTooManyRequests})
			return
		}
		if delay > 0 {
			time.Sleep(delay)
		}
		w.Header().Set("Content-Type", "application/json")
		switch {
		case r.URL.Path == "/run" || r.URL.Path == "/extend":
			w.Write([]byte(`{"hash":"stub","cached":true,"report":{}}`))
		case r.URL.Path == "/sweep":
			w.Write([]byte(`{"points":[]}`))
		default:
			w.Write([]byte(`{}`))
		}
	}))
	t.Cleanup(srv.Close)
	return srv
}

// TestLagBoundFires pins the open-loop honesty condition: against a
// server far slower than the offered rate, the bounded in-flight cap
// forces sends past their scheduled times and the run must grade itself
// dishonest — while the same load against a fast server stays honest.
func TestLagBoundFires(t *testing.T) {
	cfg := Config{
		Rate:        50,
		Duration:    500 * time.Millisecond,
		Seed:        1,
		Mix:         map[string]float64{ClassCached: 1},
		MaxInflight: 2,
		LagBoundMs:  50,
	}

	slow := stubServer(t, 150*time.Millisecond, 0)
	cfg.URL = slow.URL
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent != res.Offered {
		t.Fatalf("sent %d of %d offered", res.Sent, res.Offered)
	}
	if res.Honest() {
		t.Fatalf("run against a 150ms server at 50 rps with 2 in flight graded honest (lag p99 %.1fms)", res.LagP99Ms())
	}
	if res.LagP99Ms() <= cfg.LagBoundMs {
		t.Fatalf("lag p99 %.1fms did not exceed the %vms bound", res.LagP99Ms(), cfg.LagBoundMs)
	}

	fast := stubServer(t, 0, 0)
	cfg.URL = fast.URL
	res, err = Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Honest() {
		t.Fatalf("run against an instant server graded dishonest (lag p99 %.1fms)", res.LagP99Ms())
	}
}

// TestLatencyCountsQueueing pins the coordinated-omission fix: with one
// in-flight slot and a server slower than the arrival gap, later requests
// wait for the slot, and that wait is part of the latency the client
// experiences. Timed from slot acquisition, every request would read as
// one service time; timed from its scheduled send, the backlog shows.
func TestLatencyCountsQueueing(t *testing.T) {
	const delay = 60 * time.Millisecond
	srv := stubServer(t, delay, 0)
	res, err := Run(context.Background(), Config{
		URL:         srv.URL,
		Rate:        50,
		Duration:    200 * time.Millisecond,
		Seed:        1,
		Mix:         map[string]float64{ClassCached: 1},
		MaxInflight: 1,
		SkipPriming: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent != res.Offered || res.Sent < 8 {
		t.Fatalf("sent %d of %d offered", res.Sent, res.Offered)
	}
	// Ten 20ms-spaced arrivals through one 60ms slot: the last one is sent
	// ~400ms after it was due, so the tail must carry several service times.
	if p99 := res.P99Ms(); p99 < 4*float64(delay/time.Millisecond) {
		t.Fatalf("p99 %.1fms with a 1-slot cap and a %v server: queueing behind the cap is not counted", p99, delay)
	}
}

// TestSearchConverges drives the saturation search against a stub whose
// capacity is known by construction (8 concurrent slots x 5ms service
// time = ~1600 rps): the search must bracket the knee, converge, and
// report a sustained rate on the right side of it.
func TestSearchConverges(t *testing.T) {
	srv := stubServer(t, 5*time.Millisecond, 8)
	sr, err := Search(context.Background(), SearchConfig{
		Load:          Config{URL: srv.URL, Seed: 9, Mix: map[string]float64{ClassCached: 1}},
		SLOP99Ms:      200,
		MinRate:       100,
		MaxRate:       3200,
		ProbeDuration: 700 * time.Millisecond,
		Tolerance:     0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sr.SustainedRPS < 100 || sr.SustainedRPS >= 3200 {
		t.Fatalf("sustained %.0f rps, want within (100, 3200) for a ~1600 rps stub", sr.SustainedRPS)
	}
	if !sr.Converged {
		t.Fatalf("search did not converge: %+v", sr.Probes)
	}
	if len(sr.Probes) < 3 {
		t.Fatalf("only %d probes for a bracketed search", len(sr.Probes))
	}
	// The probe log must contain the failing side too: a search that never
	// saw an unsustainable rate found a bound, not a knee.
	sawOver := false
	for _, p := range sr.Probes {
		if !p.Sustainable {
			sawOver = true
		}
	}
	if !sawOver {
		t.Fatal("no unsustainable probe recorded")
	}
}

// TestOpenLoopEndToEnd runs the full harness — priming, mixed classes,
// every endpoint — against a real in-process service and checks the
// measured result and its canonical JSON shape.
func TestOpenLoopEndToEnd(t *testing.T) {
	svc := service.New(service.Config{Workers: 4, CacheEntries: 64})
	t.Cleanup(svc.Close)
	srv := httptest.NewServer(service.NewMux(svc, func() any { return svc.Stats() }, nil))
	t.Cleanup(srv.Close)

	res, err := Run(context.Background(), Config{
		URL:      srv.URL,
		Rate:     30,
		Duration: 2 * time.Second,
		Arrival:  ArrivalPoisson,
		Seed:     5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent != res.Offered || res.Sent == 0 {
		t.Fatalf("sent %d of %d offered", res.Sent, res.Offered)
	}
	if got := res.ErrorRate(); got != 0 {
		t.Fatalf("error rate %.4f against a healthy service (outcomes %v)", got, res.Outcomes())
	}
	for _, class := range []string{ClassCached, ClassSeries} {
		h := res.Classes[class][OutcomeOK]
		if h == nil || h.Count() == 0 {
			t.Fatalf("class %s recorded no successes: %v", class, res.ClassNames())
		}
	}

	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Honest bool `json:"honest"`
		Lag    struct {
			Hist struct {
				SubBits int `json:"sub_bits"`
			} `json:"hist"`
		} `json:"lag"`
		Classes map[string]map[string]struct {
			Count uint64          `json:"count"`
			Hist  json.RawMessage `json:"hist"`
		} `json:"classes"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("result JSON does not parse: %v", err)
	}
	if decoded.Lag.Hist.SubBits != 5 {
		t.Fatalf("lag histogram sub_bits = %d, want 5", decoded.Lag.Hist.SubBits)
	}
	if len(decoded.Classes) == 0 {
		t.Fatal("result JSON carries no classes")
	}
}
