package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
)

// TestEncodeResultEnvelopeMatchesJSON pins the hand-rolled envelope encoder
// against encoding/json on a real report: the serving fast path must stay
// byte-identical to what writeJSON of the equivalent map would have
// produced, or cached and uncached answers for the same run would differ.
func TestEncodeResultEnvelopeMatchesJSON(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()
	res, err := svc.Submit(context.Background(), testSpec(77))
	if err != nil {
		t.Fatal(err)
	}
	for _, cached := range []bool{false, true} {
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		if err := enc.Encode(map[string]any{
			"cached": cached,
			"hash":   res.Hash,
			"report": json.RawMessage(res.Report),
		}); err != nil {
			t.Fatal(err)
		}
		got := encodeResultEnvelope(res.Hash, cached, res.Report)
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("cached=%v: envelope differs from json.Encoder:\n got %q\nwant %q",
				cached, got, want.Bytes())
		}
	}
}

// TestServiceStressRace hammers one Service with mixed Run/Lookup/Series/
// Extend/Stats clients (run under -race in CI) and then checks the atomic
// counters against per-client tallies: every observation a client made must
// be visible in the merged stats — a lost atomic update or a torn cache
// entry fails the arithmetic, not just the race detector.
func TestServiceStressRace(t *testing.T) {
	svc := New(Config{Workers: 2, CacheEntries: 128})
	defer svc.Close()

	// Prime the popular spec so its report bytes are the reference.
	ref, err := svc.Submit(context.Background(), testSpec(500))
	if err != nil {
		t.Fatal(err)
	}

	const clients = 8
	const iters = 40
	var cached, uncached atomic.Uint64
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				var res Result
				var err error
				switch i % 8 {
				case 6:
					// A spec unique to this (client, iteration): always a miss.
					res, err = svc.Submit(context.Background(), testSpec(uint64(1000+c*iters+i)))
				case 7:
					// All clients extend the same run to the same window: one
					// execution, the rest dedups or hits.
					res, err = svc.Extend(context.Background(), ref.Hash, 2)
				default:
					res, err = svc.Submit(context.Background(), testSpec(500))
					if err == nil && !bytes.Equal(res.Report, ref.Report) {
						errs <- fmt.Errorf("client %d: cached report differs from reference", c)
						return
					}
				}
				if err != nil {
					errs <- fmt.Errorf("client %d iter %d: %w", c, i, err)
					return
				}
				if res.Cached {
					cached.Add(1)
				} else {
					uncached.Add(1)
				}
				// Interleave the read-only surfaces.
				if rep, ok := svc.Lookup(ref.Hash); !ok || !bytes.Equal(rep, ref.Report) {
					errs <- fmt.Errorf("client %d: Lookup lost the reference report", c)
					return
				}
				svc.Series(ref.Hash) // no series block: a miss, but must not race
			}
		}(c)
	}
	// A scrape client runs alongside: /stats + /metrics readers must never
	// block or corrupt the writers.
	done := make(chan struct{})
	var scrapeWG sync.WaitGroup
	scrapeWG.Add(1)
	go func() {
		defer scrapeWG.Done()
		for {
			select {
			case <-done:
				return
			default:
				svc.Stats()
				svc.WriteMetrics(io.Discard)
			}
		}
	}()
	wg.Wait()
	close(done)
	scrapeWG.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := svc.Stats()
	// +1 for the priming submission (an uncached miss).
	ops := cached.Load() + uncached.Load() + 1
	if st.Errors != 0 {
		t.Errorf("errors = %d, want 0", st.Errors)
	}
	if st.Hits != cached.Load() {
		t.Errorf("hits = %d, want %d (clients observed)", st.Hits, cached.Load())
	}
	if st.Misses+st.Dedups != uncached.Load()+1 {
		t.Errorf("misses+dedups = %d+%d, want %d", st.Misses, st.Dedups, uncached.Load()+1)
	}
	if st.Executions != st.Misses {
		t.Errorf("executions = %d, misses = %d; every miss should execute exactly once", st.Executions, st.Misses)
	}
	if got := st.Hits + st.Misses + st.Dedups; got != ops {
		t.Errorf("hits+misses+dedups = %d, want %d ops", got, ops)
	}
}

// TestServeStressByteIdentical drives the HTTP surface concurrently with
// the same /run body (the repeat-body fast path) while /metrics and /stats
// scrape, and asserts every response after priming is byte-for-byte the
// same cached envelope.
func TestServeStressByteIdentical(t *testing.T) {
	svc := New(Config{Workers: 2})
	defer svc.Close()
	srv := httptest.NewServer(NewMux(svc, func() any { return svc.Stats() }, nil))
	defer srv.Close()

	body, err := json.Marshal(testSpec(42))
	if err != nil {
		t.Fatal(err)
	}
	post := func() ([]byte, error) {
		resp, err := http.Post(srv.URL+"/run", "application/json", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("status %d: %s", resp.StatusCode, data)
		}
		return data, nil
	}
	if _, err := post(); err != nil { // prime: executes
		t.Fatal(err)
	}
	ref, err := post() // first cached answer: the reference bytes
	if err != nil {
		t.Fatal(err)
	}

	const clients = 8
	const iters = 25
	var wg sync.WaitGroup
	errs := make(chan error, clients+1)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				data, err := post()
				if err != nil {
					errs <- fmt.Errorf("client %d: %w", c, err)
					return
				}
				if !bytes.Equal(data, ref) {
					errs <- fmt.Errorf("client %d: response differs from reference:\n got %q\nwant %q", c, data, ref)
					return
				}
			}
		}(c)
	}
	// A scrape client runs alongside the posters until they finish.
	done := make(chan struct{})
	var scrapeWG sync.WaitGroup
	scrapeWG.Add(1)
	go func() {
		defer scrapeWG.Done()
		for {
			select {
			case <-done:
				return
			default:
				for _, path := range []string{"/stats", "/metrics"} {
					resp, err := http.Get(srv.URL + path)
					if err != nil {
						errs <- err
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}
	}()
	wg.Wait()
	close(done)
	scrapeWG.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := svc.Stats()
	if want := uint64(clients*iters + 1); st.Hits != want {
		t.Errorf("hits = %d, want %d", st.Hits, want)
	}
	if st.Errors != 0 {
		t.Errorf("errors = %d, want 0", st.Errors)
	}
}
