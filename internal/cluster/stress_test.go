package cluster

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestCoordinatorStressRace is the cluster shape of the service stress
// test: mixed Submit/Extend/Lookup/Stats clients against a coordinator
// over two real backends, run under -race in CI. Cached responses must
// stay byte-identical across backends and retries, and the fleet-merged
// counters must account for every request the clients made.
func TestCoordinatorStressRace(t *testing.T) {
	b1, b2 := newBackend(t), newBackend(t)
	c := newCoordinator(t, b1.URL, b2.URL)

	// Prime two popular specs; distinct seeds give distinct prefixes, so
	// with two backends they may land on either (or both on one).
	refs := make([]primedRun, 2)
	for i := range refs {
		res, err := c.Submit(context.Background(), testSpec(uint64(600+i)))
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = primedRun{hash: res.Hash, report: res.Report}
	}

	const clients = 6
	const iters = 20
	var cached, uncached atomic.Uint64
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				ref := refs[i%len(refs)]
				switch i % 5 {
				case 3:
					// Same extension from every client: one execution on the
					// owning backend, the rest cache hits or dedups.
					res, err := c.Extend(context.Background(), ref.hash, 2)
					if err != nil {
						errs <- fmt.Errorf("client %d extend: %w", cl, err)
						return
					}
					tally(&cached, &uncached, res.Cached)
				case 4:
					if rep, ok := c.Lookup(ref.hash); !ok || !bytes.Equal(rep, ref.report) {
						errs <- fmt.Errorf("client %d: Lookup lost the reference report", cl)
						return
					}
				default:
					res, err := c.Submit(context.Background(), testSpec(uint64(600+i%len(refs))))
					if err != nil {
						errs <- fmt.Errorf("client %d submit: %w", cl, err)
						return
					}
					if !bytes.Equal(res.Report, ref.report) {
						errs <- fmt.Errorf("client %d: cached report differs from reference", cl)
						return
					}
					tally(&cached, &uncached, res.Cached)
				}
			}
		}(cl)
	}
	// Concurrent fleet-stats scrapes (each fans out to every backend).
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
				c.Stats()
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

	st := c.Stats()
	if st.Errors != 0 {
		t.Errorf("fleet errors = %d, want 0", st.Errors)
	}
	if st.Reroutes != 0 || st.SoftRetries != 0 {
		t.Errorf("reroutes=%d softRetries=%d, want 0 (no backend died)", st.Reroutes, st.SoftRetries)
	}
	if st.Hits != cached.Load() {
		t.Errorf("fleet hits = %d, want %d (clients observed)", st.Hits, cached.Load())
	}
	// +2 for the priming submissions.
	if st.Misses+st.Dedups != uncached.Load()+2 {
		t.Errorf("misses+dedups = %d+%d, want %d", st.Misses, st.Dedups, uncached.Load()+2)
	}
	if st.Executions != st.Misses {
		t.Errorf("executions = %d, misses = %d", st.Executions, st.Misses)
	}
}

// primedRun pins the reference bytes for one primed run.
type primedRun struct {
	hash   string
	report []byte
}

func tally(cached, uncached *atomic.Uint64, wasCached bool) {
	if wasCached {
		cached.Add(1)
	} else {
		uncached.Add(1)
	}
}
