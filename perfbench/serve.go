package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"a4sim/internal/loadgen"
	"a4sim/internal/obs"
	"a4sim/internal/scenario"
	"a4sim/internal/service"
)

// conns is the connection cap of every load the benchmark offers: the
// machine the benchmark was sized on has two cores, and client and server
// share them.
const conns = 2

// Serve-mixed rates: at mixedLo nothing queues, so latency is service
// time; mixedHi is two thirds of the measured knee, where executions queue
// on two cores but the backlog does not grow. sloMs is the latency limit
// goodput counts against.
const (
	mixedLo = 40
	mixedHi = 160
	sloMs   = 100
)

// node is one in-process a4serve: a service behind an httptest listener.
type node struct {
	ts  *httptest.Server
	svc *service.Service
}

func newNode(svc *service.Service) *node {
	return &node{ts: httptest.NewServer(service.NewMux(svc, func() any { return svc.Stats() }, nil)), svc: svc}
}

// close stops the listener (waiting for in-flight requests), then the
// service's workers.
func (n *node) close() {
	n.ts.Close()
	n.svc.Close()
}

// client is an HTTP client capped at conns connections per host.
type client struct {
	hc *http.Client
	tr *http.Transport
}

func newClient() *client {
	tr := service.NewTransport(conns)
	return &client{hc: &http.Client{Timeout: 2 * time.Minute, Transport: tr}, tr: tr}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// do sends one request and returns the body of a 200 answer; traceID, when
// set, travels in the trace header so the server's spans carry it.
func (c *client) do(method, url string, body []byte, traceID string) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return nil, err
	}
	if traceID != "" {
		req.Header.Set(obs.TraceHeader, traceID)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

// envelope is a /run or /extend answer.
type envelope struct {
	Cached bool            `json:"cached"`
	Hash   string          `json:"hash"`
	Report json.RawMessage `json:"report"`
}

func decodeEnvelope(data []byte) (envelope, error) {
	var env envelope
	err := json.Unmarshal(data, &env)
	return env, err
}

// checkReport runs sp through Spec.Run, the single-node reference, and
// compares its report digest with the served bytes.
func checkReport(sp *scenario.Spec, served []byte) error {
	rep, err := sp.Run()
	if err != nil {
		return err
	}
	want, err := rep.Encode()
	if err != nil {
		return err
	}
	if sha256.Sum256(want) != sha256.Sum256(served) {
		return fmt.Errorf("spec %s: served report differs from Spec.Run", sp.Name)
	}
	return nil
}

// hitRequest is one cache-hit read and the bytes it must return.
type hitRequest struct {
	method, path string
	body, want   []byte
}

// primeHits executes the popular specs and the series spec once, then
// records the bytes each cache-hit read must return from then on.
func primeHits(c *client, base string, popular []*scenario.Spec, series *scenario.Spec) ([]hitRequest, error) {
	var reqs []hitRequest
	for _, sp := range popular {
		body, err := json.Marshal(sp)
		if err != nil {
			return nil, err
		}
		if _, err := c.do("POST", base+"/run", body, ""); err != nil {
			return nil, err
		}
		// The second answer is the first cached one: the body-memo path.
		want, err := c.do("POST", base+"/run", body, "")
		if err != nil {
			return nil, err
		}
		env, err := decodeEnvelope(want)
		if err != nil || !env.Cached {
			return nil, fmt.Errorf("priming %s: second answer not a cache hit (%v)", sp.Name, err)
		}
		reqs = append(reqs, hitRequest{"POST", "/run", body, want})
		report, err := c.do("GET", base+"/result/"+env.Hash, nil, "")
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(report, env.Report) {
			return nil, fmt.Errorf("priming %s: /result differs from the /run report", sp.Name)
		}
		reqs = append(reqs, hitRequest{"GET", "/result/" + env.Hash, nil, report})
	}
	body, err := json.Marshal(series)
	if err != nil {
		return nil, err
	}
	data, err := c.do("POST", base+"/run", body, "")
	if err != nil {
		return nil, err
	}
	env, err := decodeEnvelope(data)
	if err != nil {
		return nil, err
	}
	want, err := c.do("GET", base+"/series/"+env.Hash, nil, "")
	if err != nil {
		return nil, err
	}
	return append(reqs, hitRequest{"GET", "/series/" + env.Hash, nil, want}), nil
}

// cachedSpecs are the cache-hit path's inputs: the tiny mix under the
// three popular managers plus one series-enabled variant, all at a
// seed-derived simulation seed.
func cachedSpecs(seed uint64) ([]*scenario.Spec, *scenario.Spec, error) {
	tiny, err := scenario.BuiltinMix("tiny")
	if err != nil {
		return nil, nil, err
	}
	tiny.Params.Seed = seedStream(seed, 2)%1_000_000_000 + 1
	popular := scenario.ManagerVariants(tiny, []string{"a4-d", "default", "isolate"})
	series := tiny.Clone()
	series.Name = "perfbench-series"
	series.Series = &scenario.SeriesSpec{Metrics: []string{"core"}}
	return popular, series, nil
}

// cachedEnv is a primed server and the cache-hit reads it answers.
type cachedEnv struct {
	n    *node
	c    *client
	reqs []hitRequest
}

func (e *cachedEnv) close() {
	e.c.close()
	e.n.close()
}

func startCached(seed uint64) (*cachedEnv, error) {
	popular, series, err := cachedSpecs(seed)
	if err != nil {
		return nil, err
	}
	e := &cachedEnv{n: newNode(service.New(service.Config{Workers: conns})), c: newClient()}
	if e.reqs, err = primeHits(e.c, e.n.ts.URL, popular, series); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// hitLoop runs a closed loop: conns clients each send a seed-chosen
// cache-hit read as soon as the previous answer arrived, until the window
// closes, checking every answer byte for byte. Every traceEvery-th request
// of a client carries a trace ID, and its trace is fetched back.
func (r *run) hitLoop(e *cachedEnv, window time.Duration, traceEvery int) samples {
	lat := make([]samples, conns)
	wrong := make([][]error, conns)
	var wg sync.WaitGroup
	deadline := time.Now().Add(window)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(seedStream(r.seed, uint64(10+w)))))
			for i := 1; time.Now().Before(deadline); i++ {
				q := e.reqs[rng.Intn(len(e.reqs))]
				id := ""
				if i%traceEvery == 0 {
					id = obs.NewID()
				}
				t0 := time.Now()
				got, err := e.c.do(q.method, e.n.ts.URL+q.path, q.body, id)
				lat[w] = append(lat[w], time.Since(t0))
				if err == nil && !bytes.Equal(got, q.want) {
					err = fmt.Errorf("%s %s: answer differs from the primed bytes", q.method, q.path)
				}
				if err == nil && id != "" && q.method == "POST" {
					_, err = fetchSpans(e.c, e.n.ts.URL, id)
				}
				wrong[w] = append(wrong[w], err)
			}
		}(w)
	}
	wg.Wait()
	var all samples
	for w := range lat {
		all = append(all, lat[w]...)
		for _, err := range wrong[w] {
			r.op(err)
		}
	}
	return all
}

// mixedEnv is serve-mixed's primed server, the plan it is offered and the
// bytes the plan's cache reads must return.
type mixedEnv struct {
	n    *node
	c    *client
	tc   *client // trace reads, on connections of their own
	plan *loadgen.Plan
	want map[string][]byte // request key -> exact answer
}

func (e *mixedEnv) close() {
	e.c.close()
	e.tc.close()
	e.n.close()
}

func eventKey(ev loadgen.Event) string { return ev.Method + " " + ev.Path + " " + string(ev.Body) }

// startMixed builds the Poisson plan for rate and primes a fresh service
// with it; the cache-hit and series answers it records are what those
// classes must return during the run.
func startMixed(seed uint64, rate float64, window time.Duration) (*mixedEnv, error) {
	plan, err := loadgen.BuildPlan(loadgen.Config{Rate: rate, Duration: window, Arrival: loadgen.ArrivalPoisson, Seed: seed})
	if err != nil {
		return nil, err
	}
	e := &mixedEnv{n: newNode(service.New(service.Config{Workers: conns})), c: newClient(), tc: newClient(), plan: plan, want: map[string][]byte{}}
	for _, ev := range plan.Priming {
		if _, err := e.c.do(ev.Method, e.n.ts.URL+ev.Path, ev.Body, ""); err != nil {
			e.close()
			return nil, fmt.Errorf("priming: %w", err)
		}
	}
	for _, ev := range plan.Events {
		key := eventKey(ev)
		if (ev.Class != loadgen.ClassCached && ev.Class != loadgen.ClassSeries) || e.want[key] != nil {
			continue
		}
		if e.want[key], err = e.c.do(ev.Method, e.n.ts.URL+ev.Path, ev.Body, ""); err != nil {
			e.close()
			return nil, fmt.Errorf("priming: %w", err)
		}
	}
	return e, nil
}

// mixedResult is one open-loop window: per event, how late it was sent,
// how long after its due time it completed, and its answer.
type mixedResult struct {
	lag, lat samples
	body     [][]byte
	err      []error
	ids      []string     // trace IDs of a traced window
	spans    [][]obs.Span // server spans of traced executions
	cpu      time.Duration
}

// byClass splits a window's latencies by request class.
func (res *mixedResult) byClass(plan *loadgen.Plan) map[string]samples {
	out := map[string]samples{}
	for i, ev := range plan.Events {
		out[ev.Class] = append(out[ev.Class], res.lat[i])
	}
	return out
}

// offer dispatches the plan's events at their due times, whatever the
// server's state, over at most conns connections. Each request is timed
// from when it was due, so waiting for a connection or for a late
// generator counts against it. With traced set, every request except
// sweeps carries a trace ID.
func (e *mixedEnv) offer(traced bool) *mixedResult {
	evs := e.plan.Events
	res := &mixedResult{
		lag: make(samples, len(evs)), lat: make(samples, len(evs)),
		body: make([][]byte, len(evs)), err: make([]error, len(evs)),
		ids: make([]string, len(evs)), spans: make([][]obs.Span, len(evs)),
	}
	var wg sync.WaitGroup
	cpu0, start := cpuTime(), time.Now()
	for i, ev := range evs {
		due := start.Add(time.Duration(ev.AtUs) * time.Microsecond)
		time.Sleep(time.Until(due))
		res.lag[i] = max(time.Since(due), 0)
		if traced && ev.Class != loadgen.ClassSweep {
			res.ids[i] = obs.NewID()
		}
		wg.Add(1)
		go func(i int, ev loadgen.Event) {
			defer wg.Done()
			res.body[i], res.err[i] = e.c.do(ev.Method, e.n.ts.URL+ev.Path, ev.Body, res.ids[i])
			res.lat[i] = time.Since(due)
			// Executions are the requests with server spans worth reading.
			// They are fetched at once, and not behind the load's queued
			// requests, before the service's trace ring recycles them.
			if res.err[i] == nil && res.ids[i] != "" && (ev.Class == loadgen.ClassFresh || ev.Class == loadgen.ClassExtend) {
				res.spans[i], res.err[i] = fetchSpans(e.tc, e.n.ts.URL, res.ids[i])
			}
		}(i, ev)
	}
	wg.Wait()
	res.cpu = cpuTime() - cpu0
	return res
}

// verifyFreshLimit caps how many executed answers a window re-runs through
// Spec.Run, so checking stays a small share of the run.
const verifyFreshLimit = 6

// check counts every event as an operation and fails wrong answers: cache
// reads must match the primed bytes, and an evenly spaced sample of fresh
// runs, the extend windows and the first sweep must match Spec.Run.
func (r *run) check(e *mixedEnv, res *mixedResult) {
	var fresh []int
	extended := map[string]bool{}
	sweepChecked := false
	for i, ev := range e.plan.Events {
		err := res.err[i]
		if err == nil {
			switch ev.Class {
			case loadgen.ClassCached, loadgen.ClassSeries:
				if !bytes.Equal(res.body[i], e.want[eventKey(ev)]) {
					err = fmt.Errorf("%s %s: answer differs from the primed bytes", ev.Method, ev.Path)
				}
			case loadgen.ClassFresh:
				fresh = append(fresh, i)
			case loadgen.ClassExtend:
				if !extended[string(ev.Body)] {
					extended[string(ev.Body)] = true
					err = checkExtend(ev.Body, res.body[i])
				}
			case loadgen.ClassSweep:
				if !sweepChecked {
					sweepChecked = true
					err = checkSweep(ev.Body, res.body[i])
				}
			}
		}
		r.op(err)
	}
	for k := 0; k < verifyFreshLimit && k < len(fresh); k++ {
		i := fresh[k*len(fresh)/min(verifyFreshLimit, len(fresh))]
		if err := checkFresh(e.plan.Events[i].Body, res.body[i]); err != nil {
			r.wrongf("%v", err)
			r.failed++
		}
	}
}

func checkFresh(body, answer []byte) error {
	sp, err := scenario.Parse(body)
	if err != nil {
		return err
	}
	env, err := decodeEnvelope(answer)
	if err != nil {
		return err
	}
	return checkReport(sp, env.Report)
}

// checkExtend re-runs the popular spec loadgen extends with the requested
// window from scratch: a run continued from a warm snapshot must equal it.
func checkExtend(body, answer []byte) error {
	var er service.ExtendRequest
	if err := json.Unmarshal(body, &er); err != nil {
		return err
	}
	sp, err := scenario.BuiltinMix("tiny")
	if err != nil {
		return err
	}
	if h, err := sp.Hash(); err != nil || h != er.Hash {
		return fmt.Errorf("extend: base hash %s is not the tiny mix's (%s, %v)", er.Hash, h, err)
	}
	sp.MeasureSec = er.MeasureSec
	env, err := decodeEnvelope(answer)
	if err != nil {
		return err
	}
	return checkReport(sp, env.Report)
}

// checkSweep re-runs every point of a sweep request and compares it with
// the answer point by point.
func checkSweep(body, answer []byte) error {
	var req service.SweepRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return err
	}
	var got struct {
		Points []struct {
			Report json.RawMessage `json:"report"`
		} `json:"points"`
	}
	if err := json.Unmarshal(answer, &got); err != nil {
		return err
	}
	specs, _, err := service.ExpandSweep(&req)
	if err != nil {
		return err
	}
	if len(specs) != len(got.Points) {
		return fmt.Errorf("sweep: %d points answered, %d requested", len(got.Points), len(specs))
	}
	for i, sp := range specs {
		if err := checkReport(sp, got.Points[i].Report); err != nil {
			return fmt.Errorf("sweep point %d: %w", i, err)
		}
	}
	return nil
}

// runServeMixed offers the default class mix as an open-loop Poisson load
// at mixedHi: cached reads, series reads, fresh sampled runs, extends off
// warm snapshots and small sweeps, contending for two workers.
func runServeMixed(r *run) error {
	var e *mixedEnv
	teardown, err := r.setupMedian("start a memory-only service, plan the load and prime it", func() (func(), error) {
		var err error
		e, err = startMixed(r.seed, mixedHi, r.window)
		if err != nil {
			return nil, err
		}
		return e.close, nil
	})
	if err != nil {
		return err
	}
	defer teardown()
	res := e.offer(false)
	r.check(e, res)
	good := 0
	for i := range res.lat {
		if res.err[i] == nil && ms(res.lat[i]) <= sloMs {
			good++
		}
	}
	byClass := res.byClass(e.plan)
	fresh := byClass[loadgen.ClassFresh]
	// A plan's sweep expands to two fresh points.
	executed := len(fresh) + 2*len(byClass[loadgen.ClassSweep])
	// The operation is an execution: fresh-run latency and CPU per executed
	// point carry the work. Cache reads are measured layer by layer in the
	// traced run, and they move goodput.
	r.recordCommon(fresh.median(), "fresh-run request, due to done: "+fresh.summarize().String(),
		res.cpu/time.Duration(max(executed, 1)), fmt.Sprintf("process CPU over the window per executed fresh or sweep point (%d)", executed))
	// Goodput: requests answered within the limit per second of the
	// offered window; a failed request is a miss.
	goodput := float64(good) / r.window.Seconds()
	r.set("ops_per_s", goodput, "1/s", fmt.Sprintf("goodput: %d of %d requests within %d ms", good, len(res.lat), sloMs))
	tail, err := res.lat.tailAt(0.99)
	if err != nil {
		return err
	}
	note("p50_ms.hi", ms(res.lat.median()), "ms", "all classes, due to done: "+res.lat.summarize().String())
	note("p99_ms.hi", ms(tail), "ms", fmt.Sprintf("n=%d", len(res.lat)))
	note("exec_p50_ms.hi", ms(fresh.median()), "ms", "= op_p50_ms")
	note("goodput_rps.hi", goodput, "1/s", "= ops_per_s")
	for _, class := range loadClasses {
		note("class."+class+".p50_ms.hi", ms(byClass[class].median()), "ms", byClass[class].summarize().String())
	}
	note("loadgen.lag_p50_ms.hi", ms(res.lag.median()), "ms", "send time minus due time: "+res.lag.summarize().String())
	return nil
}
