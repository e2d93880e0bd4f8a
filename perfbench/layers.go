package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"a4sim/internal/harness"
	"a4sim/internal/hierarchy"
	"a4sim/internal/loadgen"
	"a4sim/internal/obs"
	"a4sim/internal/pcm"
	"a4sim/internal/scenario"
	"a4sim/internal/service"
	"a4sim/internal/store"
)

// The traced run (--trace 1) times calls into each layer's public
// functions from outside the program and reads the spans the service
// already exports through GET /trace/<id>. Every traced run measures the
// whole ladder, whatever its workload, and adds the tracing overhead on
// its own workload. The comment before each group names the end-to-end
// metric it should move and on which workload.

var loadClasses = []string{loadgen.ClassCached, loadgen.ClassSeries, loadgen.ClassFresh, loadgen.ClassExtend, loadgen.ClassSweep}

// perLayer lists every metric a traced run prints.
func perLayer() []string {
	names := []string{
		"hierarchy.cpu_read_ns", "hierarchy.dma_write_ns", "hierarchy.dma_then_read_ns",
		"workload.dpdk_ms_per_simsec", "workload.fio_ms_per_simsec", "workload.xmem_ms_per_simsec",
		"harness.measure_ms_per_simsec", "harness.warm_ms_per_simsec", "harness.sampled_ms_per_simsec",
		"core.a4_ms_per_simsec",
		"harness.fork_ms", "harness.snapshot_encode_ms", "harness.snapshot_decode_ms", "harness.snapshot_mb",
		"scenario.start_ms", "scenario.digest_us",
		"store.put_ms", "store.get_ms",
		"service.run_cached_body_us", "service.lookup_us", "service.series_us",
		"http.hit_overhead_us", "runtime.alloc_bytes_per_req", "obs.metrics_scrape_ms",
		"service.queue_wait_ms.p50", "service.queue_wait_ms.tail",
		"service.warm_ms", "service.measure_ms", "service.snapshot_fork_ms",
		"service.store_write_ms", "cluster.backend_call_ms",
		"cluster.hop_us", "cluster.backend_share_max",
		"service.hit_ratio", "service.fork_ratio", "service.dedups", "service.errors",
		"cluster.reroutes", "cluster.soft_retries", "cluster.snapshot_handoffs",
		"loadgen.lag_tail_ms.lo", "loadgen.lag_tail_ms.hi", "loadgen.sent_share",
		"trace.overhead_pct",
	}
	for _, c := range loadClasses {
		names = append(names, "class."+c+".p50_ms.hi")
		if c != loadgen.ClassSweep {
			names = append(names, "class."+c+".tail_ms.hi")
		}
	}
	return names
}

// repeat times n calls of f.
func repeat(n int, f func()) samples {
	out := make(samples, n)
	for i := range out {
		t0 := time.Now()
		f()
		out[i] = time.Since(t0)
	}
	return out
}

// spanSet collects server span durations by span name.
type spanSet map[string]samples

func (s spanSet) add(spans []obs.Span) {
	for _, sp := range spans {
		s[sp.Name] = append(s[sp.Name], time.Duration(sp.DurUs)*time.Microsecond)
	}
}

// fetchSpans reads a finished request's spans back. The service retains a
// trace when its handler returns, which can be just after the client has
// read the answer, so a miss is retried for a few milliseconds.
func fetchSpans(c *client, base, id string) ([]obs.Span, error) {
	var data []byte
	var err error
	for try := 0; try < 50; try++ {
		if data, err = c.do("GET", base+"/trace/"+id, nil, ""); err == nil {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if err != nil {
		return nil, err
	}
	_, spans, err := obs.DecodeTrace(data)
	return spans, err
}

// setMedian records a timing's median, or fails when it has no samples.
func (r *run) setMedian(name string, s samples, unit string, scale time.Duration, how string) error {
	if len(s) == 0 {
		return fmt.Errorf("%s: no samples", name)
	}
	r.set(name, float64(s.median())/float64(scale), unit, fmt.Sprintf("%s: %s", how, s.summarize()))
	return nil
}

// setTail records the highest tail with enough samples beyond it, naming
// the percentile in the printed line.
func (r *run) setTail(name string, s samples, how string) error {
	sm := s.summarize()
	if sm.tailQ == 0 {
		return fmt.Errorf("%s: %d samples leave no tail with %d beyond it", name, len(s), minBeyond)
	}
	r.set(name, ms(sm.tail), "ms", fmt.Sprintf("p%g, %s: %s", sm.tailQ*100, how, sm))
	return nil
}

// traceLayers is the traced run: the layer ladder, then the tracing
// overhead on the run's own workload.
func (r *run) traceLayers() error {
	for _, step := range []func() error{
		r.simLayers, r.snapshotLayers, r.cachedLayers, r.mixedLayers, r.clusterLayers, r.traceOverhead,
	} {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}

// simLayers: the hierarchy and workload kinds should move the figures
// workload's figure time and sweep-cluster's point rate; the harness
// windows the figures; the sampled path serve-mixed's latency and
// goodput; the A4 controller serve-mixed's executions and sweep-cluster.
func (r *run) simLayers() error {
	const lines = 1 << 20
	newHier := func() (*hierarchy.Hierarchy, pcm.WorkloadID) {
		f := pcm.NewFabric(1)
		id := f.Register("perfbench")
		return hierarchy.New(hierarchy.SkylakeConfig(), f), id
	}
	h, id := newHier()
	d := repeat(1, func() {
		for i := 0; i < lines; i++ {
			h.CPURead(i%4, id, uint64(i)%(1<<20), false)
		}
	})
	r.set("hierarchy.cpu_read_ns", float64(d[0])/lines, "ns", fmt.Sprintf("per CPURead over %d sequential lines, 4 cores", lines))
	h, id = newHier()
	d = repeat(1, func() {
		for i := 0; i < lines; i++ {
			h.DMAWrite(0, id, uint64(i)%(1<<18))
		}
	})
	r.set("hierarchy.dma_write_ns", float64(d[0])/lines, "ns", fmt.Sprintf("per DMAWrite over %d lines cycling 16 MiB", lines))
	h, id = newHier()
	d = repeat(1, func() {
		for i := 0; i < lines; i++ {
			a := uint64(i) % (1 << 18)
			h.DMAWrite(0, id, a)
			h.CPURead(i%4, id, a, true)
		}
	})
	r.set("hierarchy.dma_then_read_ns", float64(d[0])/lines, "ns", "per DMAWrite then CPURead of the same line (DCA migration)")

	micro, err := scenario.BuiltinMix("micro")
	if err != nil {
		return err
	}
	// measureSecond starts sp, warms it warmSec simulated seconds and
	// times n measured seconds.
	measureSecond := func(sp *scenario.Spec, warmSec float64, n int) (warm time.Duration, measure samples, err error) {
		s, err := sp.Start()
		if err != nil {
			return 0, nil, err
		}
		warm = repeat(1, func() { s.Warm(warmSec) })[0]
		s.BeginMeasure()
		return warm, repeat(n, func() { s.Measure(1) }), nil
	}
	for _, kind := range []string{"dpdk", "fio", "xmem"} {
		sp := micro.Clone()
		sp.Manager = "default"
		sp.Workloads = nil
		for _, w := range micro.Workloads {
			if w.Kind == kind {
				sp.Workloads = append(sp.Workloads, w)
			}
		}
		_, m, err := measureSecond(sp, 0.25, 1)
		if err != nil {
			return err
		}
		r.set("workload."+kind+"_ms_per_simsec", ms(m[0]), "ms", fmt.Sprintf("Measure(1) of the micro mix's %d %s workloads alone", len(sp.Workloads), kind))
	}
	warm, a4, err := measureSecond(micro.Clone(), 1, 1)
	if err != nil {
		return err
	}
	r.set("harness.warm_ms_per_simsec", ms(warm), "ms", "Warm(1) of the micro mix under a4-d, detailed")
	if err := r.setMedian("harness.measure_ms_per_simsec", a4, "ms", time.Millisecond, "Measure(1) of the micro mix under a4-d, detailed"); err != nil {
		return err
	}
	def := micro.Clone()
	def.Manager = "default"
	_, base, err := measureSecond(def, 0.25, 1)
	if err != nil {
		return err
	}
	r.set("core.a4_ms_per_simsec", ms(a4.median())-ms(base.median()), "ms", fmt.Sprintf("micro Measure(1) under a4-d minus default (%.4g ms)", ms(base.median())))
	sampled := micro.Clone()
	sampled.Sampling = &scenario.SamplingSpec{}
	_, sm, err := measureSecond(sampled, 0.25, 2)
	if err != nil {
		return err
	}
	return r.setMedian("harness.sampled_ms_per_simsec", sm, "ms", time.Millisecond, "Measure(1) of the micro mix under a4-d, default sampling")
}

// snapshotLayers: fork, snapshot encode and decode, scenario start and
// the store should move sweep-cluster's point rate (fork also the figures
// workload); spec digest serve-mixed's fresh runs.
func (r *run) snapshotLayers() error {
	tiny, err := scenario.BuiltinMix("tiny")
	if err != nil {
		return err
	}
	s, err := tiny.Start()
	if err != nil {
		return err
	}
	s.Warm(tiny.WarmupSec)
	s.BeginMeasure()
	s.Measure(tiny.MeasureSec)
	if err := r.setMedian("harness.fork_ms", repeat(3, func() { s.Fork() }), "ms", time.Millisecond, "Fork of the tiny mix after its window"); err != nil {
		return err
	}
	snap := s.Snapshot()
	var data []byte
	var encErr error
	enc := repeat(3, func() { data, encErr = snap.Encode() })
	if encErr != nil {
		return encErr
	}
	if err := r.setMedian("harness.snapshot_encode_ms", enc, "ms", time.Millisecond, "Snapshot.Encode"); err != nil {
		return err
	}
	r.set("harness.snapshot_mb", float64(len(data))/1e6, "MB", "encoded tiny-mix snapshot")
	var decErr error
	dec := repeat(3, func() {
		fresh, err := tiny.Start()
		if err == nil {
			_, err = harness.DecodeSnapshot(data, fresh)
		}
		if err != nil {
			decErr = err
		}
	})
	if decErr != nil {
		return decErr
	}
	if err := r.setMedian("harness.snapshot_decode_ms", dec, "ms", time.Millisecond, "Spec.Start + DecodeSnapshot"); err != nil {
		return err
	}

	family := scenario.NewFamily(tiny, seedStream(r.seed, 3))
	var startErr error
	i := uint64(0)
	starts := repeat(5, func() {
		i++
		if _, err := family.Variant(i).Start(); err != nil {
			startErr = err
		}
	})
	if startErr != nil {
		return startErr
	}
	if err := r.setMedian("scenario.start_ms", starts, "ms", time.Millisecond, "Spec.Start of a fresh tiny spec"); err != nil {
		return err
	}
	bodies := make([][]byte, 200)
	for k := range bodies {
		if bodies[k], err = json.Marshal(family.Variant(uint64(100 + k))); err != nil {
			return err
		}
	}
	k := 0
	var digestErr error
	digests := repeat(len(bodies), func() {
		sp, err := scenario.Parse(bodies[k])
		if err == nil {
			_, _, _, err = sp.Digest()
		}
		if err != nil {
			digestErr = err
		}
		k++
	})
	if digestErr != nil {
		return digestErr
	}
	if err := r.setMedian("scenario.digest_us", digests, "us", time.Microsecond, "Parse + Digest of a fresh body"); err != nil {
		return err
	}

	st, err := store.Open(r.tmp + "/layer-store")
	if err != nil {
		return err
	}
	key, err := tiny.PrefixHash()
	if err != nil {
		return err
	}
	var putErr error
	puts := repeat(3, func() {
		if err := st.Replace("snap", key, data); err != nil {
			putErr = err
		}
	})
	if putErr != nil {
		return putErr
	}
	if err := r.setMedian("store.put_ms", puts, "ms", time.Millisecond, fmt.Sprintf("durable Replace of %.1f MB", float64(len(data))/1e6)); err != nil {
		return err
	}
	var got []byte
	gets := repeat(3, func() { got, _ = st.Get("snap", key) })
	if !bytes.Equal(got, data) {
		r.wrongf("store: Get returned different bytes than Replace wrote")
	}
	return r.setMedian("store.get_ms", gets, "ms", time.Millisecond, "verified Get of the same object")
}

// cachedLayers: the service's hit path, the HTTP layer, allocation and
// /metrics scrapes carry the cached-hit and series-read classes, about four
// in five of serve-mixed's requests; they should move its goodput and the
// p50 of those classes.
func (r *run) cachedLayers() error {
	e, err := startCached(r.seed)
	if err != nil {
		return err
	}
	defer e.close()
	svc := e.n.svc
	const calls = 20000
	var posts, results []hitRequest
	var series hitRequest
	for _, q := range e.reqs {
		switch {
		case q.method == "POST":
			posts = append(posts, q)
		case strings.HasPrefix(q.path, "/result/"):
			results = append(results, q)
		default:
			series = q
		}
	}
	i := 0
	body := repeat(calls, func() {
		if _, ok := svc.RunCachedBody(posts[i%len(posts)].body, nil); !ok {
			r.wrongf("RunCachedBody missed a primed body")
		}
		i++
	})
	if err := r.setMedian("service.run_cached_body_us", body, "us", time.Microsecond, "in-process RunCachedBody"); err != nil {
		return err
	}
	lookup := repeat(calls, func() {
		q := results[i%len(results)]
		if got, ok := svc.Lookup(q.path[len("/result/"):]); !ok || !bytes.Equal(got, q.want) {
			r.wrongf("Lookup answer differs from the primed bytes")
		}
		i++
	})
	if err := r.setMedian("service.lookup_us", lookup, "us", time.Microsecond, "in-process Lookup"); err != nil {
		return err
	}
	seriesCalls := repeat(calls, func() {
		if got, ok := svc.Series(series.path[len("/series/"):]); !ok || !bytes.Equal(got, series.want) {
			r.wrongf("Series answer differs from the primed bytes")
		}
	})
	if err := r.setMedian("service.series_us", seriesCalls, "us", time.Microsecond, "in-process Series"); err != nil {
		return err
	}
	overHTTP := repeat(2000, func() {
		q := posts[i%len(posts)]
		got, err := e.c.do("POST", e.n.ts.URL+"/run", q.body, "")
		if err == nil && !bytes.Equal(got, q.want) {
			err = fmt.Errorf("POST /run answer differs from the primed bytes")
		}
		r.op(err)
		i++
	})
	r.set("http.hit_overhead_us", us(overHTTP.median())-us(body.median()), "us",
		fmt.Sprintf("sequential POST /run hit over HTTP (%s) minus RunCachedBody", overHTTP.summarize()))

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	hits := r.hitLoop(e, 2*time.Second, 16)
	runtime.ReadMemStats(&m1)
	r.set("runtime.alloc_bytes_per_req", float64(m1.TotalAlloc-m0.TotalAlloc)/float64(len(hits)), "B",
		fmt.Sprintf("client and server allocation over %d traced closed-loop hits", len(hits)))
	scrapes := repeat(20, func() {
		_, err := e.c.do("GET", e.n.ts.URL+"/metrics", nil, "")
		r.op(err)
	})
	return r.setMedian("obs.metrics_scrape_ms", scrapes, "ms", time.Millisecond, "GET /metrics after the load")
}

// mixedLayers offers serve-mixed's plan traced, at mixedLo for service
// times without queueing and at mixedHi for queueing. Queue wait and the
// class tails should move serve-mixed's goodput; warm and measure spans
// its fresh-run latency; snapshot forks its extends; generator lag says
// whether the window was offered as planned.
func (r *run) mixedLayers() error {
	spans := spanSet{}
	lo, err := r.tracedMixed(mixedLo, 4*time.Second, 0, spans)
	if err != nil {
		return err
	}
	loFresh := lo.byClass(lo.plan)[loadgen.ClassFresh]
	note("p50_ms.lo", ms(lo.lat.median()), "ms", "all classes, due to done: "+lo.lat.summarize().String())
	note("exec_p50_ms.lo", ms(loFresh.median()), "ms", "fresh-run requests: "+loFresh.summarize().String())
	if err := r.setTail("loadgen.lag_tail_ms.lo", lo.lag, fmt.Sprintf("send time minus due time at %d rps", mixedLo)); err != nil {
		return err
	}
	// The hi window lasts until the plan holds enough sweeps for the
	// sweep class's median to rest on minBeyond samples.
	hi, err := r.tracedMixed(mixedHi, 6*time.Second, minBeyond, spans)
	if err != nil {
		return err
	}
	if err := r.setTail("loadgen.lag_tail_ms.hi", hi.lag, fmt.Sprintf("send time minus due time at %d rps", mixedHi)); err != nil {
		return err
	}
	onTime := 0
	for _, l := range append(lo.lag, hi.lag...) {
		if l <= onTimeLag {
			onTime++
		}
	}
	r.set("loadgen.sent_share", float64(onTime)/float64(len(lo.lag)+len(hi.lag)), "fraction", fmt.Sprintf("planned events sent within %v of their due time", onTimeLag))
	byClass := hi.byClass(hi.plan)
	for _, c := range loadClasses {
		if err := r.setMedian("class."+c+".p50_ms.hi", byClass[c], "ms", time.Millisecond, "due-to-done latency"); err != nil {
			return err
		}
		// At 2% of the mix, sweeps are too few in a window for a tail.
		if c == loadgen.ClassSweep {
			continue
		}
		if err := r.setTail("class."+c+".tail_ms.hi", byClass[c], "due-to-done latency"); err != nil {
			return err
		}
	}
	if err := r.setMedian("service.queue_wait_ms.p50", spans["queue_wait"], "ms", time.Millisecond, "queue_wait spans of traced executions"); err != nil {
		return err
	}
	if err := r.setTail("service.queue_wait_ms.tail", spans["queue_wait"], "queue_wait spans of traced executions"); err != nil {
		return err
	}
	for _, name := range []string{"warm", "measure"} {
		if err := r.setMedian("service."+name+"_ms", spans[name], "ms", time.Millisecond, name+" spans of traced executions"); err != nil {
			return err
		}
	}
	st := hi.stats
	r.set("service.hit_ratio", float64(st.Hits)/float64(max(st.Hits+st.Misses, 1)), "fraction", fmt.Sprintf("hits %d, misses %d at %d rps", st.Hits, st.Misses, mixedHi))
	r.set("service.dedups", float64(st.Dedups), "count", "executions coalesced onto an in-flight one")
	r.set("service.errors", float64(st.Errors), "count", "failed submissions")
	return nil
}

// onTimeLag is how late the generator may send an event and still count
// it as offered on time.
const onTimeLag = 10 * time.Millisecond

// tracedWindow is one traced serve-mixed window and the server's counters
// after it.
type tracedWindow struct {
	*mixedResult
	plan  *loadgen.Plan
	stats service.Stats
}

// tracedMixed plans a window of at least d at rate, lengthened a second at
// a time until it holds minSweeps sweeps, then offers it traced.
func (r *run) tracedMixed(rate float64, d time.Duration, minSweeps int, spans spanSet) (*tracedWindow, error) {
	seed := seedStream(r.seed, uint64(rate))
	for ; ; d += time.Second {
		plan, err := loadgen.BuildPlan(loadgen.Config{Rate: rate, Duration: d, Arrival: loadgen.ArrivalPoisson, Seed: seed})
		if err != nil {
			return nil, err
		}
		n := 0
		for _, ev := range plan.Events {
			if ev.Class == loadgen.ClassSweep {
				n++
			}
		}
		if n >= minSweeps {
			break
		}
	}
	e, err := startMixed(seed, rate, d)
	if err != nil {
		return nil, err
	}
	defer e.close()
	res := e.offer(true)
	r.check(e, res)
	for _, s := range res.spans {
		spans.add(s)
	}
	return &tracedWindow{res, e.plan, e.n.svc.Stats()}, nil
}

// clusterLayers runs sweeps through the coordinator and reads the
// backends' spans. Store writes, backend calls and the coordinator hop
// should move sweep-cluster's sweep latency; the busiest backend's share
// and the fork ratio its point rate.
func (r *run) clusterLayers() error {
	e, err := startCluster(r.tmp)
	if err != nil {
		return err
	}
	defer e.close()
	sweeps, err := r.sweepLoop(e, 0, 2*time.Second)
	if err != nil {
		return err
	}
	if err := r.verifySweeps(sweeps.reqs[:1], sweeps.answers[:1]); err != nil {
		return err
	}
	spans := spanSet{}
	for _, b := range e.backends {
		data, err := e.c.do("GET", b.ts.URL+"/traces?n=128", nil, "")
		if err != nil {
			return err
		}
		var got struct {
			Traces []json.RawMessage `json:"traces"`
		}
		if err := json.Unmarshal(data, &got); err != nil {
			return err
		}
		for _, t := range got.Traces {
			_, s, err := obs.DecodeTrace(t)
			if err != nil {
				return err
			}
			spans.add(s)
		}
	}
	if err := r.setMedian("service.store_write_ms", spans["store_write"], "ms", time.Millisecond, "store_write spans on the backends"); err != nil {
		return err
	}
	// Each seed's second window forks the first one's snapshot. Serve-mixed
	// forks too seldom to measure: its fresh runs evict the snapshot its
	// extends would fork.
	if err := r.setMedian("service.snapshot_fork_ms", spans["snapshot_fork"], "ms", time.Millisecond, "snapshot_fork spans on the backends"); err != nil {
		return err
	}

	// Traced runs through the coordinator carry its backend_call spans.
	tiny, err := scenario.BuiltinMix("tiny")
	if err != nil {
		return err
	}
	family := scenario.NewFamily(tiny, seedStream(r.seed, 4))
	var hash string
	for k := uint64(0); k < 4; k++ {
		body, err := json.Marshal(family.Variant(k))
		if err != nil {
			return err
		}
		id := obs.NewID()
		data, err := e.c.do("POST", e.front.URL+"/run", body, id)
		r.op(err)
		if err != nil {
			continue
		}
		env, err := decodeEnvelope(data)
		if err != nil {
			return err
		}
		hash = env.Hash
		s, err := fetchSpans(e.c, e.front.URL, id)
		if err != nil {
			return err
		}
		spans.add(s)
	}
	if err := r.setMedian("cluster.backend_call_ms", spans["backend_call"], "ms", time.Millisecond, "backend_call spans of traced runs through the coordinator"); err != nil {
		return err
	}
	viaCoord := repeat(200, func() {
		_, err := e.c.do("GET", e.front.URL+"/result/"+hash, nil, "")
		r.op(err)
	})
	var direct samples
	for _, b := range e.backends {
		if _, err := e.c.do("GET", b.ts.URL+"/result/"+hash, nil, ""); err == nil {
			direct = repeat(200, func() {
				_, err := e.c.do("GET", b.ts.URL+"/result/"+hash, nil, "")
				r.op(err)
			})
		}
	}
	if len(direct) == 0 {
		return fmt.Errorf("cluster: no backend holds %s", hash)
	}
	r.set("cluster.hop_us", us(viaCoord.median())-us(direct.median()), "us",
		fmt.Sprintf("GET /result via the coordinator (%s) minus direct (%s)", viaCoord.summarize(), direct.summarize()))

	st := e.coord.Stats()
	var execs []uint64
	for _, b := range st.Backends {
		execs = append(execs, b.Stats.Executions)
	}
	sort.Slice(execs, func(i, j int) bool { return execs[i] > execs[j] })
	r.set("cluster.backend_share_max", float64(execs[0])/float64(max(st.Executions, 1)), "fraction", fmt.Sprintf("executions per backend %v", execs))
	r.set("service.fork_ratio", float64(st.SnapshotForks)/float64(max(st.Executions, 1)), "fraction", fmt.Sprintf("%d snapshot forks of %d executions", st.SnapshotForks, st.Executions))
	r.set("cluster.reroutes", float64(st.Reroutes), "count", "points re-sent after losing a backend")
	r.set("cluster.soft_retries", float64(st.SoftRetries), "count", "same-backend retries")
	r.set("cluster.snapshot_handoffs", float64(st.SnapshotHandoffs), "count", "warm snapshots shipped between backends")
	return nil
}

// traceOverhead compares the CPU cost per operation of short slices of
// the run's own workload, untraced and traced, in the order untraced,
// traced, traced, untraced so that a drift in machine speed cancels.
func (r *run) traceOverhead() error {
	var cost func(traced bool) (float64, error)
	switch r.workload {
	case "figures":
		// Tracing the figures path records only the benchmark's own span
		// around each figure.
		cost = func(traced bool) (float64, error) {
			var tr *obs.Trace
			if traced {
				tr = obs.NewTrace(obs.NewID())
			}
			cpu0 := cpuTime()
			sp := tr.Begin("figure 8b")
			r.op(regenerate("8b"))
			sp.End()
			return ms(cpuTime() - cpu0), nil
		}
	case "serve-mixed":
		cost = func(traced bool) (float64, error) {
			e, err := startMixed(seedStream(r.seed, 5), mixedHi, 2*time.Second)
			if err != nil {
				return 0, err
			}
			defer e.close()
			res := e.offer(traced)
			r.check(e, res)
			return ms(res.cpu) / float64(len(res.lat)), nil
		}
	case "sweep-cluster":
		cost = func(traced bool) (float64, error) {
			e, err := startCluster(r.tmp)
			if err != nil {
				return 0, err
			}
			defer e.close()
			cpu0 := cpuTime()
			sweeps, err := r.sweepLoop(e, 100, time.Second)
			if err != nil {
				return 0, err
			}
			if traced {
				for _, b := range e.backends {
					_, err := e.c.do("GET", b.ts.URL+"/traces?n=128", nil, "")
					r.op(err)
				}
			}
			return ms(cpuTime()-cpu0) / float64(len(sweeps.lat)), nil
		}
	}
	var untraced, traced float64
	for _, t := range []bool{false, true, true, false} {
		c, err := cost(t)
		if err != nil {
			return err
		}
		if t {
			traced += c / 2
		} else {
			untraced += c / 2
		}
	}
	r.set("trace.overhead_pct", 100*(traced-untraced)/untraced, "%", fmt.Sprintf("CPU per %s operation, traced %.4g ms vs untraced %.4g ms", r.workload, traced, untraced))
	return nil
}
