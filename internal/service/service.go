// Package service turns scenario execution into a served resource: each
// execution runs on its submitter's goroutine once it holds one of a fixed
// number of slots, fronted by singleflight deduplication and an LRU result
// cache keyed by the spec's content hash. Because the simulation is
// deterministic, a hash fully identifies its report, so serving a cached or
// deduplicated result is indistinguishable from re-running the scenario —
// that invariant is what makes the cache sound, and internal/service's
// tests pin it.
//
// Concurrency model (DESIGN.md §17): the serving path holds no global
// lock. The in-flight flight map has its own lock, the result and snapshot
// caches are each an lru.Map under one mutex, and the execution slots are a
// channel of tokens; the counters are atomics snapshotted at /stats scrape
// time; the queue-wait histogram has one mutex of its own. The
// lock-ordering rule is flat: fmu may be held while taking the result
// cache's lock, and nothing else nests — the cache locks and the
// store/trace/histogram locks are all leaves.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"a4sim/internal/harness"
	"a4sim/internal/lru"
	"a4sim/internal/obs"
	"a4sim/internal/scenario"
	"a4sim/internal/sim"
	"a4sim/internal/stats"
	"a4sim/internal/store"
)

// Config sizes the service.
type Config struct {
	// Workers is the number of executions that run at once; 0 means
	// GOMAXPROCS.
	Workers int
	// CacheEntries caps the result cache; 0 means 256.
	CacheEntries int
	// Store, when non-nil, is the durable content-addressed object store
	// under the in-memory caches (internal/store). Each execution's run
	// record and warm snapshot spill to it; cache misses fall back to it; a
	// restarted service rehydrates from it. Nil means memory-only serving.
	Store *store.Store
}

// Stats are the service's counters, served by /stats and /metrics. Each
// field is the one declaration of its value: the json tag names it in
// /stats, the prom tag its Prometheus family and type (obs.Stats), and
// field order is exposition order. Adding a value takes a tagged field here
// plus the code that sets it.
type Stats struct {
	Hits       uint64 `json:"hits" prom:"a4_hits_total,counter"`             // served from the result cache
	Misses     uint64 `json:"misses" prom:"a4_misses_total,counter"`         // required an execution
	Dedups     uint64 `json:"dedups" prom:"a4_dedups_total,counter"`         // coalesced onto an in-flight run
	Executions uint64 `json:"executions" prom:"a4_executions_total,counter"` // scenario runs actually performed
	Errors     uint64 `json:"errors" prom:"a4_errors_total,counter"`         // failed submissions
	Entries    int    `json:"entries" prom:"a4_cache_entries,gauge"`         // current cache entries
	Workers    int    `json:"workers" prom:"a4_workers,gauge"`               // execution slots
	Queued     int    `json:"queued" prom:"a4_queued,gauge"`                 // accepted executions waiting for a slot

	// SnapshotForks counts executions that continued from a cached warm
	// snapshot instead of re-simulating their prefix; SnapshotEntries is
	// the snapshot cache's current size.
	SnapshotForks   uint64 `json:"snapshot_forks" prom:"a4_snapshot_forks_total,counter"`
	SnapshotEntries int    `json:"snapshot_entries" prom:"a4_snapshot_entries,gauge"`

	// StoreHits counts lookups served from the durable store after an
	// in-memory miss; StoreObjects and StoreQuarantined mirror the store's
	// index size and lifetime quarantine count. All zero without a store.
	StoreHits        uint64 `json:"store_hits" prom:"a4_store_hits_total,counter"`
	StoreObjects     int    `json:"store_objects" prom:"a4_store_objects,gauge"`
	StoreQuarantined int64  `json:"store_quarantined" prom:"a4_store_quarantined_total,counter"`
}

// counters are the live form of Stats: independent atomics, so a /run can
// bump hits while a /stats scrape sums and an execution bumps misses, with
// no shared lock. Snapshots are per-field (not cross-field consistent),
// which monotonic counters tolerate by construction.
type counters struct {
	hits          atomic.Uint64
	misses        atomic.Uint64
	dedups        atomic.Uint64
	executions    atomic.Uint64
	errors        atomic.Uint64
	snapshotForks atomic.Uint64
	storeHits     atomic.Uint64
	queued        atomic.Int64
}

// Result is one served submission.
type Result struct {
	// Hash is the spec's content address.
	Hash string
	// Cached reports whether the bytes came from the result cache (true) or
	// a fresh execution (false); deduplicated waiters see Cached=false, as
	// they paid for (a share of) the run.
	Cached bool
	// Report is the canonical report encoding; byte-identical for equal
	// hashes.
	Report []byte
	// Envelope, when non-nil, is the complete pre-encoded HTTP response
	// body ({"cached":...,"hash":...,"report":...} plus trailing newline)
	// for this result. The hot paths fill it — cache hits carry the
	// encode-once bytes stored beside the report, executions encode once
	// for submitter and all deduplicated waiters, a coordinator forwards
	// the backend's body verbatim — so the HTTP layer writes it out with
	// zero per-request marshalling. Nil falls back to encoding from the
	// other fields; the bytes are identical either way.
	Envelope []byte
}

// flight is one in-progress execution that concurrent identical
// submissions wait on. report/body/err are written only by the executing
// submitter before done is closed; waiters read them only after
// <-done, so the channel close is the only synchronization needed.
type flight struct {
	done   chan struct{}
	report []byte
	body   []byte // pre-encoded cached:false response envelope
	err    error
}

// Service serves scenario runs.
type Service struct {
	// slots holds one token per running execution; its capacity is the
	// resolved Config.Workers.
	slots chan struct{}
	// maxQueue caps accepted executions waiting for a slot (MaxSweepPoints,
	// one full-size sweep); submissions beyond it fail fast with ErrBusy
	// instead of growing memory without bound.
	maxQueue int
	// wg counts accepted executions; Close waits for them.
	wg sync.WaitGroup

	// closed is checked lock-free at submission entry; it is only ever set
	// under fmu, so the set serializes with admission (see Close).
	closed atomic.Bool

	// fmu guards the in-flight map and admission. The register path
	// re-checks the result cache under fmu (executions publish to the cache
	// before clearing their flight), so a submission can never miss both.
	fmu      sync.Mutex
	inflight map[string]*flight

	// cache is the result LRU, keyed by content hash; entries are immutable
	// once published (publish replaces an entry wholesale).
	cache *lru.Map[*lruEntry]

	// memo maps exact request body bytes to the content hash they parse
	// to — Parse and Hash are deterministic, so the mapping is immutable
	// and repeat bodies (the dominant traffic class) skip spec decoding
	// and hashing entirely.
	memo *bodyMemo

	ctr counters

	// snaps caches warm simulation state for prefix-shared continuation,
	// keyed by prefix hash. Entries are immutable; forking happens outside
	// its lock, so heavy snapshot work never serializes the submission path.
	snaps *lru.Map[*snapEntry]

	// disk is the durable object store under the in-memory caches; nil when
	// the service runs memory-only.
	disk *store.Store

	// queueWait records each execution's admission-to-slot wait (µs); at
	// most Workers executions start at once, so one mutex serves it.
	queueWait *stats.SyncHistogram
	// streams holds the row log of each admitted series run, read by
	// GET /series/<hash>/stream subscribers, under its own (leaf) locks.
	streams *obs.SeriesHub
}

// New starts a service with cfg's execution slots and cache.
func New(cfg Config) *Service {
	w := cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	entries := cfg.CacheEntries
	if entries <= 0 {
		entries = 256
	}
	return &Service{
		slots:     make(chan struct{}, w),
		maxQueue:  MaxSweepPoints,
		inflight:  make(map[string]*flight),
		cache:     lru.New[*lruEntry](entries),
		memo:      newBodyMemo(),
		snaps:     lru.New[*snapEntry](snapshotEntries),
		disk:      cfg.Store,
		queueWait: new(stats.SyncHistogram),
		streams:   obs.NewSeriesHub(),
	}
}

// Close stops accepting submissions and waits for every execution already
// accepted, running or waiting for a slot, so no waiter is stranded. The
// closed flag is set under fmu: an admission and the close serialize, so a
// submission is either rejected with ErrClosed or counted in wg first.
func (s *Service) Close() {
	s.fmu.Lock()
	s.closed.Store(true)
	s.fmu.Unlock()
	s.wg.Wait()
}

// ErrClosed is returned for submissions to a closed service.
var ErrClosed = errors.New("service: closed")

// ErrBusy is returned when maxQueue accepted executions already wait for a
// slot; the submission was not accepted and may be retried later.
var ErrBusy = errors.New("service: job queue full")

// RunError wraps a failure that happened while executing a scenario, as
// opposed to rejecting its spec — callers (the HTTP layer) use errors.As
// to distinguish a 5xx from a 4xx.
type RunError struct {
	Hash string
	Err  error
}

func (e *RunError) Error() string {
	return fmt.Sprintf("service: run %.12s: %v", e.Hash, e.Err)
}

func (e *RunError) Unwrap() error { return e.Err }

// Submit runs one spec, serving from the cache or an in-flight duplicate
// when possible. It blocks until the report is available. The serving
// path's seams (queue wait, warm, measure, store reads and writes,
// snapshot forks) are timed into the trace ctx carries; an untraced ctx
// costs one nil check per seam.
func (s *Service) Submit(ctx context.Context, sp *scenario.Spec) (Result, error) {
	return s.submit(sp, obs.TraceFrom(ctx))
}

// TraceJSON serves a retained trace's canonical body: a local run's spans
// are all in t.
func (s *Service) TraceJSON(t *obs.Trace) []byte { return t.JSON() }

// RunCachedBody serves a /run whose exact body bytes have been seen before
// and whose result is still resident — the fleet-of-clients steady state —
// without parsing, validating, or hashing the spec. Sound because Parse,
// CheckBudget, and Hash are pure functions of the bytes: a body that
// previously parsed to hash H parses to H forever. Returns false (and
// touches nothing) whenever the full path must run.
func (s *Service) RunCachedBody(body []byte, tr *obs.Trace) (Result, bool) {
	if s.closed.Load() {
		return Result{}, false // let submit report ErrClosed
	}
	hash, ok := s.memo.get(body)
	if !ok {
		return Result{}, false
	}
	e, ok := s.cache.Get(hash, true)
	if !ok {
		return Result{}, false
	}
	s.ctr.hits.Add(1)
	tr.Mark("cache_hit", "")
	return Result{Hash: hash, Cached: true, Report: e.Report, Envelope: e.hitBody}, true
}

// RememberBody records that body parses to hash, feeding RunCachedBody.
func (s *Service) RememberBody(body []byte, hash string) {
	s.memo.put(body, hash)
}

func (s *Service) submit(sp *scenario.Spec, tr *obs.Trace) (Result, error) {
	hash, err := sp.Hash()
	if err == nil {
		// Serving policy, on top of spec validity: untrusted submissions
		// must fit the execution budget.
		err = sp.CheckBudget()
	}
	if err != nil {
		s.ctr.errors.Add(1)
		return Result{}, err
	}

	if s.closed.Load() {
		return Result{}, ErrClosed
	}
	if e, ok := s.cache.Get(hash, true); ok {
		s.ctr.hits.Add(1)
		tr.Mark("cache_hit", "")
		return Result{Hash: hash, Cached: true, Report: e.Report, Envelope: e.hitBody}, nil
	}
	s.fmu.Lock()
	if f, ok := s.inflight[hash]; ok {
		// Coalesce onto the running execution rather than running a
		// duplicate.
		s.ctr.dedups.Add(1)
		s.fmu.Unlock()
		dw := tr.Begin("dedup_wait")
		<-f.done
		dw.End()
		if f.err != nil {
			return Result{}, f.err
		}
		return Result{Hash: hash, Cached: false, Report: f.report, Envelope: f.body}, nil
	}
	// The executing submitter publishes its result to the cache before
	// clearing its flight, so a submission that missed the cache and then
	// found no flight re-checks here — under fmu — and cannot miss both. The
	// re-check reaches the store too: a restarted (or memory-evicted)
	// service serves durably stored runs instead of re-simulating them.
	// Held under fmu — rare (memory miss), and the alternative is a
	// multi-second execution.
	if e, ok := s.record(hash, true, tr); ok {
		s.ctr.hits.Add(1)
		s.fmu.Unlock()
		tr.Mark("cache_hit", "")
		return Result{Hash: hash, Cached: true, Report: e.Report, Envelope: e.hitBody}, nil
	}
	// Admission: an accepted execution is counted in wg before Close can
	// wait, and a rejected one never registers a flight.
	if s.closed.Load() {
		s.fmu.Unlock()
		return Result{}, ErrClosed
	}
	if s.ctr.queued.Load() >= int64(s.maxQueue) {
		s.fmu.Unlock()
		s.ctr.errors.Add(1)
		return Result{}, ErrBusy
	}
	f := &flight{done: make(chan struct{})}
	s.inflight[hash] = f
	s.ctr.misses.Add(1)
	s.ctr.queued.Add(1)
	s.wg.Add(1)
	s.fmu.Unlock()
	defer s.wg.Done()
	// A run that records a series streams it: its log opens at admission,
	// so a subscriber attaching while the run waits for a slot, or
	// mid-run, reads from row 0.
	var log *obs.SeriesLog
	if sp.Series != nil {
		log = s.streams.Open(hash)
	}

	qw := tr.Begin("queue_wait")
	admitted := time.Now()
	s.slots <- struct{}{}
	qw.End()
	s.queueWait.Observe(time.Since(admitted).Microseconds())
	s.ctr.queued.Add(-1)
	s.ctr.executions.Add(1)
	rep, events, err := s.runSpec(sp, tr, log)
	rec := runRecord{Events: events}
	if err == nil {
		rec.Report, err = rep.Encode()
	}
	if err == nil && rep.Series != nil {
		// The window's series is kept beside the report, so GET /series/<hash>
		// serves it without the client re-parsing the (much larger) report.
		rec.Series, err = rep.Series.Encode()
	}
	if err == nil {
		// The canonical spec is kept so /extend can re-derive longer windows
		// of a run from its content address alone.
		rec.Spec, err = sp.Canonical()
	}
	if err == nil && s.disk != nil {
		sw := tr.Begin("store_write")
		s.storeRecord(hash, rec)
		sw.End()
	}
	if err != nil {
		s.ctr.errors.Add(1)
		f.err = &RunError{Hash: hash, Err: err}
	} else {
		f.report = rec.Report
		f.body = encodeResultEnvelope(hash, false, rec.Report)
		// Publish before clearing the flight (below): between the two, a new
		// submission either attaches to this flight or hits the cache, never
		// both-miss.
		s.publish(hash, rec)
	}
	s.fmu.Lock()
	delete(s.inflight, hash)
	s.fmu.Unlock()
	// The stream ends only after the cache put: a subscriber that sees the
	// terminal event can immediately GET /series and find the stored bytes
	// it should compare against.
	if log != nil {
		if err == nil && rec.Series != nil {
			s.streams.Close(hash, log, rec.Series, "")
		} else {
			s.streams.Close(hash, log, nil, "execution failed")
		}
	}
	<-s.slots
	close(f.done)
	if f.err != nil {
		return Result{}, f.err
	}
	return Result{Hash: hash, Cached: false, Report: f.report, Envelope: f.body}, nil
}

// runSpec executes a spec, converting a panic anywhere in the simulator
// into an error so one bad submission cannot take down the daemon.
func (s *Service) runSpec(sp *scenario.Spec, tr *obs.Trace, log *obs.SeriesLog) (rep *scenario.Report, events []string, err error) {
	defer func() {
		if r := recover(); r != nil {
			rep, events, err = nil, nil, fmt.Errorf("panic during run: %v", r)
		}
	}()
	return s.execute(sp, tr, log)
}

// snapshotEntries caps the warm-state snapshot cache: encoded snapshots of
// executed scenarios at their last measured epoch, keyed by the spec's
// prefix hash. Each entry holds the same bytes the store and /snapshot
// export carry (about 3 MB for the tiny mix at the Skylake geometry), so
// the cap is deliberately small.
const snapshotEntries = 8

// execute runs one spec, continuing from a cached warm snapshot when one
// shares the spec's prefix (identical scenario up to some point of the
// measurement window). Because forked execution is byte-identical to fresh
// execution (the harness snapshot/fork contract, pinned by this package's
// tests), the serving path is free to choose either and the reports cannot
// differ. Every run deposits its end-of-window state back into the
// snapshot cache so later, longer windows extend instead of restarting.
//
// How far a snapshot's window has run is read off its state
// (Snapshot.WindowEpochs), and the window is counted in epochs, rounded as
// Measure rounds, so any window continues from any shorter one.
//
// It also returns the controller's event log (empty, not nil, without a
// controller). The log is controller state, which the snapshot carries, so
// a forked run returns the whole run's log, as a fresh one does. Spans
// time warm, measure, fork and store reads, and when log is non-nil every
// appended series row is published to it for live stream subscribers.
func (s *Service) execute(sp *scenario.Spec, tr *obs.Trace, log *obs.SeriesLog) (*scenario.Report, []string, error) {
	run := sp.Clone()
	if err := run.Normalize(); err != nil {
		return nil, nil, err
	}
	spec, hash, prefix, err := run.Digest()
	if err != nil {
		return nil, nil, err
	}
	window := sim.Epochs(run.MeasureSec)
	var snap *harness.Snapshot
	se, ok := s.snaps.Get(prefix, true)
	if ok {
		snap = se.snap
	} else if s.disk != nil {
		// Memory miss: a restarted service rehydrates the warm state a
		// previous instance spilled to disk. Any failure — missing object,
		// quarantined bytes, version or structure mismatch — falls through
		// to a plain fresh run.
		sr := tr.Begin("store_read")
		if snap, ok = s.diskSnapshot(prefix); ok {
			s.ctr.storeHits.Add(1)
		}
		sr.End()
	}
	var sc *harness.Scenario
	done := 0 // epochs of the window sc has already run
	if ok && snap.WindowEpochs() <= window {
		s.ctr.snapshotForks.Add(1)
		fk := tr.Begin("snapshot_fork")
		sc = snap.Fork()
		fk.End()
		done = snap.WindowEpochs()
	}
	fresh := sc == nil
	if fresh {
		if sc, err = run.Start(); err != nil {
			return nil, nil, err
		}
	}
	if log != nil {
		log.Publish(sc.Monitor.Series()) // any forked prefix rows
		sc.Monitor.SetRowHook(log.Publish)
	}
	if fresh {
		w := tr.Begin("warm")
		sc.Warm(run.WarmupSec)
		w.End()
		sc.BeginMeasure()
	}
	m := tr.Begin("measure")
	sc.Measure(float64(window-done) / sim.EpochsPerSecond)
	m.End()
	// Snapshot before closing the window: the stored state must be
	// continuable, and EndMeasure only reads the accumulators.
	dp := tr.Begin("snapshot_deposit")
	s.depositSnap(prefix, sc.Snapshot(), spec)
	dp.End()
	events := []string{}
	if sc.Controller != nil {
		events = append(events, sc.Controller.Events...)
	}
	return scenario.FromResult(run, hash, sc.EndMeasure()), events, nil
}

// ErrUnknownHash is returned by Extend for a content address with no
// indexed spec (never run here, or evicted).
var ErrUnknownHash = errors.New("service: unknown run hash")

// Extend re-runs a previously served spec — addressed by its content hash —
// with a longer (or any different) measurement window, without the client
// resending the spec. The continuation goes through the normal submission
// path, so it dedups, caches, and — when the warm snapshot of the original
// run is still resident — forks and simulates only the additional seconds.
// The result is byte-identical to running the extended spec from scratch.
// Spans land in the trace ctx carries, as for Submit.
func (s *Service) Extend(ctx context.Context, hash string, measureSec float64) (Result, error) {
	if measureSec <= 0 {
		return Result{}, fmt.Errorf("service: extend needs a positive measure_sec, got %g", measureSec)
	}
	if measureSec > scenario.MaxWindowSec {
		return Result{}, fmt.Errorf("service: extend measure_sec %g exceeds %d", measureSec, scenario.MaxWindowSec)
	}
	// The run may predate this process; record rehydrates it from the
	// store, and the extension proceeds as if it had never left memory.
	e, ok := s.record(hash, false, nil)
	if !ok {
		return Result{}, ErrUnknownHash
	}
	sp, err := scenario.Parse(e.Spec)
	if err != nil {
		return Result{}, fmt.Errorf("service: corrupt indexed spec for %.12s: %w", hash, err)
	}
	sp.MeasureSec = measureSec
	return s.submit(sp, obs.TraceFrom(ctx))
}

// TraceEvents serves the controller event log of a cached or stored run as
// {"events":["t=3s LP zone settled at [8:8]",...]}, trimmed to the last n
// events when n > 0. A run without a controller serves an empty list. It
// returns false only for unknown hashes.
func (s *Service) TraceEvents(hash string, n int) ([]byte, bool) {
	e, ok := s.record(hash, false, nil)
	if !ok {
		return nil, false
	}
	events := e.Events
	if n > 0 && n < len(events) {
		events = events[len(events)-n:]
	}
	data, err := json.Marshal(struct {
		Events []string `json:"events"`
	}{events})
	return data, err == nil
}

// snapEntry is one warm snapshot and the canonical spec of a run sharing
// its prefix, for snapshot shipping. Both are immutable; callers fork the
// snapshot outside the cache's lock.
type snapEntry struct {
	snap *harness.Snapshot
	spec []byte
}

// Lookup serves a cached report by hash without triggering execution. It
// does not touch the hit/miss counters: those account /run submissions
// only, and retrieval traffic would distort them.
func (s *Service) Lookup(hash string) ([]byte, bool) {
	e, ok := s.record(hash, true, nil)
	if !ok {
		return nil, false
	}
	return e.Report, true
}

// Series serves a cached run's per-second telemetry by content address.
// It returns false both for unknown hashes and for runs whose spec carried
// no series block — either way there is nothing time-resolved to serve.
// Like Lookup, retrieval does not touch the hit/miss counters.
func (s *Service) Series(hash string) ([]byte, bool) {
	e, ok := s.record(hash, true, nil)
	if !ok || e.Series == nil {
		return nil, false
	}
	return e.Series, true
}

// Stats snapshots the counters.
func (s *Service) Stats() Stats {
	st := Stats{
		Hits:            s.ctr.hits.Load(),
		Misses:          s.ctr.misses.Load(),
		Dedups:          s.ctr.dedups.Load(),
		Executions:      s.ctr.executions.Load(),
		Errors:          s.ctr.errors.Load(),
		Entries:         s.cache.Len(),
		Workers:         cap(s.slots),
		Queued:          int(s.ctr.queued.Load()),
		SnapshotForks:   s.ctr.snapshotForks.Load(),
		StoreHits:       s.ctr.storeHits.Load(),
		SnapshotEntries: s.snaps.Len(),
	}
	if s.disk != nil {
		st.StoreObjects = s.disk.Len()
		st.StoreQuarantined = s.disk.Quarantined()
	}
	return st
}

// lruEntry is one cached run: its record, the same one the store holds,
// and the pre-encoded cached:true response envelope for /run hits. Both
// are immutable after the entry is published.
type lruEntry struct {
	runRecord
	hitBody []byte
}

// publish makes rec the resident result for hash and returns the entry.
func (s *Service) publish(hash string, rec runRecord) *lruEntry {
	e := &lruEntry{runRecord: rec, hitBody: encodeResultEnvelope(hash, true, rec.Report)}
	s.cache.Put(hash, e, nil)
	return e
}

// bodyMemo is a bounded map from exact request-body bytes to the content
// hash the body parses to. The mapping is deterministic and therefore
// never invalidated; the bound only caps memory. Lookups take the read
// lock and allocate nothing (map[string] probed with a []byte key).
type bodyMemo struct {
	mu sync.RWMutex
	m  map[string]string
}

const (
	// memoMaxEntries caps the memo; beyond it an arbitrary entry is
	// evicted (map iteration order), which is effectively random — fine,
	// since any entry can be rebuilt by one parse.
	memoMaxEntries = 4096
	// memoMaxBody caps memoized body size: popular request bodies are
	// ~1 KiB, and memoMaxEntries * memoMaxBody bounds worst-case memory.
	memoMaxBody = 8 << 10
)

func newBodyMemo() *bodyMemo {
	return &bodyMemo{m: make(map[string]string)}
}

func (b *bodyMemo) get(body []byte) (string, bool) {
	b.mu.RLock()
	h, ok := b.m[string(body)] // no alloc: map lookup with converted key
	b.mu.RUnlock()
	return h, ok
}

func (b *bodyMemo) put(body []byte, hash string) {
	if len(body) > memoMaxBody {
		return
	}
	b.mu.Lock()
	if _, ok := b.m[string(body)]; !ok {
		for len(b.m) >= memoMaxEntries {
			for k := range b.m {
				delete(b.m, k)
				break
			}
		}
		b.m[string(body)] = hash
	}
	b.mu.Unlock()
}
