// Package cluster shards scenario serving across a fleet of a4serve
// backends. A Coordinator implements the same service.Runner surface as the
// local Service, but routes each submission to one of N remote daemons
// by rendezvous-hashing its routing key — the spec's prefix hash — so that
// specs sharing a run prefix consistently land on the same backend and
// reuse its warm-snapshot LRU, while distinct prefixes spread across the
// fleet. A sweep's prefix groups are placed together before any point is
// sent: each goes to its rendezvous home unless that would push the home
// past an even share of the sweep's simulated seconds (consistent hashing
// with bounded loads), so one backend never runs most of a sweep while
// another idles. Requests by content hash (/extend, /result, /series,
// /trace/events, series streams) try the backend that last served the
// run's prefix first. Every request to a backend goes through
// service.Client, the same typed client the daemon's other callers use.
// Because execution is deterministic and content-addressed, any backend
// produces byte-identical results for a given spec; routing is therefore
// purely a performance policy, and losing a backend mid-sweep is handled
// by re-sending its points to the next backend in rendezvous order
// (idempotent: a re-executed point cannot differ).
package cluster

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"a4sim/internal/lru"
	"a4sim/internal/obs"
	"a4sim/internal/scenario"
	"a4sim/internal/service"
)

// Config wires a Coordinator to its backends.
type Config struct {
	// Backends are the base URLs of the a4serve daemons to shard over.
	Backends []string
	// ReviveAfter is how long a lost backend stays out of the routing order
	// before the coordinator probes its /healthz again. 0 means 15s.
	ReviveAfter time.Duration
}

const (
	// queueDepth bounds the coordinator's in-flight requests per backend;
	// further points for that backend wait their turn instead of piling up
	// as unbounded goroutine state. The shared transport's per-host
	// connection pool is sized to match, so routed traffic reuses sockets
	// instead of churning through dials.
	queueDepth = 32
	// routeEntries caps the content-hash → routing-key index that sends
	// /extend and by-hash reads to the backend owning the run, and the
	// routing-key → owner index beside it; each evicts its least recently
	// used entry. Unknown hashes fall back to probing backends in a
	// deterministic order, so eviction costs latency, never correctness.
	routeEntries = 16384
	// runTimeout bounds a run, extend, or by-hash hop: runs may
	// legitimately simulate for minutes (the backend's CheckBudget bounds
	// them). Streams clear it.
	runTimeout = 15 * time.Minute
	// probeTimeout bounds health, stats, trace, and snapshot requests, so a
	// dead backend cannot stall the submission path for long.
	probeTimeout = 10 * time.Second
)

// Coordinator shards a service.Runner over remote backends.
type Coordinator struct {
	backends    []*backend
	reviveAfter time.Duration

	routes *lru.Map[string] // content hash -> routing key
	owners *lru.Map[string] // routing key (prefix hash) -> backend URL last serving it

	// The live form of Routing.
	reroutes    atomic.Uint64
	softRetries atomic.Uint64
	handoffs    atomic.Uint64
	rejected    atomic.Uint64
}

// backend is one a4serve daemon. Every request to it goes through one of
// its two service.Clients, which share the coordinator's transport.
type backend struct {
	url   string
	run   *service.Client // runs, extends, by-hash reads and stream proxying
	probe *service.Client // healthz, stats, traces and snapshot shipping
	slots chan struct{}   // bounded per-backend queue: one token per in-flight run or extend

	// Health state is atomic: routable runs per submission per backend, and
	// a mutex here would serialize the whole fleet's dispatch on one node's
	// flapping. downSince is unix nanos; 0 while up.
	down      atomic.Bool
	downSince atomic.Int64
}

// New validates the backend list and returns a coordinator. It does not
// contact the backends: an unreachable one is discovered (and routed
// around) on first use.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Backends) == 0 {
		return nil, errors.New("cluster: no backends configured")
	}
	revive := cfg.ReviveAfter
	if revive <= 0 {
		revive = 15 * time.Second
	}
	// One keep-alive transport for every client: run/extend traffic,
	// probes, and stream proxying pool their connections per backend,
	// capped at the per-backend in-flight depth.
	transport := service.NewTransport(queueDepth)
	runHC := &http.Client{Timeout: runTimeout, Transport: transport}
	probeHC := &http.Client{Timeout: probeTimeout, Transport: transport}
	c := &Coordinator{
		reviveAfter: revive,
		routes:      lru.New[string](routeEntries),
		owners:      lru.New[string](routeEntries),
	}
	seen := map[string]bool{}
	for _, raw := range cfg.Backends {
		u := strings.TrimRight(strings.TrimSpace(raw), "/")
		if u == "" {
			return nil, fmt.Errorf("cluster: empty backend URL in %q", cfg.Backends)
		}
		if seen[u] {
			return nil, fmt.Errorf("cluster: duplicate backend %s", u)
		}
		seen[u] = true
		c.backends = append(c.backends, &backend{
			url:   u,
			run:   service.NewClient(u, runHC),
			probe: service.NewClient(u, probeHC),
			slots: make(chan struct{}, queueDepth),
		})
	}
	return c, nil
}

// Statically pin that a coordinator is interchangeable with the local pool.
var _ service.Runner = (*Coordinator)(nil)

// rendezvous orders the backends by descending highest-random-weight score
// for key. The first entry is the key's home; the rest are its failover
// order. The ordering is a pure function of (key, backend URLs), so every
// coordinator over the same fleet routes identically, and removing one
// backend only moves that backend's keys.
func (c *Coordinator) rendezvous(key string) []*backend {
	return rendezvousOver(key, c.backends)
}

// rendezvousOver is rendezvous restricted to bs. Scores depend only on
// (URL, key), so the result does not depend on the order of bs, and
// filtering the full order gives the same sequence as ranking the subset.
func rendezvousOver(key string, bs []*backend) []*backend {
	type scored struct {
		b *backend
		s uint64
	}
	order := make([]scored, len(bs))
	for i, b := range bs {
		// sha256 rather than a cheap multiplicative hash: backend URLs share
		// long prefixes, and weakly-avalanched hashes visibly bias the
		// highest-random-weight comparison across such near-identical seeds.
		sum := sha256.Sum256([]byte(b.url + "\x00" + key))
		order[i] = scored{b, binary.BigEndian.Uint64(sum[:8])}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].s != order[j].s {
			return order[i].s > order[j].s
		}
		return order[i].b.url < order[j].b.url
	})
	out := make([]*backend, len(order))
	for i, s := range order {
		out[i] = s.b
	}
	return out
}

// routable reports whether b should receive traffic. A lost backend is
// skipped until ReviveAfter has elapsed, after which one /healthz probe
// decides whether it rejoins the routing order or waits another interval.
func (c *Coordinator) routable(b *backend) bool {
	if !b.down.Load() {
		return true
	}
	if time.Since(time.Unix(0, b.downSince.Load())) < c.reviveAfter {
		return false
	}
	if b.probe.Healthz() == nil {
		b.setDown(false)
		return true
	}
	b.setDown(true) // restart the revive clock
	return false
}

func (b *backend) setDown(down bool) {
	if down {
		b.downSince.Store(time.Now().UnixNano())
	}
	b.down.Store(down)
}

func (b *backend) isDown() bool {
	return b.down.Load()
}

// callClass is what a backend's answer means for routing.
type callClass int

const (
	callOK       callClass = iota
	callTerminal           // a deterministic rejection or run failure: rerouting cannot help
	callLost               // transport failure or shutting-down backend: mark down, reroute
	callBusy               // backend alive but queue-full: reroute without marking down
)

// classify maps a service.Client error to its routing class. 429 is busy.
// A transport or read failure, an undecodable 200 (a half-written answer
// from a dying backend; re-executing elsewhere is safe because runs are
// deterministic), 502, 504, and 503 (a closing backend: its queued work
// still completes, but new points belong elsewhere) are lost. An oversized
// answer is terminal: the same run reproduces it on every backend, so
// treating it as lost would down-mark the whole fleet one reroute at a
// time. Every other status is a deterministic rejection or run failure.
func classify(err error) callClass {
	var ae *service.APIError
	var re *service.RunError
	switch {
	case err == nil:
		return callOK
	case errors.Is(err, service.ErrBusy):
		return callBusy
	case errors.Is(err, service.ErrUnavailable):
		return callLost
	case errors.As(err, &ae):
		if ae.Status == http.StatusBadGateway || ae.Status == http.StatusGatewayTimeout {
			return callLost
		}
		return callTerminal
	case errors.Is(err, service.ErrTooLarge), errors.Is(err, service.ErrUnknownHash), errors.As(err, &re):
		return callTerminal
	default:
		return callLost
	}
}

// call sends one run or extend hop to b through its run client, holding
// b's bounded queue for the duration, and classifies the outcome. The hop
// is a backend_call span labeled with the backend URL, and the trace ctx
// carries travels to the backend, whose spans join it. The hop ignores
// ctx's cancellation, so a client hanging up is never read as a lost
// backend. A backend's non-2xx answer comes back as the service error
// taxonomy (service.ErrFromStatus), so the coordinator's own HTTP layer
// round-trips the status to its client unchanged.
func (c *Coordinator) call(ctx context.Context, b *backend, hop func(context.Context, *service.Client) (service.Result, error)) (service.Result, callClass, error) {
	b.slots <- struct{}{}
	defer func() { <-b.slots }()
	span := obs.TraceFrom(ctx).Begin("backend_call").Annotate(b.url)
	res, err := hop(context.WithoutCancel(ctx), b.run)
	span.End()
	if err != nil {
		return service.Result{}, classify(err), fmt.Errorf("cluster: backend %s: %w", b.url, err)
	}
	return res, callOK, nil
}

// failover returns key's rendezvous order with head moved to the front: the
// backend a sweep placed the key on, or the one that last served it. A nil
// head, or one that already is the home, leaves the order as it is.
func (c *Coordinator) failover(key string, head *backend) []*backend {
	order := c.rendezvous(key)
	if head == nil || order[0] == head {
		return order
	}
	out := append(make([]*backend, 0, len(order)), head)
	for _, b := range order {
		if b != head {
			out = append(out, b)
		}
	}
	return out
}

// submitKey routes body down key's failover order, headed by head (nil for
// the rendezvous home), until a backend serves it. A lost call gets one
// same-backend retry (transient transport hiccups should not re-shard the
// keyspace and abandon a backend's warm state); backends lost twice in a
// row are marked down (so later points skip them without paying a
// timeout) and the point is re-sent to the next backend — the
// retry-with-reroute that keeps a sweep complete when a node dies mid-run.
// When the routing target differs from the backend that last served this
// key, the previous owner's warm snapshot is shipped over first, so
// reroutes and revivals continue from warm state instead of re-simulating
// the prefix.
func (c *Coordinator) submitKey(ctx context.Context, key string, head *backend, body []byte) (service.Result, error) {
	tr := obs.TraceFrom(ctx)
	run := func(ctx context.Context, cl *service.Client) (service.Result, error) { return cl.RunBytes(ctx, body) }
	var lastErr, lastBusy error
	sawLost := false
	for _, b := range c.failover(key, head) {
		if !c.routable(b) {
			continue
		}
		c.maybeHandoff(key, b, tr)
		res, class, err := c.call(ctx, b, run)
		if class == callLost {
			c.softRetries.Add(1)
			// Jittered backoff so a fleet of coordinator goroutines does not
			// re-hit a briefly-choking backend in lockstep.
			time.Sleep(time.Duration(50+rand.Intn(100)) * time.Millisecond)
			res, class, err = c.call(ctx, b, run)
		}
		switch class {
		case callOK:
			c.owners.Put(key, b.url, nil)
			return res, nil
		case callTerminal:
			return service.Result{}, err
		case callBusy:
			lastBusy = err
		case callLost:
			b.setDown(true)
			c.reroutes.Add(1)
			tr.Mark("reroute", b.url)
			sawLost = true
			lastErr = err
		}
	}
	if !sawLost && lastBusy != nil {
		// Every reachable backend is saturated: surface the backpressure
		// (429) rather than claiming the fleet is gone.
		return service.Result{}, lastBusy
	}
	if lastErr == nil {
		lastErr = errors.New("all backends marked down")
	}
	return service.Result{}, fmt.Errorf("cluster: %w: %v", service.ErrUnavailable, lastErr)
}

// maybeHandoff ships the warm snapshot for routing key (a prefix hash)
// from the backend that last served it to target, the backend about to
// serve it now — the reroute/revival path that moves warm state instead of
// re-warming. Strictly best-effort and fully validated on the receiving
// side: any failure (previous owner gone, no snapshot, corrupt bytes,
// target rejecting) just means target re-executes from scratch, which is
// always correct. The short-timeout probe clients bound how long a dead
// owner can stall the submission path.
func (c *Coordinator) maybeHandoff(key string, target *backend, tr *obs.Trace) {
	owner := c.ownerOf(key)
	if owner == nil || owner == target {
		return
	}
	span := tr.Begin("snapshot_handoff").Annotate(target.url)
	defer span.End()
	data, err := owner.probe.Snapshot(key)
	if err == nil && target.probe.InstallSnapshot(key, data) == nil {
		c.handoffs.Add(1)
	}
}

// ownerOf returns the backend that last served routing key, or nil when
// none is recorded (or the recorded URL left the fleet).
func (c *Coordinator) ownerOf(key string) *backend {
	url, _ := c.owners.Get(key, true)
	return c.backendAt(url)
}

// backendAt returns the backend with base URL url, or nil.
func (c *Coordinator) backendAt(url string) *backend {
	for _, b := range c.backends {
		if b.url == url {
			return b
		}
	}
	return nil
}

// Submit routes one spec to the backend owning its prefix hash. Using the
// prefix (not the full content hash) as the routing key is what gives
// same-prefix submissions — a /run, its /extend, the measure_sec rows of a
// sweep — affinity to one backend's warm-snapshot LRU. The trace ctx
// carries records the routing (handoffs, reroutes, the backend hop itself)
// and travels to the owning backend, whose spans join it.
func (c *Coordinator) Submit(ctx context.Context, sp *scenario.Spec) (service.Result, error) {
	return c.submit(ctx, sp, nil)
}

// submit sends sp down its prefix's failover order headed by head (nil for
// the rendezvous home).
func (c *Coordinator) submit(ctx context.Context, sp *scenario.Spec, head *backend) (service.Result, error) {
	canon, _, prefix, err := sp.Digest()
	if err == nil {
		// Mirror the local serving policy before spending a network hop:
		// a backend would reject the same spec with 422.
		err = sp.CheckBudget()
	}
	if err != nil {
		c.rejected.Add(1)
		return service.Result{}, err
	}
	res, err := c.submitKey(ctx, prefix, head, canon)
	if err == nil {
		c.routes.Put(res.Hash, prefix, nil)
	}
	return res, err
}

// Extend re-runs a served spec by content address with a new measurement
// window. The coordinator remembers which routing key served each hash and
// which backend last served that key, so the request lands first on the
// backend holding the run's indexed spec and warm snapshot — even when a
// sweep placed the prefix off its rendezvous home. Unknown or evicted
// hashes fall back to probing the fleet in deterministic order, and only
// when every backend answers 404 does the client see ErrUnknownHash. The
// trace travels as for Submit.
func (c *Coordinator) Extend(ctx context.Context, hash string, measureSec float64) (service.Result, error) {
	tr := obs.TraceFrom(ctx)
	extend := func(ctx context.Context, cl *service.Client) (service.Result, error) {
		return cl.Extend(ctx, hash, measureSec)
	}
	key, order := c.hashOrder(hash)
	var lastErr error
	sawUnknown, incomplete := false, false
	for _, b := range order {
		if !c.routable(b) {
			// A skipped backend might hold the run; its silence must not be
			// read as a 404.
			incomplete = true
			continue
		}
		res, class, err := c.call(ctx, b, extend)
		switch class {
		case callOK:
			// The extended run shares the original's prefix, so it lives
			// under the same routing key.
			c.routes.Put(res.Hash, key, nil)
			return res, nil
		case callTerminal:
			if errors.Is(err, service.ErrUnknownHash) {
				// This backend never served the run (or evicted it); after a
				// failover it may live on any other node.
				sawUnknown = true
				lastErr = err
				continue
			}
			return service.Result{}, err
		case callBusy, callLost:
			if class == callLost {
				b.setDown(true)
				c.reroutes.Add(1)
				tr.Mark("reroute", b.url)
			}
			incomplete = true
			lastErr = err
		}
	}
	// 404 is only honest when every backend answered it; if any was down,
	// busy, or lost, the run may still exist there, so report the fleet as
	// unavailable (retryable) rather than the hash as unknown.
	if sawUnknown && !incomplete {
		return service.Result{}, fmt.Errorf("cluster: no backend has run %.12s: %w", hash, service.ErrUnknownHash)
	}
	if lastErr == nil {
		lastErr = errors.New("all backends marked down")
	}
	return service.Result{}, fmt.Errorf("cluster: %w: %v", service.ErrUnavailable, lastErr)
}

// Sweep expands the grid locally and shards its points over the fleet:
// same-prefix rows form a group that runs sequentially (shortest
// measurement first) against one backend, so later rows fork the warm
// snapshot earlier rows deposited; distinct groups run concurrently. Every
// group is placed before any point is sent (see place): at its rendezvous
// home when the home has room under the sweep's bounded load, else at the
// next backend in its order that has, so the sweep's simulated seconds
// spread over the fleet instead of queueing on one hash-favoured backend.
// A lost placed backend fails over down the rest of the group's rendezvous
// order. Results assemble by grid index, so the response is byte-identical
// to a single-node (or serial) run of the same request — backend count and
// placement, like worker count, never reorder points.
func (c *Coordinator) Sweep(ctx context.Context, req *service.SweepRequest) ([]service.SweepPoint, error) {
	specs, grids, err := service.ExpandSweep(req)
	if err != nil {
		return nil, err
	}
	groups := service.GroupSpecsByPrefix(specs)
	homes := c.place(specs, groups)
	points := make([]service.SweepPoint, len(specs))
	err = service.RunGroups(groups, "cluster: sweep point", func(g, i int) error {
		res, err := c.submit(ctx, specs[i], homes[g])
		points[i] = service.SweepPoint{Grid: grids[i], Hash: res.Hash, Cached: res.Cached, Report: res.Report}
		return err
	})
	if err != nil {
		return nil, err
	}
	return points, nil
}

// place assigns each prefix group of a sweep to one routable backend (nil
// entries when none is routable, which leaves routing to the rendezvous
// order). A group's routing key is its prefix hash, and its cost is its
// simulated seconds: warm-up plus its longest measurement window, since
// the group's later rows fork its earlier ones. specs are ExpandSweep's,
// so their windows are spelled out.
func (c *Coordinator) place(specs []*scenario.Spec, groups [][]int) []*backend {
	var up []*backend
	for _, b := range c.backends {
		if c.routable(b) {
			up = append(up, b)
		}
	}
	keys := make([]string, len(groups))
	costs := make([]float64, len(groups))
	for g, idxs := range groups {
		// Normalized specs always hash; an empty key still places
		// deterministically, and submit reports the real error.
		keys[g], _ = specs[idxs[0]].PrefixHash()
		longest := 0.0
		for _, i := range idxs {
			longest = math.Max(longest, specs[i].MeasureSec)
		}
		costs[g] = specs[idxs[0]].WarmupSec + longest
	}
	return placeGroups(keys, costs, up)
}

// placeGroups is consistent hashing with bounded loads (Mirrokni, Thorup &
// Zadimoghaddam, SODA 2018) over one sweep. Walking the groups in order,
// group g goes to the first backend in its rendezvous order over up whose
// assigned cost stays within ceil(total cost / len(up)); when none has
// room, to the least-loaded backend (ties to the earlier one in the
// group's order). A backend therefore exceeds the bound only through the
// one group that did not fit anywhere, and a group leaves its home only
// when the home is full. The result is a pure function of (keys, costs,
// the URLs in up) — not of up's order — so every coordinator over the same
// healthy fleet places a grid identically.
func placeGroups(keys []string, costs []float64, up []*backend) []*backend {
	out := make([]*backend, len(keys))
	if len(up) == 0 {
		return out
	}
	total := 0.0
	for _, cost := range costs {
		total += cost
	}
	bound := math.Ceil(total / float64(len(up)))
	load := make(map[*backend]float64, len(up))
	for g, key := range keys {
		order := rendezvousOver(key, up)
		var pick *backend
		for _, b := range order {
			if load[b]+costs[g] <= bound {
				pick = b
				break
			}
		}
		if pick == nil {
			pick = order[0]
			for _, b := range order[1:] {
				if load[b] < load[pick] {
					pick = b
				}
			}
		}
		load[pick] += costs[g]
		out[g] = pick
	}
	return out
}

// Lookup fetches a cached report by content address, routed by byHash.
func (c *Coordinator) Lookup(hash string) ([]byte, bool) {
	return c.fetchByHash(hash, func(cl *service.Client) ([]byte, error) { return cl.Result(hash) })
}

// Series fetches a cached run's per-second telemetry by content address,
// routed like Lookup: series live beside reports in the executing
// backend's cache.
func (c *Coordinator) Series(hash string) ([]byte, bool) {
	return c.fetchByHash(hash, func(cl *service.Client) ([]byte, error) { return cl.Series(hash) })
}

// hashOrder returns the routing key of the run served under hash (the hash
// itself when unrecorded) and the backends to try for it: the one that last
// served the key first, then the rest in the key's rendezvous order.
func (c *Coordinator) hashOrder(hash string) (string, []*backend) {
	key, known := c.routes.Get(hash, true)
	if !known {
		key = hash
	}
	return key, c.failover(key, c.ownerOf(key))
}

// byHash is the one by-hash read loop (/result, /series, /trace/events, the
// series stream): read runs against the run client of each routable backend
// in hash's order until one answers. A lost backend is marked down, so later requests skip
// it without paying a timeout; a 404 or other refusal moves on, since after
// a failover the run may live on any node. An oversized answer ends the
// walk as a miss: the same content address yields the same answer
// everywhere.
func (c *Coordinator) byHash(hash string, read func(*service.Client) error) bool {
	_, order := c.hashOrder(hash)
	for _, b := range order {
		if !c.routable(b) {
			continue
		}
		err := read(b.run)
		switch {
		case err == nil:
			return true
		case errors.Is(err, service.ErrTooLarge):
			return false
		case classify(err) == callLost:
			b.setDown(true)
		}
	}
	return false
}

// fetchByHash is byHash for a read whose answer is a body.
func (c *Coordinator) fetchByHash(hash string, get func(*service.Client) ([]byte, error)) ([]byte, bool) {
	var data []byte
	ok := c.byHash(hash, func(cl *service.Client) (err error) {
		data, err = get(cl)
		return err
	})
	return data, ok
}

// BackendStats is one backend's view in the merged /stats payload.
type BackendStats struct {
	URL string `json:"url"`
	// Down reports the router's judgment (a lost backend awaiting revival);
	// Reachable reports whether this stats probe itself succeeded.
	Down      bool          `json:"down"`
	Reachable bool          `json:"reachable"`
	Error     string        `json:"error,omitempty"`
	Stats     service.Stats `json:"stats"`
}

// Routing is the coordinator's own counters, declared like service.Stats:
// the json tag names each in /stats, the prom tag its family in /metrics.
type Routing struct {
	Reroutes         uint64 `json:"reroutes" prom:"a4_cluster_reroutes_total,counter"`                   // points re-sent after losing a backend
	SoftRetries      uint64 `json:"soft_retries" prom:"a4_cluster_soft_retries_total,counter"`           // same-backend retries after a transient transport error
	SnapshotHandoffs uint64 `json:"snapshot_handoffs" prom:"a4_cluster_snapshot_handoffs_total,counter"` // warm snapshots shipped between backends on reroute or revival
	Rejected         uint64 `json:"rejected" prom:"a4_cluster_rejected_total,counter"`                   // submissions refused before any routing
}

// Stats is the merged cluster view: the embedded service.Stats counters are
// summed across reachable backends (so a coordinator's /stats reads exactly
// like a single node's, and tools such as the loadgen work unchanged),
// while Backends preserves the per-backend breakdown.
type Stats struct {
	service.Stats
	Routing
	Backends []BackendStats `json:"backends"`
}

// Stats polls every backend's /stats concurrently and merges the counters.
func (c *Coordinator) Stats() Stats {
	out := Stats{Backends: make([]BackendStats, len(c.backends))}
	var wg sync.WaitGroup
	for i, b := range c.backends {
		wg.Add(1)
		go func(i int, b *backend) {
			defer wg.Done()
			bs := BackendStats{URL: b.url, Down: b.isDown()}
			st, err := b.probe.Stats()
			if err != nil {
				bs.Error = err.Error()
			} else {
				bs.Reachable = true
				bs.Stats = st
			}
			out.Backends[i] = bs
		}(i, b)
	}
	wg.Wait()
	for _, bs := range out.Backends {
		if bs.Reachable {
			obs.AddStats(&out.Stats, bs.Stats)
		}
	}
	out.Routing = Routing{
		Reroutes:         c.reroutes.Load(),
		SoftRetries:      c.softRetries.Load(),
		SnapshotHandoffs: c.handoffs.Load(),
		Rejected:         c.rejected.Load(),
	}
	return out
}
