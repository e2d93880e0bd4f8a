package figures

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"a4sim/internal/harness"
	"a4sim/internal/scenario"
	"a4sim/internal/service"
)

// The sweep runner executes independent scenario points of a figure
// concurrently. Every point builds its own harness.Scenario (engine, seeded
// RNGs, hierarchy), so points share no mutable state and the reports are
// bit-identical to serial execution regardless of scheduling; only the
// assembly order matters, and callers assemble from an index-addressed
// result slice after the pool drains.
//
// Sweeps whose points share a scenario prefix — identical construction,
// manager, and warm-up, diverging only in a measurement-time knob (a CAT
// mask position, a DCA switch) — run through runPrefixSweeps instead: the
// prefix is built and warmed once per group, and each point forks the warm
// state, applies its divergence, and measures. The snapshot/fork contract
// (forked-run ≡ fresh-run, see internal/harness/fork.go) makes the grouped
// execution byte-identical to running every point fresh with the same
// divergence timing, at a fraction of the wall-clock cost when warm-up
// dominates the windows.

// Workers resolves the worker-pool degree for o: Options.Workers when
// positive, else GOMAXPROCS.
func (o Options) workerCount(points int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > points {
		w = points
	}
	if w < 1 {
		w = 1
	}
	return w
}

// forEachPoint runs fn(i) for every i in [0, n), spreading the calls over
// the sweep worker pool. It returns when all points are done. A panic in
// any point is re-raised on the caller's goroutine.
func forEachPoint(o Options, n int, fn func(i int)) {
	w := o.workerCount(n)
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	// A panic value is rewrapped in a single concrete type: atomic.Value
	// panics on stores of differing concrete types, which would otherwise
	// mask the first panic if two points fail concurrently.
	type panicInfo struct{ v any }
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicked atomic.Value
	)
	next.Store(-1)
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicked.CompareAndSwap(nil, panicInfo{r})
				}
			}()
			for {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	if r := panicked.Load(); r != nil {
		panic(r.(panicInfo).v)
	}
}

// runPoints is the common sweep shape: one scenario-building closure per
// point, results collected by index.
func runPoints[T any](o Options, n int, point func(i int) T) []T {
	out := make([]T, n)
	forEachPoint(o, n, func(i int) {
		out[i] = point(i)
	})
	return out
}

// RunSpecs executes spec-shaped sweep points through r — the local service
// pool or a cluster.Coordinator — with the same deterministic assembly as
// the in-process sweeps: reports come back in input order, byte-identical
// to a serial run, regardless of worker or backend count. It is the
// spec-level counterpart of runPrefixSweeps: specs sharing a run prefix
// form a group submitted sequentially (shortest measurement window first),
// so the executor warms the prefix once and each later point forks the
// snapshot its predecessor deposited — locally via the service snapshot
// LRU, remotely via the backend that prefix-hash routing pins the whole
// group to. Distinct prefixes fan out concurrently on the sweep pool.
func RunSpecs(o Options, r service.Runner, specs []*scenario.Spec) ([]*scenario.Report, error) {
	reports := make([]*scenario.Report, len(specs))
	errs := make([]error, len(specs))
	groups := service.GroupSpecsByPrefix(specs)
	forEachPoint(o, len(groups), func(g int) {
		for _, i := range groups[g] {
			res, err := r.Submit(specs[i])
			if err != nil {
				errs[i] = err
				continue
			}
			rep, err := scenario.DecodeReport(res.Report)
			if err != nil {
				errs[i] = err
				continue
			}
			reports[i] = rep
		}
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("figures: spec point %d: %w", i, err)
		}
	}
	return reports, nil
}

// prefixSweep is one group of sweep points sharing a scenario prefix. build
// constructs and Starts the shared scenario; it is warmed for warm simulated
// seconds exactly once. Each entry of diverge is one point: it receives a
// fork of the warm state, applies the point's knob (a nil entry diverges by
// nothing), and is measured for meas seconds. Divergence therefore lands at
// the measurement boundary — for CAT masks that is the §5.5 semantics of
// programming a mask on a live system (new allocations only), and for DCA
// knobs it is exactly how the A4 daemon flips ports at runtime.
type prefixSweep struct {
	build   func() *harness.Scenario
	warm    float64
	meas    float64
	diverge []func(*harness.Scenario)
}

// runPrefixSweeps executes the groups on the worker pool in two phases:
// every group's prefix is built, warmed and snapshotted once (concurrently
// across groups), then every point forks the snapshot, diverges, and
// measures (concurrently across all points of all groups). A single-point
// group skips the snapshot and measures the warmed prefix directly —
// equivalent by the fork contract. Results are indexed [group][point];
// reports are byte-identical at any worker count.
func runPrefixSweeps(o Options, groups []prefixSweep) [][]*harness.Result {
	warmed := make([]*harness.Scenario, len(groups))
	snaps := make([]*harness.Snapshot, len(groups))
	forEachPoint(o, len(groups), func(g int) {
		s := groups[g].build()
		s.Warm(groups[g].warm)
		if len(groups[g].diverge) > 1 {
			snaps[g] = s.Snapshot()
		} else {
			warmed[g] = s
		}
	})
	type point struct{ g, p int }
	var pts []point
	out := make([][]*harness.Result, len(groups))
	for g := range groups {
		out[g] = make([]*harness.Result, len(groups[g].diverge))
		for p := range groups[g].diverge {
			pts = append(pts, point{g, p})
		}
	}
	forEachPoint(o, len(pts), func(i int) {
		g, p := pts[i].g, pts[i].p
		grp := groups[g]
		s := warmed[g]
		if snaps[g] != nil {
			// Concurrent forks of one snapshot only read it, so points of
			// a group need no ordering among themselves.
			s = snaps[g].Fork()
		}
		if d := grp.diverge[p]; d != nil {
			d(s)
		}
		s.BeginMeasure()
		s.Measure(grp.meas)
		out[g][p] = s.EndMeasure()
	})
	return out
}
