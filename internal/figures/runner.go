package figures

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"a4sim/internal/harness"
	"a4sim/internal/scenario"
	"a4sim/internal/service"
)

// The sweep runner executes a figure's points concurrently. Every point
// starts its own harness.Scenario (engine, seeded RNGs, hierarchy), so
// points share no mutable state and the reports are bit-identical to
// serial execution regardless of scheduling; results land in an
// index-addressed slice and the figure reduces them in point order.

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

// RunSpecs executes spec-shaped sweep points through r — the local service
// pool or a cluster.Coordinator — with the same deterministic assembly as
// the in-process sweeps: reports come back in input order, byte-identical
// to a serial run, regardless of worker or backend count. Specs sharing a
// run prefix form a group submitted in order (service.RunGroups, shortest
// measurement window first), so the executor warms the prefix once and
// each later point forks the snapshot its predecessor deposited — locally
// via the service snapshot LRU, remotely via the backend that prefix-hash
// routing pins the whole group to. Distinct prefixes are submitted
// concurrently; r's own pool bounds how many run at once.
func RunSpecs(r service.Runner, specs []*scenario.Spec) ([]*scenario.Report, error) {
	reports := make([]*scenario.Report, len(specs))
	err := service.RunGroups(service.GroupSpecsByPrefix(specs), "figures: spec point", func(_, i int) error {
		res, err := r.Submit(context.TODO(), specs[i])
		if err == nil {
			reports[i], err = scenario.DecodeReport(res.Report)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return reports, nil
}

// point is one figure measurement. start is the spec the run starts from;
// at, when set, is the same scenario with other CAT ways or DCA setting,
// programmed at the measurement boundary. For CAT masks that is the §5.5
// semantics of programming a mask on a live system (new allocations
// only); for DCA it is exactly how the A4 daemon flips ports at runtime.
// The boundary change is local to figures: served specs program theirs at
// Start.
type point struct {
	start, at *scenario.Spec
}

// run executes the points on the sweep pool and returns their results in
// point order. Points whose start specs share a PrefixHash form a group
// (service.GroupSpecsByPrefix), which is started and warmed once and
// snapshotted; each point of it then forks the snapshot, programs its
// boundary change, and measures. A point with no group mates runs fresh:
// start, warm, program, measure. The snapshot/fork contract (forked run ≡
// fresh run) makes the grouped execution byte-identical to running every
// point fresh.
//
// Phase one starts every group, warming the shared ones and running the
// lone points through; phase two measures the forks. Each scenario is
// dropped as soon as its window closes — keep, when set, sees it first —
// so a figure holds one snapshot per shared group and no finished
// scenario.
func run(o Options, pts []point, keep func(i int, s *harness.Scenario)) []*harness.Result {
	starts := make([]*scenario.Spec, len(pts))
	for i, p := range pts {
		starts[i] = p.start.Clone()
		if err := starts[i].Normalize(); err != nil {
			panic(fmt.Sprintf("figures: point %d: %v", i, err))
		}
	}
	groups := service.GroupSpecsByPrefix(starts)
	out := make([]*harness.Result, len(pts))
	measure := func(i int, s *harness.Scenario) {
		if at := pts[i].at; at != nil {
			if err := at.Validate(); err != nil {
				panic(fmt.Sprintf("figures: point %d boundary: %v", i, err))
			}
			if err := at.Program(s); err != nil {
				panic(err)
			}
		}
		s.BeginMeasure()
		s.Measure(starts[i].MeasureSec)
		out[i] = s.EndMeasure()
		if keep != nil {
			keep(i, s)
		}
	}
	snaps := make([]*harness.Snapshot, len(groups))
	forEachPoint(o, len(groups), func(g int) {
		first := groups[g][0]
		s, err := starts[first].Start()
		if err != nil {
			panic(err)
		}
		s.Warm(starts[first].WarmupSec)
		if len(groups[g]) == 1 {
			measure(first, s)
			return
		}
		snaps[g] = s.Snapshot()
	})
	type fork struct{ g, i int }
	var forks []fork
	for g, idx := range groups {
		if snaps[g] != nil {
			for _, i := range idx {
				forks = append(forks, fork{g, i})
			}
		}
	}
	// Concurrent forks of one snapshot only read it, so points of a group
	// need no ordering among themselves.
	forEachPoint(o, len(forks), func(k int) {
		measure(forks[k].i, snaps[forks[k].g].Fork())
	})
	return out
}
