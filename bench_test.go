// Microbenchmarks of the simulation substrate: hierarchy accesses, one
// simulated second of the micro mix on each execution path, and the sweep
// fork win. cmd/a4pair's gate workload runs BenchmarkScenarioSecond,
// BenchmarkSweepFork and BenchmarkScenarioSecondSampled on a base revision
// and on HEAD and judges their medians; the figures themselves run in
// internal/figures' determinism tests and in perfbench's figures workload.
package a4sim_test

import (
	"testing"
	"time"

	"a4sim/internal/harness"
	"a4sim/internal/hierarchy"
	"a4sim/internal/obs"
	"a4sim/internal/pcm"
	"a4sim/internal/stats"
	"a4sim/internal/workload"
)

// --- substrate microbenchmarks ---

func newBenchHierarchy(b *testing.B) (*hierarchy.Hierarchy, pcm.WorkloadID) {
	b.Helper()
	f := pcm.NewFabric(1)
	id := f.Register("bench")
	return hierarchy.New(hierarchy.SkylakeConfig(), f), id
}

func BenchmarkHierarchyCPURead(b *testing.B) {
	h, id := newBenchHierarchy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.CPURead(i%4, id, uint64(i)%(1<<20), false)
	}
}

func BenchmarkHierarchyDMAWrite(b *testing.B) {
	h, id := newBenchHierarchy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.DMAWrite(0, id, uint64(i)%(1<<18))
	}
}

func BenchmarkHierarchyMixedTraffic(b *testing.B) {
	h, id := newBenchHierarchy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := uint64(i) % (1 << 18)
		h.DMAWrite(0, id, a)
		h.CPURead(i%4, id, a, true)
	}
}

func BenchmarkScenarioSecond(b *testing.B) {
	// Cost of one simulated second of the micro mix under Default, measured
	// inside an open measurement window like every real run (and like the
	// Series/Obs/Sampled siblings below — the window costs ~3% over a bare
	// Engine.Run loop, which used to read as a phantom telemetry overhead
	// when this benchmark skipped it; see PERF.md).
	p := harness.DefaultParams()
	s := harness.NewScenario(p)
	s.AddDPDK("dpdk-t", []int{0, 1, 2, 3}, true, workload.HPW)
	s.AddFIO("fio", []int{4, 5, 6, 7}, 128<<10, 32, workload.LPW)
	s.AddXMem("xmem", []int{8, 9}, 4<<20, workload.Sequential, false, workload.HPW)
	s.Start(harness.Default())
	s.Warm(1)
	s.BeginMeasure()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Measure(1)
	}
}

// BenchmarkScenarioSecondSampled prices sampled execution against the
// detailed path on otherwise identical scenarios: both sub-benchmarks run
// one simulated second of the micro mix inside an open measurement window;
// "sampled" runs it under the default schedule (200 ms detail per 1 s
// period), fast-forwarding the other 800 ms. cmd/a4pair's gate records
// detailed/sampled ns-per-op as sampled_speedup and fails it below 1.8x
// (ideal for the default schedule is 5x, the gap is the fast-forward and
// extrapolation cost plus the detail windows' share of fixed work).
func BenchmarkScenarioSecondSampled(b *testing.B) {
	run := func(b *testing.B, sample harness.SampleSpec) {
		p := harness.DefaultParams()
		p.Sample = sample
		s := harness.NewScenario(p)
		s.AddDPDK("dpdk-t", []int{0, 1, 2, 3}, true, workload.HPW)
		s.AddFIO("fio", []int{4, 5, 6, 7}, 128<<10, 32, workload.LPW)
		s.AddXMem("xmem", []int{8, 9}, 4<<20, workload.Sequential, false, workload.HPW)
		s.Start(harness.Default())
		s.Warm(1)
		s.BeginMeasure()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Measure(1)
		}
	}
	b.Run("detailed", func(b *testing.B) { run(b, harness.SampleSpec{}) })
	b.Run("sampled", func(b *testing.B) {
		run(b, harness.SampleSpec{DetailUs: 200_000, PeriodUs: 1_000_000})
	})
}

// warmedMicroMix builds the micro mix and warms it one simulated second,
// with the measurement window still closed, so each fork of it can pick its
// series groups before opening the window.
func warmedMicroMix(opts harness.SeriesOpts) *harness.Scenario {
	s := harness.NewScenario(harness.DefaultParams())
	s.AddDPDK("dpdk-t", []int{0, 1, 2, 3}, true, workload.HPW)
	s.AddFIO("fio", []int{4, 5, 6, 7}, 128<<10, 32, workload.LPW)
	s.AddXMem("xmem", []int{8, 9}, 4<<20, workload.Sequential, false, workload.HPW)
	s.Start(harness.Default())
	s.Monitor.EnableSeries(opts)
	s.Warm(1)
	return s
}

// offOn runs one "off" and one "on" step per iteration, swapping their
// order every iteration, so drift on the host lands on both sides alike
// instead of in their ratio. It reports each side's ms per step (one
// simulated second) and the overhead of "on" over "off" in percent.
func offOn(b *testing.B, off, on func()) {
	timed := func(f func()) time.Duration {
		t0 := time.Now()
		f()
		return time.Since(t0)
	}
	var dOff, dOn time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			dOff += timed(off)
			dOn += timed(on)
		} else {
			dOn += timed(on)
			dOff += timed(off)
		}
	}
	offMs := float64(dOff.Microseconds()) / 1e3 / float64(b.N)
	onMs := float64(dOn.Microseconds()) / 1e3 / float64(b.N)
	b.ReportMetric(offMs, "off_ms/simsec")
	b.ReportMetric(onMs, "on_ms/simsec")
	b.ReportMetric(100*(onMs-offMs)/offMs, "overhead_pct")
}

// BenchmarkScenarioSecondSeries prices the telemetry plane on one
// simulated second inside an open measurement window: "off" is the default
// measurement path (per-second core columns, no export — what every run
// pays since the series refactor), "on" adds every extended column group
// (device queues, LLC occupancy, export). Both are forks of one warmed
// scenario, stepped alternately; overhead_pct is the series_overhead_pct
// the plane is held to (<3%). Run it by hand, as perfbench's traced ladder
// carries the production overhead (trace.overhead_pct).
func BenchmarkScenarioSecondSeries(b *testing.B) {
	base := warmedMicroMix(harness.SeriesOpts{})
	off, on := base.Fork(), base.Fork()
	on.Monitor.EnableSeries(harness.SeriesOpts{Devices: true, Occupancy: true, Controller: true, Export: true})
	off.BeginMeasure()
	on.BeginMeasure()
	offOn(b, func() { off.Measure(1) }, func() { on.Measure(1) })
}

// BenchmarkScenarioSecondObs prices the observability plane on one
// simulated second with the full telemetry series enabled: "off" is the
// bare measurement loop, "on" adds everything a traced, streamed, metered
// request pays — a span per second, a latency-histogram observation, and
// the series row hook publishing into a hub's row log that one subscriber
// follows. Both are forks of one warmed scenario, stepped alternately;
// overhead_pct is the obs_overhead_pct the plane is held to (<3%). Run it
// by hand like the series benchmark above.
func BenchmarkScenarioSecondObs(b *testing.B) {
	base := warmedMicroMix(harness.SeriesOpts{Devices: true, Occupancy: true, Controller: true, Export: true})
	off, on := base.Fork(), base.Fork()
	off.BeginMeasure()
	on.BeginMeasure()

	hub := obs.NewSeriesHub()
	log := hub.Open("bench")
	sub, _ := hub.Attach("bench")
	followed := make(chan struct{})
	go func() {
		defer close(followed)
		next := 0
		for {
			_, rows, end, wake := sub.Read(next)
			next += len(rows)
			if end != nil {
				return
			}
			<-wake
		}
	}()
	b.Cleanup(func() { hub.Close("bench", log, nil, ""); <-followed })
	on.Monitor.SetRowHook(log.Publish)

	tr := obs.NewTrace("bench")
	hist := stats.NewHistogram()
	offOn(b, func() { off.Measure(1) }, func() {
		sp := tr.Begin("measure")
		t0 := time.Now()
		on.Measure(1)
		sp.End()
		hist.Observe(time.Since(t0).Microseconds())
	})
}

// --- sweep forking (snapshot/fork warm-state reuse) ---

// sweepForkPoints is the benchmark sweep: divergent X-Mem mask positions
// over one shared prefix, warm-up-dominated (warmup >= measure) as in the
// paper's figure runs.
var sweepForkPoints = []int{0, 2, 4, 6, 8, 9}

const (
	sweepForkWarmup  = 4.0
	sweepForkMeasure = 1.0
)

// buildSweepForkPrefix constructs and starts the shared scenario prefix.
func buildSweepForkPrefix() *harness.Scenario {
	s := harness.NewScenario(harness.DefaultParams())
	d := s.AddDPDK("dpdk-t", []int{0, 1, 2, 3}, true, workload.HPW)
	s.AddXMem("xmem", []int{4, 5}, 4<<20, workload.Sequential, false, workload.HPW)
	s.Start(harness.Default())
	pinWays(s, 1, d.Cores(), 5, 6)
	return s
}

func pinWays(s *harness.Scenario, clos int, cores []int, lo, hi int) {
	if err := s.H.CAT().SetWayRange(clos, lo, hi); err != nil {
		panic(err)
	}
	for _, c := range cores {
		if err := s.H.CAT().Associate(c, clos); err != nil {
			panic(err)
		}
	}
}

// BenchmarkSweepFork compares the two runner strategies on the same sweep,
// serially, so the ratio of the sub-benchmarks' ns/op is the wall-clock
// reduction from warm-state reuse alone (cmd/a4pair's gate records it as
// sweep_fork_speedup and fails it below 1.5x). The fork contract makes both produce identical
// results; see figures.TestPrefixSweepMatchesFresh for the pin.
func BenchmarkSweepFork(b *testing.B) {
	measurePoint := func(s *harness.Scenario, lo int) *harness.Result {
		pinWays(s, 2, []int{4, 5}, lo, lo+1)
		s.BeginMeasure()
		s.Measure(sweepForkMeasure)
		return s.EndMeasure()
	}
	b.Run("fresh", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, lo := range sweepForkPoints {
				s := buildSweepForkPrefix()
				s.Warm(sweepForkWarmup)
				if measurePoint(s, lo) == nil {
					b.Fatal("no result")
				}
			}
		}
		b.ReportMetric(float64(len(sweepForkPoints)), "points")
	})
	b.Run("forked", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := buildSweepForkPrefix()
			s.Warm(sweepForkWarmup)
			for _, lo := range sweepForkPoints {
				if measurePoint(s.Fork(), lo) == nil {
					b.Fatal("no result")
				}
			}
		}
		b.ReportMetric(float64(len(sweepForkPoints)), "points")
	})
}
