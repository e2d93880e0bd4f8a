package harness

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"a4sim/internal/core"
	"a4sim/internal/sim"
	"a4sim/internal/workload"
)

// forkTestParams keeps the fork tests fast: the full Skylake geometry (so
// every layer's state is exercised) at a high rate scale.
func forkTestParams() Params {
	p := DefaultParams()
	p.RateScale = 4096
	return p
}

// buildForkScenario wires a scenario touching every forkable component and
// every recorded construction entry point: NIC + DPDK and Fastclick, SSD +
// FIO and FFSB, X-Mem, a SPEC proxy, the Redis pair, a shared-WS
// synthetic, and the monitor's extended series columns.
func buildForkScenario(t testing.TB) *Scenario {
	t.Helper()
	s := NewScenario(forkTestParams())
	s.AddDPDK("dpdk-t", []int{0, 1}, true, workload.HPW)
	s.AddFIO("fio", []int{4, 5, 6, 7}, 128<<10, 16, workload.LPW)
	s.AddXMem("xmem", []int{8, 9}, 4<<20, workload.Sequential, false, workload.HPW)
	s.AddSynthetic(workload.SyntheticConfig{
		Name: "shared", Cores: []int{10, 11}, WSBytes: 2 << 20,
		Pattern: workload.Zipf, Skew: 0.8, WriteFrac: 0.3, InstrPerOp: 8, SharedWS: true,
	}, workload.LPW)
	s.AddFastclick([]int{2, 3}, workload.HPW)
	s.AddFFSB("ffsb-h", true, []int{12}, workload.LPW)
	s.AddSPEC("blender", 13, workload.LPW)
	s.AddRedisPair(14, 15, workload.HPW, workload.LPW)
	s.Monitor.EnableSeries(SeriesOpts{Devices: true, Occupancy: true, Controller: true, Export: true})
	return s
}

// runFresh executes the scenario uninterrupted.
func runFresh(t testing.TB, mgr ManagerSpec, warm, meas float64) *Result {
	s := buildForkScenario(t)
	s.Start(mgr)
	return s.Run(warm, meas)
}

// TestForkContinuationMatchesFresh is the tentpole property at the harness
// level: forking at any second boundary — during warm-up or inside the
// measurement window — and finishing the run on the fork yields a result
// identical to an uninterrupted fresh run, and the abandoned original is
// not disturbed by its forks running.
func TestForkContinuationMatchesFresh(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second scenario runs are slow")
	}
	const warm, meas = 2, 2
	for _, mgr := range []ManagerSpec{Default(), Isolate(), A4(core.VariantD)} {
		mgr := mgr
		t.Run(mgr.Name(), func(t *testing.T) {
			want := runFresh(t, mgr, warm, meas)
			for k := 1; k < warm+meas; k++ {
				s := buildForkScenario(t)
				s.Start(mgr)
				var f *Scenario
				if k <= warm {
					s.Warm(float64(k))
					f = s.Fork()
					f.Warm(float64(warm - k))
					f.BeginMeasure()
					f.Measure(meas)
				} else {
					s.Warm(warm)
					s.BeginMeasure()
					s.Measure(float64(k - warm))
					f = s.Fork()
					f.Measure(float64(warm + meas - k))
				}
				got := f.EndMeasure()
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("fork at t=%ds diverged from fresh run\nfresh: %+v\nfork:  %+v", k, want, got)
				}
			}
		})
	}
}

// TestForkedSiblingsAreIndependent forks one warmed prefix twice and runs
// the siblings with divergent knobs: each sibling must match the fresh run
// of its own configuration, proving the forks share no mutable state.
func TestForkedSiblingsAreIndependent(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second scenario runs are slow")
	}
	base := buildForkScenario(t)
	base.Start(Default())
	base.Warm(2)
	snap := base.Snapshot()

	measure := func(s *Scenario, dca bool) *Result {
		s.H.PCIe().SetPortDCA(SSDPort, dca)
		s.BeginMeasure()
		s.Measure(2)
		return s.EndMeasure()
	}
	gotOn := measure(snap.Fork(), true)
	gotOff := measure(snap.Fork(), false)

	freshRun := func(dca bool) *Result {
		s := buildForkScenario(t)
		s.Start(Default())
		s.Warm(2)
		return measure(s, dca)
	}
	if want := freshRun(true); !reflect.DeepEqual(want, gotOn) {
		t.Errorf("DCA-on sibling diverged from fresh run")
	}
	if want := freshRun(false); !reflect.DeepEqual(want, gotOff) {
		t.Errorf("DCA-off sibling diverged from fresh run")
	}
	// The two siblings must actually have diverged from each other.
	if reflect.DeepEqual(gotOn, gotOff) {
		t.Errorf("DCA on/off siblings produced identical results; divergence knob had no effect")
	}
}

// TestSnapshotRejectsForeignObserver pins the loud failure for scenarios
// carrying engine hooks the harness did not register (a CLI's streaming
// sim.FuncObserver, a hand-added actor): a replayed skeleton would drop
// them silently, so Snapshot and Fork panic instead.
func TestSnapshotRejectsForeignObserver(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected a panic", name)
			}
		}()
		fn()
	}
	s := NewScenario(forkTestParams())
	s.AddXMem("xmem", []int{0}, 1<<20, workload.Sequential, false, workload.HPW)
	s.Start(Default())
	s.Engine.AddObserver(sim.FuncObserver(func(sim.Tick) {}))
	mustPanic("foreign observer snapshot", func() { s.Snapshot() })
	mustPanic("foreign observer fork", func() { s.Fork() })

	a := NewScenario(forkTestParams())
	a.AddXMem("xmem", []int{0}, 1<<20, workload.Sequential, false, workload.HPW)
	a.Engine.AddActor(a.Workloads[0])
	a.Start(Default())
	mustPanic("twice-registered actor snapshot", func() { a.Snapshot() })
}

// TestConcurrentSnapshotsAndForks takes snapshots of one scenario and forks
// one snapshot from several goroutines at once: encoding shares the
// package's buffer free list and forks share the snapshot's bytes, so
// every capture must still be identical and every fork must re-encode to
// the same state.
func TestConcurrentSnapshotsAndForks(t *testing.T) {
	s := NewScenario(forkTestParams())
	s.AddXMem("xmem", []int{0, 1}, 1<<20, workload.Random, true, workload.HPW)
	s.Start(Default())
	s.Warm(1)
	want, _ := s.Snapshot().Encode()
	snap := s.Snapshot()

	const n = 6
	got := make([][]byte, 2*n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			got[i], _ = s.Snapshot().Encode()
		}(i)
		go func(i int) {
			defer wg.Done()
			got[n+i], _ = snap.Fork().Snapshot().Encode()
		}(i)
	}
	wg.Wait()
	for i, g := range got {
		if !bytes.Equal(g, want) {
			t.Errorf("concurrent capture %d differs from the serial one", i)
		}
	}
}
