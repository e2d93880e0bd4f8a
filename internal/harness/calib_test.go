package harness

import (
	"testing"

	"a4sim/internal/cache"
	"a4sim/internal/stats"
	"a4sim/internal/workload"
)

// buildFig3 constructs the §3.1 microbenchmark: a DPDK variant at way[5:6]
// and X-Mem (4 MB sequential read, 2 cores) at way[xlo:xlo+1].
func buildFig3(t *testing.T, touch bool, xlo int, dcaOn bool) *Result {
	t.Helper()
	p := DefaultParams()
	p.RateScale = 256
	s := NewScenario(p)
	d := s.AddDPDK("dpdk", []int{0, 1, 2, 3}, touch, workload.HPW)
	x := s.AddXMem("xmem", []int{4, 5}, 4<<20, workload.Sequential, false, workload.HPW)
	s.Start(Default())
	if !dcaOn {
		s.H.PCIe().SetGlobalDCA(false)
	}
	pin(t, s, d.Cores(), 1, 5, 6)
	pin(t, s, x.Cores(), 2, xlo, xlo+1)
	return s.Run(2, 3)
}

func pin(t *testing.T, s *Scenario, cores []int, clos, lo, hi int) {
	t.Helper()
	if err := s.H.CAT().SetMask(clos, cache.MaskRange(lo, hi)); err != nil {
		t.Fatal(err)
	}
	for _, c := range cores {
		if err := s.H.CAT().Associate(c, clos); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCalibFig3Contrasts checks the contention positions of Fig. 3a/3b.
func TestCalibFig3Contrasts(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration runs are slow")
	}
	type pt struct {
		touch bool
		xlo   int
	}
	cases := []pt{
		{false, 0}, {false, 3}, {false, 5}, {false, 9},
		{true, 0}, {true, 3}, {true, 5}, {true, 9},
	}
	miss := map[pt]float64{}
	for _, c := range cases {
		r := buildFig3(t, c.touch, c.xlo, true)
		miss[c] = r.W("xmem").LLCMissRate
		t.Logf("touch=%v xmem@[%d:%d]: xmemMiss=%.3f dpdkLat=%.1fus dpdkTput=%.0f memRd=%.1f",
			c.touch, c.xlo, c.xlo+1, miss[c], r.W("dpdk").AvgLatUs, r.W("dpdk").ProgressRate, r.MemReadGBps)
	}
	// Fig 3a (DPDK-NT): only the DCA overlap position contends.
	if !(miss[pt{false, 0}] > miss[pt{false, 3}]+0.1) {
		t.Errorf("latent contention missing: NT@[0:1]=%.3f vs [3:4]=%.3f", miss[pt{false, 0}], miss[pt{false, 3}])
	}
	if miss[pt{false, 9}] > miss[pt{false, 3}]+0.1 {
		t.Errorf("unexpected directory contention with DPDK-NT: [9:10]=%.3f vs [3:4]=%.3f", miss[pt{false, 9}], miss[pt{false, 3}])
	}
	// Fig 3b (DPDK-T): DCA overlap, bloat overlap, and inclusive ways all
	// contend. The latent effect is weaker than with DPDK-NT because
	// consumption continuously frees DCA slots.
	if !(miss[pt{true, 0}] > miss[pt{true, 3}]+0.05) {
		t.Errorf("latent contention missing with DPDK-T")
	}
	if !(miss[pt{true, 5}] > miss[pt{true, 3}]+0.1) {
		t.Errorf("DMA bloat contention missing: T@[5:6]=%.3f vs [3:4]=%.3f", miss[pt{true, 5}], miss[pt{true, 3}])
	}
	if !(miss[pt{true, 9}] > miss[pt{true, 3}]+0.1) {
		t.Errorf("directory contention missing: T@[9:10]=%.3f vs [3:4]=%.3f", miss[pt{true, 9}], miss[pt{true, 3}])
	}
}

// TestCalibFig4DCAOff checks that disabling DCA removes the directory
// contention but raises DPDK-T latency.
func TestCalibFig4DCAOff(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration runs are slow")
	}
	on := buildFig3(t, true, 9, true)
	off := buildFig3(t, true, 9, false)
	t.Logf("DCA on : xmemMiss=%.3f dpdkLat=%.1f/%.1fus tput=%.0f", on.W("xmem").LLCMissRate, on.W("dpdk").AvgLatUs, on.W("dpdk").P99LatUs, on.W("dpdk").ProgressRate)
	t.Logf("DCA off: xmemMiss=%.3f dpdkLat=%.1f/%.1fus tput=%.0f", off.W("xmem").LLCMissRate, off.W("dpdk").AvgLatUs, off.W("dpdk").P99LatUs, off.W("dpdk").ProgressRate)
	if !(off.W("xmem").LLCMissRate < on.W("xmem").LLCMissRate-0.1) {
		t.Errorf("DCA off should remove directory contention")
	}
	if !(off.W("dpdk").P99LatUs > on.W("dpdk").P99LatUs) {
		t.Errorf("DCA off should raise DPDK-T tail latency")
	}
}

// TestCalibFig5Storage checks the storage characteristics: throughput is
// DCA-insensitive at large blocks and memory reads stay high despite DCA
// (DMA leak).
func TestCalibFig5Storage(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration runs are slow")
	}
	run := func(blockKB int, dcaOn bool) *Result {
		p := DefaultParams()
		p.RateScale = 256
		s := NewScenario(p)
		f := s.AddFIO("fio", []int{0, 1, 2, 3}, blockKB<<10, 32, workload.LPW)
		s.Start(Default())
		if !dcaOn {
			s.H.PCIe().SetGlobalDCA(false)
		}
		pin(t, s, f.Cores(), 1, 2, 3)
		return s.Run(2, 3)
	}
	for _, kb := range []int{4, 32, 128, 512, 2048} {
		on := run(kb, true)
		off := run(kb, false)
		t.Logf("block=%4dKB: TP on=%.2f off=%.2f GB/s, memRd on=%.2f off=%.2f, leakRate=%.2f dcaMiss=%.2f",
			kb, on.W("fio").IOReadGBps, off.W("fio").IOReadGBps,
			on.MemReadGBps, off.MemReadGBps, on.W("fio").LeakRate, on.W("fio").DCAMissRate)
	}
	on := run(512, true)
	off := run(512, false)
	if stats.Fluctuation(on.W("fio").IOReadGBps, off.W("fio").IOReadGBps) > 0.15 {
		t.Errorf("storage throughput should be DCA-insensitive at large blocks: on=%.2f off=%.2f",
			on.W("fio").IOReadGBps, off.W("fio").IOReadGBps)
	}
	if on.MemReadGBps < 0.3*on.W("fio").IOReadGBps {
		t.Errorf("DMA leak should keep memory reads high with DCA on: memRd=%.2f tp=%.2f",
			on.MemReadGBps, on.W("fio").IOReadGBps)
	}
}

// TestCalibFig6Contention checks that FIO co-running raises DPDK-T latency,
// peaking at intermediate block sizes.
func TestCalibFig6Contention(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration runs are slow")
	}
	run := func(blockKB int) *Result {
		p := DefaultParams()
		p.RateScale = 256
		s := NewScenario(p)
		d := s.AddDPDK("dpdk", []int{0, 1, 2, 3}, true, workload.HPW)
		f := s.AddFIO("fio", []int{4, 5, 6, 7}, blockKB<<10, 32, workload.LPW)
		s.Start(Default())
		pin(t, s, f.Cores(), 1, 2, 3)
		pin(t, s, d.Cores(), 2, 4, 5)
		return s.Run(2, 3)
	}
	solo := buildFig3(t, true, 9, true) // approx solo reference
	t.Logf("solo-ish: lat=%.1fus", solo.W("dpdk").AvgLatUs)
	for _, kb := range []int{16, 64, 128, 512, 2048} {
		r := run(kb)
		t.Logf("block=%4dKB: dpdkLat=%.1f/%.1fus tput=%.0f fioTP=%.2f memRd=%.1f",
			kb, r.W("dpdk").AvgLatUs, r.W("dpdk").P99LatUs, r.W("dpdk").ProgressRate, r.W("fio").IOReadGBps, r.MemReadGBps)
	}
}
