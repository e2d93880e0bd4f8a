package harness

import (
	"testing"

	"a4sim/internal/cache"
	"a4sim/internal/workload"
)

// TestSmokeFig3Point reproduces one point of Fig. 3b manually: DPDK-T at
// way[5:6], X-Mem at way[9:10] (the directory-contention position), and
// checks that the basic plumbing produces sane metrics.
func TestSmokeFig3Point(t *testing.T) {
	p := DefaultParams()
	p.RateScale = 256
	s := NewScenario(p)
	dpdk := s.AddDPDK("dpdk-t", []int{0, 1, 2, 3}, true, workload.HPW)
	xmem := s.AddXMem("xmem", []int{4, 5}, 4<<20, workload.Sequential, false, workload.HPW)
	s.Start(Default())
	// Manual CAT, as in §3.1.
	must(t, s.H.CAT().SetMask(1, cache.MaskRange(5, 6)))
	for _, c := range dpdk.Cores() {
		must(t, s.H.CAT().Associate(c, 1))
	}
	must(t, s.H.CAT().SetMask(2, cache.MaskRange(9, 10)))
	for _, c := range xmem.Cores() {
		must(t, s.H.CAT().Associate(c, 2))
	}
	res := s.Run(2, 3)
	xr := res.W("xmem")
	dr := res.W("dpdk-t")
	t.Logf("xmem: llcMiss=%.3f mlcMiss=%.3f ipc=%.3f", xr.LLCMissRate, xr.MLCMissRate, xr.IPC)
	t.Logf("dpdk: miss=%.3f avgLat=%.1fus p99=%.1fus tput=%.0f pkt/s leak=%d",
		dr.LLCMissRate, dr.AvgLatUs, dr.P99LatUs, dr.ProgressRate, dr.DMALeaks)
	t.Logf("mem rd=%.2f wr=%.2f GB/s, nic in=%.2f GB/s", res.MemReadGBps, res.MemWriteGBps, res.Port("nic0").InGBps)
	if xr.LLCMissRate <= 0.05 {
		t.Errorf("expected directory contention to raise X-Mem miss rate at way[9:10], got %.3f", xr.LLCMissRate)
	}
	if dr.ProgressRate <= 0 {
		t.Errorf("DPDK made no progress")
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
