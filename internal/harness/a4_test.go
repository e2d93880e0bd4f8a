package harness

import (
	"testing"

	"a4sim/internal/core"
	"a4sim/internal/stats"
	"a4sim/internal/workload"
)

// buildMix builds the §7.1 microbenchmark mix: DPDK-T (HPW) + FIO 2 MB
// blocks (LPW) + a cache-sensitive X-Mem (HPW).
func buildMix(mgr ManagerSpec) (*Scenario, *Result) {
	p := DefaultParams()
	p.RateScale = 256
	s := NewScenario(p)
	s.AddDPDK("dpdk-t", []int{0, 1, 2, 3}, true, workload.HPW)
	s.AddFIO("fio", []int{4, 5, 6, 7}, 128<<10, 32, workload.LPW)
	s.AddXMem("xmem1", []int{8, 9}, 4<<20, workload.Sequential, false, workload.HPW)
	s.Start(mgr)
	res := s.Run(14, 4)
	return s, res
}

// TestA4EndToEnd verifies that the full A4-d controller improves the HPWs
// over the Default model: it should reserve the DCA ways, keep LPWs off the
// inclusive ways, detect FIO's DMA leak, disable the SSD's DCA, and squeeze
// it onto trash ways.
func TestA4EndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end runs are slow")
	}
	_, def := buildMix(Default())
	sa4, a4 := buildMix(A4(core.VariantD))

	for _, ev := range sa4.Controller.Events {
		t.Log("a4:", ev)
	}
	t.Logf("default: dpdkLat=%.1f/%.1fus xmemHit=%.3f fioTP=%.2f",
		def.W("dpdk-t").AvgLatUs, def.W("dpdk-t").P99LatUs, def.W("xmem1").LLCHitRate, def.W("fio").IOReadGBps)
	t.Logf("a4-d   : dpdkLat=%.1f/%.1fus xmemHit=%.3f fioTP=%.2f",
		a4.W("dpdk-t").AvgLatUs, a4.W("dpdk-t").P99LatUs, a4.W("xmem1").LLCHitRate, a4.W("fio").IOReadGBps)

	if !sa4.Controller.IsDemoted(sa4.Workloads[1].ID()) {
		t.Errorf("A4 should demote FIO (storage antagonist)")
	}
	if sa4.H.PCIe().DCAActive(SSDPort) {
		t.Errorf("A4 should have disabled DCA for the SSD port")
	}
	if sa4.H.PCIe().DCAActive(NICPort) != true {
		t.Errorf("NIC DCA must stay enabled")
	}
	if !(a4.W("dpdk-t").AvgLatUs < def.W("dpdk-t").AvgLatUs*0.9) {
		t.Errorf("A4 should reduce DPDK-T latency: a4=%.1f default=%.1f",
			a4.W("dpdk-t").AvgLatUs, def.W("dpdk-t").AvgLatUs)
	}
	if stats.Fluctuation(a4.W("fio").IOReadGBps, def.W("fio").IOReadGBps) > 0.2 {
		t.Errorf("A4 should not hurt FIO throughput much: a4=%.2f default=%.2f",
			a4.W("fio").IOReadGBps, def.W("fio").IOReadGBps)
	}
}
