// Waysweep: reproduce the paper's §3.1 discovery experiment interactively.
// It slides a cache-sensitive workload's two CAT ways across the LLC while
// a DPDK-style packet processor holds way[5:6], revealing the three
// contention regions: DCA ways (latent contention), the DPDK ways (DMA
// bloat), and the inclusive ways (hidden directory contention). Each point
// is a declarative spec whose per-workload "ways" program CAT at start,
// the way intel-cmt-cat does on the real box.
//
// Run with:
//
//	go run ./examples/waysweep
package main

import (
	"fmt"

	"a4sim/internal/scenario"
)

func sweepPoint(lo int, touch bool) float64 {
	sp := &scenario.Spec{
		Name:    "waysweep",
		Manager: "default",
		Workloads: []scenario.WorkloadSpec{
			{Kind: "dpdk", Name: "dpdk", Cores: []int{0, 1, 2, 3}, Priority: "hpw", Touch: touch, Ways: []int{5, 6}},
			{Kind: "xmem", Name: "xmem", Cores: []int{4, 5}, Priority: "hpw", WSKB: 4 << 10, Pattern: "sequential", Ways: []int{lo, lo + 1}},
		},
		WarmupSec:  2,
		MeasureSec: 3,
	}
	rep, err := sp.Run()
	if err != nil {
		panic(err)
	}
	return rep.W("xmem").LLCMissRate
}

func main() {
	fmt.Println("X-Mem LLC miss rate by way position (DPDK at way[5:6]):")
	fmt.Println("ways      DPDK-NT   DPDK-T   region")
	regions := map[int]string{
		0: "DCA ways (latent contention)",
		5: "DPDK's ways (DMA bloat)",
		9: "inclusive ways (directory contention)",
	}
	for lo := 0; lo <= 9; lo++ {
		nt := sweepPoint(lo, false)
		tt := sweepPoint(lo, true)
		tag := regions[lo]
		fmt.Printf("[%d:%d]  %8.3f %8.3f   %s\n", lo, lo+1, nt, tt, tag)
	}
	fmt.Println("\nThe [9:10] column shows the paper's hidden directory contention:")
	fmt.Println("it appears only when the network workload touches its packets.")
}
