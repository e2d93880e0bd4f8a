package figures

import (
	"fmt"

	"a4sim/internal/scenario"
)

// Ablations probe the modeling decisions documented in DESIGN.md §4: the
// migration race split, the imperfect-LRU approximation, NIC burst shaping,
// and the SSD parallelism window. Each reruns a motivation experiment under
// variants of one knob so reviewers can see which reproduced effects depend
// on which assumption. Like the figures, every ablation point is a
// scenario.Spec and runs on the sweep worker pool.

// AblationRegistry maps ablation IDs to generators, mirroring Registry.
var AblationRegistry = map[string]func(Options) *Report{
	"ab-migration": AblationMigrationRace,
	"ab-plru":      AblationVictimRandomness,
	"ab-burst":     AblationBurstShaping,
	"ab-ssdpar":    AblationSSDParallelism,
}

// AblationIDs returns the ablation keys in presentation order.
func AblationIDs() []string {
	return []string{"ab-migration", "ab-plru", "ab-burst", "ab-ssdpar"}
}

// ablationFig3 reruns Fig. 3b's point with X-Mem at each of two positions
// (DPDK-T at way[5:6], X-Mem at way[lo:lo+1]) under each labeled value of
// one knob, which set writes into the params. It emits one X-Mem miss-rate
// series per position.
func ablationFig3(o Options, rep *Report, labels []string, positions [2]int, set func(p *scenario.ParamSpec, i int)) *Report {
	var pts []point
	for i := range labels {
		for _, lo := range positions {
			sp := o.spec(2, 3, dpdk("dpdk-t", true, 5, 6), xmem(defaultXMemKB, lo, lo+1))
			set(&sp.Params, i)
			pts = append(pts, point{start: sp})
		}
	}
	results := run(o, pts, nil)
	for k, lo := range positions {
		s := rep.AddSeries("xmem-miss@" + wayLabel(lo, lo+1))
		for i, lbl := range labels {
			s.Add(lbl, float64(i), results[2*i+k].W("xmem").LLCMissRate)
		}
	}
	return rep
}

// AblationMigrationRace sweeps MigrationStickPct: at 100 every consumed DMA
// line migrates (directory contention only), at 0 every one takes the bloat
// path (DMA bloat only). Fig. 3b needs both, which is why the default is 50.
func AblationMigrationRace(o Options) *Report {
	rep := &Report{
		ID:    "ab-migration",
		Title: "Ablation: migration race split vs. the two §3.1 contentions",
	}
	sticks := []int{0, 50, 100}
	labels := make([]string, len(sticks))
	for i, stick := range sticks {
		labels[i] = fmt.Sprintf("stick=%d%%", stick)
	}
	return ablationFig3(o, rep, labels, [2]int{5, 9}, func(p *scenario.ParamSpec, i int) {
		p.MigrationStickPct = &sticks[i]
	})
}

// AblationVictimRandomness sweeps the QLRU-noise percentage. With perfect
// LRU (0%) the latent contention against DPDK-T collapses because X-Mem's
// hot lines are never collateral victims.
func AblationVictimRandomness(o Options) *Report {
	rep := &Report{
		ID:    "ab-plru",
		Title: "Ablation: imperfect-LRU percentage vs. latent contention",
	}
	pcts := []int{0, 10, 25}
	labels := make([]string, len(pcts))
	for i, pct := range pcts {
		labels[i] = fmt.Sprintf("rand=%d%%", pct)
	}
	return ablationFig3(o, rep, labels, [2]int{0, 3}, func(p *scenario.ParamSpec, i int) {
		p.LLCVictimRandPct = &pcts[i]
	})
}

// AblationBurstShaping compares bursty vs. smooth packet arrivals. Smooth
// arrivals drain rings almost instantly, hiding the queueing latencies the
// paper measures in the hundreds of microseconds.
func AblationBurstShaping(o Options) *Report {
	rep := &Report{
		ID:    "ab-burst",
		Title: "Ablation: NIC burst shaping vs. network latency realism",
	}
	al := rep.AddSeries("net-avg-us")
	tl := rep.AddSeries("net-p99-us")
	bursty := o.spec(2, 3, dpdk("dpdk-t", true, 4, 5))
	smooth := bursty.Clone()
	smooth.Params.SmoothNIC = true
	results := run(o, []point{{start: bursty}, {start: smooth}}, nil)
	for i, label := range []string{"bursty", "smooth"} {
		al.Add(label, float64(i), results[i].W("dpdk-t").AvgLatUs)
		tl.Add(label, float64(i), results[i].W("dpdk-t").P99LatUs)
	}
	return rep
}

// AblationSSDParallelism sweeps the array's internal concurrency window,
// which sets where the DMA-leak onset falls on the block-size axis (Fig. 5).
func AblationSSDParallelism(o Options) *Report {
	rep := &Report{
		ID:    "ab-ssdpar",
		Title: "Ablation: SSD parallelism window vs. DMA-leak onset",
	}
	leak128 := rep.AddSeries("leak-rate@128KB")
	leak512 := rep.AddSeries("leak-rate@512KB")
	pars := []int{8, 64}
	kbs := []int{128, 512}
	// Point order: (par, kb) grid, kb-minor.
	var pts []point
	for i := range pars {
		for _, kb := range kbs {
			sp := o.spec(2, 3, fio(fioLow, kb, 2, 3))
			sp.Params.SSDParallelism = &pars[i]
			pts = append(pts, point{start: sp})
		}
	}
	results := run(o, pts, nil)
	for i, par := range pars {
		lbl := fmt.Sprintf("par=%d", par)
		leak128.Add(lbl, float64(i), results[i*len(kbs)].W("fio").LeakRate)
		leak512.Add(lbl, float64(i), results[i*len(kbs)+1].W("fio").LeakRate)
	}
	return rep
}
