package figures

import (
	"fmt"
	"math"

	"a4sim/internal/harness"
	"a4sim/internal/scenario"
	"a4sim/internal/workload"
)

// evalSchemes returns the manager set of §7: Default, Isolate, and the
// cumulative A4 variants. Quick mode keeps the endpoints only.
func evalSchemes(quick bool) []string {
	if quick {
		return []string{"default", "isolate", "a4-d"}
	}
	return []string{"default", "isolate", "a4-a", "a4-b", "a4-c", "a4-d"}
}

// microEval is the §7.1 scenario: DPDK-T (HPW) + FIO (LPW) + the three
// X-Mem instances of Table 3. Figures set FIO's block size (workload 1).
var microEval = []scenario.WorkloadSpec{
	dpdk("dpdk-t", true),
	fio(fioHigh, 0),
	{Kind: "xmem", Name: "xmem1", Cores: []int{8, 9}, Priority: "hpw", WSKB: 4 << 10, Pattern: "sequential"},
	{Kind: "xmem", Name: "xmem2", Cores: []int{10, 11}, Priority: "lpw", WSKB: 4 << 10, Pattern: "sequential", Write: true},
	{Kind: "xmem", Name: "xmem3", Cores: []int{12, 13}, Priority: "lpw", WSKB: 10 << 10, Pattern: "random"},
}

// microEvalPoint is the §7.1 scenario under manager with the given packet
// and storage block sizes.
func microEvalPoint(o Options, manager string, pkt, blockKB int) point {
	sp := o.spec(18, 4, microEval...)
	sp.Manager = manager
	sp.Params.PacketBytes = pkt
	sp.Workloads[1].BlockKB = blockKB
	return point{start: sp}
}

// Fig11 reproduces Fig. 11: X-Mem IPC (normalized to the Default model at
// the smallest packet size) and LLC hit rates across network packet sizes,
// under Default, Isolate, and A4 (storage block size 2 MB).
func Fig11(o Options) *Report {
	rep := &Report{
		ID:    "11",
		Title: "X-Mem IPC and LLC hit rate vs. packet size (Default / Isolate / A4)",
	}
	pkts := []int{64, 128, 256, 512, 1024, 1514}
	if o.Quick {
		pkts = []int{64, 1024}
	}
	schemes := evalSchemes(true) // Fig. 11 compares Default, Isolate, A4 only
	// Point order: scheme-major, packet-minor.
	var pts []point
	for _, mgr := range schemes {
		for _, pkt := range pkts {
			pts = append(pts, microEvalPoint(o, mgr, pkt, 2048))
		}
	}
	results := run(o, pts, nil)
	xmems := []string{"xmem1", "xmem2", "xmem3"}
	for si, mgr := range schemes {
		for _, wl := range xmems {
			ns := rep.AddSeries(fmt.Sprintf("perf-%s-%s", wl, mgr))
			hs := rep.AddSeries(fmt.Sprintf("llchit-%s-%s", wl, mgr))
			// Normalize IPC to Default at the smallest packet size.
			base := results[0].W(wl).IPC
			for pi, pkt := range pkts {
				res := results[si*len(pkts)+pi].W(wl)
				v := res.IPC
				if base > 0 {
					v /= base
				}
				lbl := fmt.Sprintf("%dB", pkt)
				ns.Add(lbl, float64(pkt), v)
				hs.Add(lbl, float64(pkt), res.LLCHitRate)
			}
		}
	}
	return rep
}

// Fig12 reproduces Fig. 12: network tail latency and read throughput vs.
// storage block size under Default, Isolate, and A4 (packet size 1514 B).
func Fig12(o Options) *Report {
	rep := &Report{
		ID:    "12",
		Title: "Network latency/throughput vs. storage block size (Default / Isolate / A4)",
	}
	blocks := []int{4, 16, 64, 128, 512, 2048}
	if o.Quick {
		blocks = []int{16, 128, 2048}
	}
	schemes := evalSchemes(true)
	var pts []point
	for _, mgr := range schemes {
		for _, kb := range blocks {
			pts = append(pts, microEvalPoint(o, mgr, 1514, kb))
		}
	}
	results := run(o, pts, nil)
	for si, mgr := range schemes {
		tl := rep.AddSeries("net-p99-us-" + mgr)
		tp := rep.AddSeries("net-read-GBps-" + mgr)
		for bi, kb := range blocks {
			res := results[si*len(blocks)+bi]
			lbl := kbLabel(kb)
			tl.Add(lbl, float64(kb), res.W("dpdk-t").P99LatUs)
			tp.Add(lbl, float64(kb), res.PortInGBps["nic0"])
		}
	}
	return rep
}

// qosNames lists a mix's workload names by QoS class, each in spec order:
// the order of the §7.2 bars.
func qosNames(sp *scenario.Spec) (hpws, lpws []string) {
	n := sp.Clone()
	if err := n.Normalize(); err != nil {
		panic(err)
	}
	add := func(name, prio string) {
		if prio == "hpw" {
			hpws = append(hpws, name)
		} else {
			lpws = append(lpws, name)
		}
	}
	for _, w := range n.Workloads {
		if w.Kind == "redis" {
			add("redis-s", w.Priority)
			add("redis-c", w.ClientPriority)
			continue
		}
		add(w.Name, w.Priority)
	}
	return hpws, lpws
}

// perfMetric extracts the §7.2 performance metric: throughput (inverse of
// latency per request) for multi-threaded network I/O, bytes/s for storage,
// and progress (instruction) rate for compute workloads.
func perfMetric(wr *harness.WorkloadResult) float64 {
	if wr.Class == workload.ClassNetwork && wr.AvgLatUs > 0 {
		return 1e6 / wr.AvgLatUs
	}
	return wr.ProgressRate
}

// relative returns each named workload's §7.2 performance relative to the
// baseline run (1 where the baseline made no progress).
func relative(names []string, res, base *harness.Result) []float64 {
	out := make([]float64, len(names))
	for j, wl := range names {
		out[j] = 1
		if b := perfMetric(base.W(wl)); b > 0 {
			out[j] = perfMetric(res.W(wl)) / b
		}
	}
	return out
}

// geomean returns the geometric mean of vs, ignoring non-positive entries.
func geomean(vs []float64) float64 {
	var sum float64
	n := 0
	for _, v := range vs {
		if v > 0 {
			sum += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// fig13 runs one real-world mix across all schemes; the Default scheme at
// index 0 provides the normalization baseline.
func fig13(o Options, mix, id string) *Report {
	rep := &Report{
		ID:    id,
		Title: fmt.Sprintf("Real-world co-location (%s): relative performance vs. Default", mix),
	}
	base := o.mix(mix, 20, 5)
	hpws, lpws := qosNames(base)
	all := append(append([]string{}, hpws...), lpws...)

	schemes := evalSchemes(false) // the variant progression is the figure's point
	pts := make([]point, len(schemes))
	for i, mgr := range schemes {
		pts[i] = point{start: withManager(base, mgr)}
	}
	// Only the a4-d point touches notes, so the pool needs no lock.
	var notes []string
	results := run(o, pts, func(i int, s *harness.Scenario) {
		if schemes[i] != "a4-d" {
			return
		}
		if o.Verbose {
			notes = append(notes, s.Controller.Events...)
		}
		var ants []string
		for _, w := range s.Workloads {
			if s.Controller.IsAntagonist(w.ID()) {
				ants = append(ants, w.Name())
			}
		}
		notes = append(notes, fmt.Sprintf("a4-d antagonists: %v", ants))
	})
	for i, mgr := range schemes {
		ps := rep.AddSeries("perf-" + mgr)
		rel := relative(all, results[i], results[0])
		for j, wl := range all {
			ps.Add(wl, float64(j), rel[j])
		}
		ps.Add("Avg(HP)", float64(len(all)), geomean(rel[:len(hpws)]))
		ps.Add("Avg(LP)", float64(len(all)+1), geomean(rel[len(hpws):]))
		ps.Add("Avg(all)", float64(len(all)+2), geomean(rel))
		if mgr == "a4-d" {
			hs := rep.AddSeries("llchit-" + mgr)
			for j, wl := range all {
				hs.Add(wl, float64(j), results[i].W(wl).LLCHitRate)
			}
		}
	}
	rep.Notes = notes
	return rep
}

// Fig13a reproduces Fig. 13a (HPW-heavy scenario: 7 HPWs + 4 LPWs).
func Fig13a(o Options) *Report { return fig13(o, "hpw-heavy", "13a") }

// Fig13b reproduces Fig. 13b (LPW-heavy scenario: 4 HPWs + 8 LPWs).
func Fig13b(o Options) *Report { return fig13(o, "lpw-heavy", "13b") }

// Fig14 reproduces Fig. 14: latency breakdowns and system-wide throughput
// and memory bandwidth for the HPW-heavy scenario across schemes.
func Fig14(o Options) *Report {
	rep := &Report{
		ID:    "14",
		Title: "I/O latency breakdown and system-wide metrics (HPW-heavy)",
	}
	netWait := rep.AddSeries("fastclick-wait-us")
	netDesc := rep.AddSeries("fastclick-ptr-us")
	netProc := rep.AddSeries("fastclick-proc-us")
	stRead := rep.AddSeries("ffsbh-read-ms")
	stProc := rep.AddSeries("ffsbh-regex-ms")
	ioIn := rep.AddSeries("io-read-GBps")
	ioOut := rep.AddSeries("io-write-GBps")
	memRd := rep.AddSeries("mem-read-GBps")
	memWr := rep.AddSeries("mem-write-GBps")

	base := o.mix("hpw-heavy", 20, 5)
	schemes := evalSchemes(false)
	pts := make([]point, len(schemes))
	for i, mgr := range schemes {
		pts[i] = point{start: withManager(base, mgr)}
	}
	for i, res := range run(o, pts, nil) {
		lbl := schemes[i]
		x := float64(i)
		fc := res.W("fastclick")
		netWait.Add(lbl, x, fc.WaitUs)
		netDesc.Add(lbl, x, fc.DescUs)
		netProc.Add(lbl, x, fc.ProcUs)
		fh := res.W("ffsb-h")
		stRead.Add(lbl, x, fh.ReadLatMs)
		stProc.Add(lbl, x, fh.ProcLatMs)
		var in, out float64
		for _, v := range res.PortInGBps {
			in += v
		}
		for _, v := range res.PortOutGBps {
			out += v
		}
		ioIn.Add(lbl, x, in)
		ioOut.Add(lbl, x, out)
		memRd.Add(lbl, x, res.MemReadGBps)
		memWr.Add(lbl, x, res.MemWriteGBps)
	}
	return rep
}

// a4Point labels one A4 controller configuration of a Fig. 15 sweep.
type a4Point struct {
	label string
	a4    scenario.A4Spec
}

// fig15Sweep runs the HPW-heavy mix under the Default baseline plus a4-d
// with each configuration, and emits the three geomean series.
func fig15Sweep(o Options, rep *Report, defWarm, defMeas float64, cfgs []a4Point) *Report {
	hpS := rep.AddSeries("avg-hp")
	lpS := rep.AddSeries("avg-lp")
	allS := rep.AddSeries("avg-all")
	base := o.mix("hpw-heavy", defWarm, defMeas)
	hpws, lpws := qosNames(base)
	all := append(append([]string{}, hpws...), lpws...)
	// Point 0 is the Default-model baseline; points 1.. are the A4 configs.
	pts := []point{{start: base}}
	for _, c := range cfgs {
		sp := withManager(base, "a4-d")
		sp.A4 = &c.a4
		pts = append(pts, point{start: sp})
	}
	results := run(o, pts, nil)
	for i, c := range cfgs {
		rel := relative(all, results[i+1], results[0])
		hpS.Add(c.label, float64(i), geomean(rel[:len(hpws)]))
		lpS.Add(c.label, float64(i), geomean(rel[len(hpws):]))
		allS.Add(c.label, float64(i), geomean(rel))
	}
	return rep
}

// Fig15a reproduces Fig. 15a: sensitivity to the partitioning thresholds
// T1 (HPW LLC hit) and T5 (antagonist miss).
func Fig15a(o Options) *Report {
	pts := []a4Point{
		{"T5=95", scenario.A4Spec{T1: 0.20, T5: 0.95}}, {"T5=90", scenario.A4Spec{T1: 0.20, T5: 0.90}},
		{"T5=80", scenario.A4Spec{T1: 0.20, T5: 0.80}}, {"T1=30", scenario.A4Spec{T1: 0.30, T5: 0.90}},
		{"T1=20", scenario.A4Spec{T1: 0.20, T5: 0.90}}, {"T1=10", scenario.A4Spec{T1: 0.10, T5: 0.90}},
	}
	if o.Quick {
		pts = []a4Point{pts[1], pts[3]}
	}
	return fig15Sweep(o, &Report{ID: "15a", Title: "Sensitivity: partitioning thresholds T1 and T5"}, 20, 5, pts)
}

// Fig15b reproduces Fig. 15b: sensitivity to the DMA-leak detection
// thresholds T2 (DCA miss), T3 (I/O share), T4 (LLC miss). Raising any of
// them past the workload's operating point stops FFSB-H from being detected.
func Fig15b(o Options) *Report {
	// FFSB-H operates at DCA miss ≈ 1.0 and LLC miss ≈ 1.0 with a large
	// share of inbound PCIe traffic; each non-default row raises exactly one
	// threshold past that operating point so detection ceases — the
	// "critical thresholds" the paper marks in red.
	pts := []a4Point{
		{"40/35/40", scenario.A4Spec{T2: 0.40, T3: 0.35, T4: 0.40}}, // defaults (bold in the paper)
		{"T2-off", scenario.A4Spec{T2: 1.01, T3: 0.35, T4: 0.40}},
		{"T3-off", scenario.A4Spec{T2: 0.40, T3: 0.99, T4: 0.40}},
		{"T4-off", scenario.A4Spec{T2: 0.40, T3: 0.35, T4: 1.01}},
	}
	if o.Quick {
		pts = pts[:2]
	}
	return fig15Sweep(o, &Report{ID: "15b", Title: "Sensitivity: antagonist detection thresholds T2-T4"}, 20, 5, pts)
}

// Fig15c reproduces Fig. 15c: sensitivity to the stable interval before
// revert probes, including the oracle (no reverts).
func Fig15c(o Options) *Report {
	pts := []a4Point{
		{"1s", scenario.A4Spec{StableSec: 1}}, {"5s", scenario.A4Spec{StableSec: 5}},
		{"10s", scenario.A4Spec{StableSec: 10}}, {"20s", scenario.A4Spec{StableSec: 20}},
		{"oracle", scenario.A4Spec{Oracle: true}},
	}
	if o.Quick {
		pts = []a4Point{pts[0], pts[2], pts[4]}
	}
	return fig15Sweep(o, &Report{ID: "15c", Title: "Sensitivity: stable interval vs. oracle"}, 20, 10, pts)
}
