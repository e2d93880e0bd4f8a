package figures

import (
	"fmt"

	"a4sim/internal/scenario"
)

// fig3Sweep runs the §3.1 way sweep: DPDK (touch or not) pinned to way[5:6]
// while X-Mem's two ways slide from [0:1] to [9:10]. All points start from
// one spec, with only the DPDK pin, and program X-Mem's mask at the
// measurement boundary, the way the paper's scripts program masks on a
// live system.
func fig3Sweep(o Options, touch bool) *Report {
	id, name := "3a", "DPDK-NT"
	if touch {
		id, name = "3b", "DPDK-T"
	}
	rep := &Report{
		ID:    id,
		Title: fmt.Sprintf("Contention between %s (way[5:6]) and X-Mem at way[m:n]", name),
	}
	xm := rep.AddSeries("xmem-llc-miss")
	dm := rep.AddSeries("dpdk-llc-miss")
	mr := rep.AddSeries("mem-read-GBps")
	mw := rep.AddSeries("mem-write-GBps")

	positions := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	if o.Quick {
		positions = []int{0, 3, 5, 9}
	}
	start := o.spec(2, 3, dpdk(name, touch, 5, 6), xmem(defaultXMemKB))
	pts := make([]point, len(positions))
	for i, lo := range positions {
		pts[i] = point{start, withWays(start, 1, lo, lo+1)}
	}
	for i, res := range run(o, pts, nil) {
		lo := positions[i]
		lbl := wayLabel(lo, lo+1)
		xpos := float64(lo)
		xm.Add(lbl, xpos, res.W("xmem").LLCMissRate)
		dm.Add(lbl, xpos, res.W(name).LLCMissRate)
		mr.Add(lbl, xpos, res.MemReadGBps)
		mw.Add(lbl, xpos, res.MemWriteGBps)
	}
	return rep
}

// Fig3a reproduces Fig. 3a: DPDK-NT (no touch) vs. X-Mem.
func Fig3a(o Options) *Report { return fig3Sweep(o, false) }

// Fig3b reproduces Fig. 3b: DPDK-T (touch) vs. X-Mem.
func Fig3b(o Options) *Report { return fig3Sweep(o, true) }

// Fig4 reproduces Fig. 4: validating the directory contention by toggling
// DCA, with X-Mem at selected way groups and DPDK-T tail latency.
func Fig4(o Options) *Report {
	rep := &Report{
		ID:    "4",
		Title: "Directory-contention validation: DCA on vs. off",
	}
	xm := rep.AddSeries("xmem-llc-miss")
	tl := rep.AddSeries("dpdk-p99-us")

	type cfg struct {
		label string
		xlo   int // -1 means X-Mem solo
		dca   bool
	}
	cases := []cfg{
		{"solo[9:10]", -1, true},
		{"on[0:1]", 0, true}, {"on[3:4]", 3, true}, {"on[5:6]", 5, true}, {"on[9:10]", 9, true},
		{"off[0:1]", 0, false}, {"off[3:4]", 3, false}, {"off[5:6]", 5, false}, {"off[9:10]", 9, false},
	}
	if o.Quick {
		cases = []cfg{{"on[9:10]", 9, true}, {"off[9:10]", 9, false}}
	}
	// Co-located cases start from one spec (DPDK pinned, X-Mem
	// unconstrained, DCA on); each programs the X-Mem mask, and turns DCA
	// off for the off-cases, at the measurement boundary.
	co := o.spec(2, 3, dpdk("dpdk-t", true, 5, 6), xmem(defaultXMemKB))
	pts := make([]point, len(cases))
	for i, c := range cases {
		if c.xlo < 0 {
			pts[i] = point{start: o.spec(2, 3, xmem(defaultXMemKB, 9, 10))}
			continue
		}
		at := withWays(co, 1, c.xlo, c.xlo+1)
		if !c.dca {
			at.Params.DCA = scenario.DCAOff
		}
		pts[i] = point{co, at}
	}
	for i, res := range run(o, pts, nil) {
		c := cases[i]
		xm.Add(c.label, float64(i), res.W("xmem").LLCMissRate)
		if c.xlo >= 0 {
			tl.Add(c.label, float64(i), res.W("dpdk-t").P99LatUs)
		}
	}
	return rep
}

// fig5Blocks is the block-size sweep of Fig. 5 and Fig. 6.
var fig5Blocks = []int{4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048}

// Fig5 reproduces Fig. 5a: storage throughput and memory read bandwidth vs.
// block size, DCA on and off, for FIO running alone.
func Fig5(o Options) *Report {
	rep := &Report{
		ID:    "5",
		Title: "Storage block size vs. throughput and memory bandwidth (FIO solo)",
	}
	tpOn := rep.AddSeries("storage-tp-dcaon")
	tpOff := rep.AddSeries("storage-tp-dcaoff")
	mrOn := rep.AddSeries("memrd-dcaon")
	mrOff := rep.AddSeries("memrd-dcaoff")
	leak := rep.AddSeries("leak-rate-dcaon")

	blocks := fig5Blocks
	if o.Quick {
		blocks = []int{4, 32, 128, 512, 2048}
	}
	// Point order: (block, DCA on), (block, DCA off), next block, ...
	var pts []point
	for _, kb := range blocks {
		on := o.spec(2, 3, fio(fioLow, kb, 2, 3))
		pts = append(pts, point{start: on}, point{start: withDCA(on, scenario.DCAOff)})
	}
	results := run(o, pts, nil)
	for i, kb := range blocks {
		lbl := kbLabel(kb)
		on, off := results[i*2], results[i*2+1]
		tpOn.Add(lbl, float64(kb), on.W("fio").IOReadGBps)
		mrOn.Add(lbl, float64(kb), on.MemReadGBps)
		leak.Add(lbl, float64(kb), on.W("fio").LeakRate)
		tpOff.Add(lbl, float64(kb), off.W("fio").IOReadGBps)
		mrOff.Add(lbl, float64(kb), off.MemReadGBps)
	}
	return rep
}

// Fig6 reproduces Fig. 6: DPDK-T latency and FIO throughput vs. storage
// block size, with DCA on/off, plus the DPDK-T solo reference (Fig. 6b).
func Fig6(o Options) *Report {
	rep := &Report{
		ID:    "6",
		Title: "Impact of FIO on DPDK-T latency (DPDK-T way[4:5], FIO way[2:3])",
	}
	alOn := rep.AddSeries("net-avg-us-dcaon")
	tlOn := rep.AddSeries("net-p99-us-dcaon")
	alOff := rep.AddSeries("net-avg-us-dcaoff")
	tpOn := rep.AddSeries("storage-tp-dcaon")

	blocks := fig5Blocks
	if o.Quick {
		blocks = []int{16, 64, 128, 512, 2048}
	}
	// Points: (block, DCA on/off) pairs, then the two Fig. 6b solo runs.
	var pts []point
	for _, kb := range blocks {
		on := o.spec(2, 3, dpdk("dpdk-t", true, 4, 5), fio(fioHigh, kb, 2, 3))
		pts = append(pts, point{start: on}, point{start: withDCA(on, scenario.DCAOff)})
	}
	solo := o.spec(2, 3, dpdk("dpdk-t", true, 4, 5))
	pts = append(pts, point{start: solo}, point{start: withDCA(solo, scenario.DCAOff)})
	results := run(o, pts, nil)
	for i, kb := range blocks {
		lbl := kbLabel(kb)
		on, off := results[i*2], results[i*2+1]
		alOn.Add(lbl, float64(kb), on.W("dpdk-t").AvgLatUs)
		tlOn.Add(lbl, float64(kb), on.W("dpdk-t").P99LatUs)
		tpOn.Add(lbl, float64(kb), on.W("fio").IOReadGBps)
		alOff.Add(lbl, float64(kb), off.W("dpdk-t").AvgLatUs)
	}
	n := len(blocks) * 2
	soloOn, soloOff := results[n], results[n+1]
	alOn.Add("solo", -1, soloOn.W("dpdk-t").AvgLatUs)
	tlOn.Add("solo", -1, soloOn.W("dpdk-t").P99LatUs)
	alOff.Add("solo", -1, soloOff.W("dpdk-t").AvgLatUs)
	return rep
}

// Fig7 reproduces Fig. 7: n-Overlap vs. n-Exclude allocation strategies for
// DPDK-T, comparing latency and memory bandwidth.
func Fig7(o Options) *Report {
	rep := &Report{
		ID:    "7",
		Title: "LLC allocation strategy: n ways Overlapping vs. Excluding inclusive ways",
	}
	al := rep.AddSeries("net-avg-us")
	tl := rep.AddSeries("net-p99-us")
	mr := rep.AddSeries("mem-read-GBps")
	mw := rep.AddSeries("mem-write-GBps")

	type strat struct {
		label  string
		lo, hi int
	}
	ways := 11
	var strategies []strat
	ns := []int{2, 4, 6, 8}
	if o.Quick {
		ns = []int{2, 4}
	}
	for _, n := range ns {
		// n-Overlap: the n rightmost ways, including the 2 inclusive ways.
		strategies = append(strategies, strat{fmt.Sprintf("%dO", n), ways - n, ways - 1})
		// n-Exclude: n ways immediately left of the inclusive ways.
		if n <= ways-2 {
			strategies = append(strategies, strat{fmt.Sprintf("%dE", n), ways - 2 - n, ways - 3})
		}
	}
	// All strategies start from DPDK unconstrained; the allocation is
	// programmed at the measurement boundary.
	start := o.spec(2, 3, dpdk("dpdk-t", true))
	pts := make([]point, len(strategies))
	for i, st := range strategies {
		pts[i] = point{start, withWays(start, 0, st.lo, st.hi)}
	}
	for i, res := range run(o, pts, nil) {
		lbl := strategies[i].label
		al.Add(lbl, float64(i), res.W("dpdk-t").AvgLatUs)
		tl.Add(lbl, float64(i), res.W("dpdk-t").P99LatUs)
		mr.Add(lbl, float64(i), res.MemReadGBps)
		mw.Add(lbl, float64(i), res.MemWriteGBps)
	}
	return rep
}

// Fig8a reproduces Fig. 8a: selectively disabling DCA for the SSD while
// keeping it for the NIC, vs. both-on, across storage block sizes.
func Fig8a(o Options) *Report {
	rep := &Report{
		ID:    "8a",
		Title: "I/O device-aware DCA: [SSD-DCA off] vs. [DCA on]",
	}
	alOn := rep.AddSeries("net-avg-us-dcaon")
	alOff := rep.AddSeries("net-avg-us-ssdoff")
	tlOn := rep.AddSeries("net-p99-us-dcaon")
	tlOff := rep.AddSeries("net-p99-us-ssdoff")
	tpOff := rep.AddSeries("storage-tp-ssdoff")

	blocks := []int{16, 32, 64, 128, 256, 512}
	if o.Quick {
		blocks = []int{32, 128, 512}
	}
	// Each block size's on/off pair starts from one spec (DCA on), and the
	// off-point flips the hidden per-port knob at the measurement boundary
	// — exactly the runtime flip the A4 daemon performs.
	var pts []point
	for _, kb := range blocks {
		on := o.spec(2, 3, dpdk("dpdk-t", true, 4, 5), fio(fioHigh, kb, 2, 3))
		pts = append(pts, point{start: on}, point{on, withDCA(on, scenario.DCASSDOff)})
	}
	results := run(o, pts, nil)
	for i, kb := range blocks {
		lbl := kbLabel(kb)
		on, off := results[i*2], results[i*2+1]
		alOn.Add(lbl, float64(kb), on.W("dpdk-t").AvgLatUs)
		tlOn.Add(lbl, float64(kb), on.W("dpdk-t").P99LatUs)
		alOff.Add(lbl, float64(kb), off.W("dpdk-t").AvgLatUs)
		tlOff.Add(lbl, float64(kb), off.W("dpdk-t").P99LatUs)
		tpOff.Add(lbl, float64(kb), off.W("fio").IOReadGBps)
	}
	return rep
}

// Fig8b reproduces Fig. 8b: shrinking FIO's standard ways under
// [SSD-DCA off] while X-Mem holds way[2:5].
func Fig8b(o Options) *Report {
	rep := &Report{
		ID:    "8b",
		Title: "Trash-way narrowing: FIO ways [2:n] vs. X-Mem at way[2:5]",
	}
	xm := rep.AddSeries("xmem-llc-miss")
	tp := rep.AddSeries("storage-tp")

	// The probe's working set nearly fills its four ways, as in the paper,
	// so bloat from overlapping FIO ways translates directly into misses.
	// FIO needs a little longer to ramp 2 MB blocks into steady bloat.
	const wsKB = 8 << 10
	his := []int{5, 4, 3, 2}
	if o.Quick {
		his = []int{5, 2}
	}
	// All FIO way ranges start from one spec: [SSD-DCA off], the X-Mem pin,
	// and FIO warmed at its widest range [2:5]. Each point then narrows
	// FIO's mask at the measurement boundary (resident lines decay under
	// CAT semantics, as on silicon). The last point is the X-Mem solo
	// reference.
	co := withDCA(o.spec(4, 4, fio(fioLow, 2<<10, 2, 5), xmem(wsKB, 2, 5)), scenario.DCASSDOff)
	var pts []point
	for _, hi := range his {
		pts = append(pts, point{co, withWays(co, 0, 2, hi)})
	}
	pts = append(pts, point{start: o.spec(4, 4, xmem(wsKB, 2, 5))})
	results := run(o, pts, nil)
	for i, hi := range his {
		lbl := wayLabel(2, hi)
		xm.Add(lbl, float64(hi), results[i].W("xmem").LLCMissRate)
		tp.Add(lbl, float64(hi), results[i].W("fio").IOReadGBps)
	}
	xm.Add("solo", 6, results[len(his)].W("xmem").LLCMissRate)
	return rep
}
