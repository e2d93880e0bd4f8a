package harness

import (
	"slices"
	"strings"

	"a4sim/internal/pcm"
	"a4sim/internal/sim"
	"a4sim/internal/stats"
	"a4sim/internal/workload"
)

// Monitor is the single per-second sampler. It owns the pcm delta stream
// (so the A4 controller and the result collector see the same samples) and
// records measurement windows as per-second series: OnSecond appends one
// row of named columns per simulated second, and EndWindow reduces the
// columns to the window aggregates. The reduction performs exactly the
// additions, in exactly the order, that the old incremental accumulators
// did, so aggregates are bit-identical to the pre-series measurement path
// (pinned by the golden tests in internal/scenario).
type Monitor struct {
	s *Scenario

	last      []pcm.Sample
	lastMemRd float64 // GB/s over the last second
	lastMemWr float64

	collecting bool
	secs       int
	// detailSecs is the detailed (non-fast-forwarded) portion of the open
	// window in seconds. It equals secs in unsampled runs; EndWindow rates
	// progress counters, which only advance in detail, over it.
	detailSecs float64
	win        *window
	opts       SeriesOpts

	progressMark map[pcm.WorkloadID]int64

	// rowHook, when set, is called after each appended series row with the
	// window's live series — the streaming plane's per-second tap. It is
	// deliberately not carried by fork: a forked scenario (a cached warm
	// snapshot continuing under a new request) must not publish into the
	// original request's stream, so whoever forks attaches its own hook.
	rowHook func(*stats.Series)
}

// SetRowHook installs (or, with nil, removes) the per-second row callback.
// The hook runs on the simulating goroutine after each second's row is
// appended, so it must be cheap and non-blocking.
func (m *Monitor) SetRowHook(hook func(*stats.Series)) { m.rowHook = hook }

// SeriesOpts selects the telemetry plane's extended per-second columns.
// The core columns (per-workload rates/IPC/IO, memory and port bandwidth,
// progress) are always recorded while a window is open — they are the
// measurement path itself; the option groups add observability columns
// that aggregates do not need.
type SeriesOpts struct {
	// Devices records NIC drop/ring-depth and SSD queue-depth columns.
	Devices bool
	// Occupancy records per-workload LLC line counts (wl.<name>.llc_lines).
	Occupancy bool
	// Controller records the A4 state machine columns (a4.state,
	// a4.features, a4.lp_left, a4.lp_right); no-op without an A4 manager.
	Controller bool
	// Export attaches the recorded series to EndWindow's Result, and hence
	// to the scenario report.
	Export bool
}

// Per-workload core column layout, in order, within a workload's block.
const (
	colLLCHit = iota
	colMLCMiss
	colLLCMiss
	colDCAMiss
	colLeakRate
	colIPC
	colIORd
	colIOWr
	colDMALeaks
	colDMABloats
	colProgress
	perWLCols
)

var wlColNames = [perWLCols]string{
	"llc_hit", "mlc_miss", "llc_miss", "dca_miss", "leak_rate",
	"ipc", "io_rd_gbps", "io_wr_gbps", "dma_leaks", "dma_bloats", "progress",
}

// window is one measurement window's per-second recording: the columnar
// series plus the index layout and delta baselines OnSecond needs to fill
// one row without allocating.
type window struct {
	series *stats.Series
	row    []float64

	memRd, memWr int
	portBase     int                    // 2 columns per port, in PCIe port order
	wlBase       map[pcm.WorkloadID]int // base of each workload's column block

	// Extended-group offsets; -1 when the group (or device) is absent.
	nicDrops, nicDepth, ssdDepth int
	occBase                      int // 1 column per workload, scenario order
	a4Base                       int // 4 columns: state, features, lp_left, lp_right

	lastProg     []int64 // per-second progress baselines, scenario order
	lastNICDrops int64
	occScratch   map[int16]int
}

// NewMonitor builds the sampler for a scenario.
func NewMonitor(s *Scenario) *Monitor {
	return &Monitor{s: s}
}

// EnableSeries selects the extended telemetry columns for subsequent
// measurement windows. It must be called before BeginWindow (the scenario
// layer calls it between Start and the first measurement).
func (m *Monitor) EnableSeries(opts SeriesOpts) {
	m.s.record(func(f *Scenario) { f.Monitor.EnableSeries(opts) })
	m.opts = opts
}

// Series returns the open (or just-closed) measurement window's per-second
// series, or nil if no window was ever opened. The series is live: the
// monitor appends to it at every second boundary while collecting.
func (m *Monitor) Series() *stats.Series {
	if m.win == nil {
		return nil
	}
	return m.win.series
}

// Last returns the most recent per-second samples.
func (m *Monitor) Last() []pcm.Sample { return m.last }

// LastMemBW returns the last second's total memory bandwidth in GB/s.
func (m *Monitor) LastMemBW() float64 { return m.lastMemRd + m.lastMemWr }

// OnSecond implements sim.Observer: it records one simulated second, of
// which the engine may have fast-forwarded some ticks (sampled execution).
// Counters only accumulated over the detailed fraction frac of the second,
// so rate and ratio metrics are sampled over frac (pcm already normalizes
// by the interval) and count columns — DMA leak/bloat events, progress
// deltas, NIC drops — scale by 1/frac, extrapolating each row to a
// full-second-equivalent estimate. An unsampled second has frac exactly
// 1.0, where both the division and detailSecs += frac are exact, so
// detailed runs record the same bits as with no scaling at all. A fully
// skipped second (frac == 0) carries the previous row's traffic estimates
// forward, which is exactly the freeze model's steady-state assumption,
// while instantaneous gauges (queue depths, LLC occupancy, controller
// state) are re-read live since the frozen state remains current.
func (m *Monitor) OnSecond(now sim.Tick) {
	frac := float64(sim.TicksPerSecond-m.s.Engine.SkippedTicks()) / float64(sim.TicksPerSecond)
	if frac > 0 {
		m.last = m.s.Fabric.SampleAll(frac)
		rd, wr := m.s.H.Memory().DeltaBytes()
		m.lastMemRd = m.s.Fabric.GBps(rd, frac)
		m.lastMemWr = m.s.Fabric.GBps(wr, frac)
	}
	// frac == 0 keeps the previous sample set: the controller (and any
	// series consumer) steers on the last detailed observation.
	if !m.collecting {
		for _, p := range m.s.H.PCIe().Ports() {
			p.DeltaBytes()
		}
		return
	}
	m.secs++
	m.detailSecs += frac
	w := m.win
	row := w.row
	if frac > 0 {
		for i := range row {
			row[i] = 0
		}
		row[w.memRd] = m.lastMemRd
		row[w.memWr] = m.lastMemWr
		for pi, p := range m.s.H.PCIe().Ports() {
			in, out := p.DeltaBytes()
			row[w.portBase+2*pi] = m.s.Fabric.GBps(in, frac)
			row[w.portBase+2*pi+1] = m.s.Fabric.GBps(out, frac)
		}
		for _, smp := range m.last {
			base, ok := w.wlBase[smp.ID]
			if !ok {
				continue
			}
			row[base+colLLCHit] = smp.LLCHitRate
			row[base+colMLCMiss] = smp.MLCMissRate
			row[base+colLLCMiss] = smp.LLCMissRate
			row[base+colDCAMiss] = smp.DCAMissRate
			row[base+colLeakRate] = smp.LeakRate
			row[base+colIPC] = smp.IPC
			row[base+colIORd] = smp.IOReadGBps
			row[base+colIOWr] = smp.IOWriteGBps
			row[base+colDMALeaks] = float64(smp.DMALeaks) / frac
			row[base+colDMABloats] = float64(smp.DMABloats) / frac
		}
		for i, wl := range m.s.Workloads {
			p := wl.Progress()
			row[w.wlBase[wl.ID()]+colProgress] = float64(p-w.lastProg[i]) / frac
			w.lastProg[i] = p
		}
		if w.nicDrops >= 0 {
			d := m.s.NIC.Dropped()
			row[w.nicDrops] = float64(d-w.lastNICDrops) / frac
			w.lastNICDrops = d
		}
	}
	// Row scratch persists between seconds, so with frac == 0 the rate
	// columns above still hold the previous row's estimates; only the live
	// gauges below are refreshed.
	if w.nicDrops >= 0 {
		row[w.nicDepth] = float64(m.s.NIC.RingDepth())
	}
	if w.ssdDepth >= 0 {
		row[w.ssdDepth] = float64(m.s.SSD.QueueDepth())
	}
	if w.occBase >= 0 {
		m.s.H.LLC().LinesByOwner(w.occScratch)
		for i, wl := range m.s.Workloads {
			row[w.occBase+i] = float64(w.occScratch[int16(wl.ID())])
		}
	}
	if w.a4Base >= 0 {
		c := m.s.Controller
		// The controller observer runs after the monitor at each boundary,
		// so these columns record the state that was in effect during the
		// just-ended second — aligned with the metrics in the same row.
		row[w.a4Base] = float64(c.StateCode())
		row[w.a4Base+1] = float64(c.FeatureMask())
		l, r := c.LPZone()
		row[w.a4Base+2] = float64(l)
		row[w.a4Base+3] = float64(r)
	}
	w.series.Append(row...)
	if m.rowHook != nil {
		m.rowHook(w.series)
	}
}

// newWindow lays out the window's columns. The order is deterministic —
// memory, ports in PCIe order, workloads in scenario order, then the
// enabled extended groups — so the series' canonical encoding is a pure
// function of the scenario and the selection.
func (m *Monitor) newWindow() *window {
	w := &window{
		wlBase:   make(map[pcm.WorkloadID]int, len(m.s.Workloads)),
		lastProg: make([]int64, len(m.s.Workloads)),
		nicDrops: -1, nicDepth: -1, ssdDepth: -1, occBase: -1, a4Base: -1,
	}
	var names []string
	add := func(name string) int {
		names = append(names, name)
		return len(names) - 1
	}
	w.memRd = add("mem.rd_gbps")
	w.memWr = add("mem.wr_gbps")
	ports := m.s.H.PCIe().Ports()
	w.portBase = len(names)
	for _, p := range ports {
		add("port." + p.Name() + ".in_gbps")
		add("port." + p.Name() + ".out_gbps")
	}
	for _, wl := range m.s.Workloads {
		w.wlBase[wl.ID()] = len(names)
		for _, c := range wlColNames {
			add("wl." + wl.Name() + "." + c)
		}
	}
	if m.opts.Devices {
		if m.s.NIC != nil {
			w.nicDrops = add("nic.drops")
			w.nicDepth = add("nic.ring_depth")
			w.lastNICDrops = m.s.NIC.Dropped()
		}
		if m.s.SSD != nil {
			w.ssdDepth = add("ssd.queue_depth")
		}
	}
	if m.opts.Occupancy {
		w.occBase = len(names)
		for _, wl := range m.s.Workloads {
			add("wl." + wl.Name() + ".llc_lines")
		}
		w.occScratch = make(map[int16]int, len(m.s.Workloads))
	}
	if m.opts.Controller && m.s.Controller != nil {
		w.a4Base = add("a4.state")
		add("a4.features")
		add("a4.lp_left")
		add("a4.lp_right")
	}
	w.series = stats.NewSeries(names...)
	w.row = make([]float64, len(names))
	for i, wl := range m.s.Workloads {
		w.lastProg[i] = wl.Progress()
	}
	return w
}

// BeginWindow starts a measurement window: the per-second series is laid
// out, progress marks are taken, and latency reservoirs reset.
func (m *Monitor) BeginWindow() {
	m.collecting = true
	m.secs = 0
	m.detailSecs = 0
	m.win = m.newWindow()
	m.progressMark = make(map[pcm.WorkloadID]int64)
	for _, w := range m.s.Workloads {
		m.progressMark[w.ID()] = w.Progress()
		if d, ok := w.(*workload.DPDK); ok {
			d.ResetLatency()
		}
		if f, ok := w.(*workload.FIO); ok {
			f.ResetLatency()
		}
	}
}

// EndWindow closes the window and builds the result by reducing the
// per-second series. Rate and bandwidth aggregates are column sums divided
// by the window length (left-to-right addition, identical to the former
// incremental accumulators); event counts reduce with exact integer
// addition; progress and latency aggregates come from the progress marks
// and reservoirs, which also cover fractional trailing seconds that never
// reached a series row.
func (m *Monitor) EndWindow() *Result {
	m.collecting = false
	w := m.win
	secs := float64(m.secs)
	if secs == 0 {
		secs = 1
	}
	// Progress counters only advance during detailed execution, so they are
	// rated over the detailed seconds, which equal secs in unsampled windows.
	progSecs := m.detailSecs
	if progSecs == 0 {
		progSecs = 1
	}
	rows := w.series.Len()
	res := &Result{
		Seconds:      secs,
		MemReadGBps:  w.series.Sum("mem.rd_gbps") / secs,
		MemWriteGBps: w.series.Sum("mem.wr_gbps") / secs,
	}
	if rows > 0 {
		// A window with no whole seconds leaves Ports empty, like the
		// accumulator path did (entries appeared on first collection).
		for _, p := range m.s.H.PCIe().Ports() {
			res.Ports = append(res.Ports, PortResult{
				Name:    p.Name(),
				InGBps:  w.series.Sum("port."+p.Name()+".in_gbps") / secs,
				OutGBps: w.series.Sum("port."+p.Name()+".out_gbps") / secs,
			})
		}
	}
	scale := m.s.P.RateScale
	for _, wl := range m.s.Workloads {
		name := wl.Name()
		n := float64(rows)
		if n == 0 {
			n = 1
		}
		col := func(c int) float64 { return w.series.Sum("wl." + name + "." + wlColNames[c]) }
		wr := WorkloadResult{
			Name:         name,
			Class:        wl.Class(),
			LLCHitRate:   col(colLLCHit) / n,
			MLCMissRate:  col(colMLCMiss) / n,
			LLCMissRate:  col(colLLCMiss) / n,
			DCAMissRate:  col(colDCAMiss) / n,
			LeakRate:     col(colLeakRate) / n,
			IPC:          col(colIPC) / n,
			IOReadGBps:   col(colIORd) / n,
			IOWriteGBps:  col(colIOWr) / n,
			DMALeaks:     w.series.SumInt("wl." + name + "." + wlColNames[colDMALeaks]),
			DMABloats:    w.series.SumInt("wl." + name + "." + wlColNames[colDMABloats]),
			ProgressRate: float64(wl.Progress()-m.progressMark[wl.ID()]) / progSecs,
		}
		if d, ok := wl.(*workload.DPDK); ok {
			wr.AvgLatUs = d.Latency().Mean() / scale
			wr.P99LatUs = d.Latency().P99() / scale
			wait, desc, proc := d.LatencyBreakdown()
			wr.WaitUs = wait.Mean() / scale
			wr.DescUs = desc.Mean() / scale
			wr.ProcUs = proc.Mean() / scale
		}
		if f, ok := wl.(*workload.FIO); ok {
			wr.ReadLatMs = f.ReadLatency().Mean() / scale / 1000
			wr.ProcLatMs = f.ProcLatency().Mean() / scale / 1000
		}
		res.Workloads = append(res.Workloads, wr)
	}
	// Name order makes the encoded result a pure function of the outcome;
	// the stable sort keeps same-named workloads in scenario order.
	slices.SortStableFunc(res.Ports, func(a, b PortResult) int { return strings.Compare(a.Name, b.Name) })
	slices.SortStableFunc(res.Workloads, func(a, b WorkloadResult) int { return strings.Compare(a.Name, b.Name) })
	if m.opts.Export {
		res.Series = w.series
	}
	return res
}

// Result is one measurement window's metrics. Its JSON form is the body of
// the served report (scenario.Report embeds it): ports and workloads are
// sorted by name, so equal outcomes encode to equal bytes.
type Result struct {
	Seconds      float64 `json:"seconds"`
	MemReadGBps  float64 `json:"mem_read_gbps"`
	MemWriteGBps float64 `json:"mem_write_gbps"`

	Ports     []PortResult     `json:"ports,omitempty"`
	Workloads []WorkloadResult `json:"workloads"`

	// Series is the window's per-second telemetry (nil unless the monitor
	// was configured to export it). It is the same series the aggregates
	// above were reduced from.
	Series *stats.Series `json:"series,omitempty"`
}

// PortResult is one PCIe port's window bandwidth.
type PortResult struct {
	Name    string  `json:"name"`
	InGBps  float64 `json:"in_gbps"` // device-to-host
	OutGBps float64 `json:"out_gbps"`
}

// WorkloadResult carries one workload's window metrics.
type WorkloadResult struct {
	Name  string         `json:"name"`
	Class workload.Class `json:"class"`

	LLCHitRate  float64 `json:"llc_hit_rate"`
	MLCMissRate float64 `json:"mlc_miss_rate"`
	LLCMissRate float64 `json:"llc_miss_rate"`
	DCAMissRate float64 `json:"dca_miss_rate"`
	LeakRate    float64 `json:"leak_rate"`
	IPC         float64 `json:"ipc"`

	IOReadGBps  float64 `json:"io_read_gbps,omitempty"`
	IOWriteGBps float64 `json:"io_write_gbps,omitempty"`

	// ProgressRate is work units per second (packets, bytes, instructions).
	ProgressRate float64 `json:"progress_rate"`

	// Network latency metrics (µs, real scale). The Fig. 14 breakdown
	// (wait, desc, proc) stays off the wire, which never carried it.
	AvgLatUs float64 `json:"avg_lat_us,omitempty"`
	P99LatUs float64 `json:"p99_lat_us,omitempty"`
	WaitUs   float64 `json:"-"`
	DescUs   float64 `json:"-"`
	ProcUs   float64 `json:"-"`

	// Storage latency metrics (ms, real scale).
	ReadLatMs float64 `json:"read_lat_ms,omitempty"`
	ProcLatMs float64 `json:"proc_lat_ms,omitempty"`

	DMALeaks  int64 `json:"dma_leaks,omitempty"`
	DMABloats int64 `json:"dma_bloats,omitempty"`
}

// W returns the first workload named name, or a zero value if missing.
func (r *Result) W(name string) *WorkloadResult {
	for i := range r.Workloads {
		if r.Workloads[i].Name == name {
			return &r.Workloads[i]
		}
	}
	return &WorkloadResult{Name: name}
}

// Port returns the port named name, or a zero value if missing.
func (r *Result) Port(name string) PortResult {
	for _, p := range r.Ports {
		if p.Name == name {
			return p
		}
	}
	return PortResult{Name: name}
}
