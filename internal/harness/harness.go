// Package harness assembles full experiments: it wires the simulated
// hierarchy, devices, and workloads into a sim.Engine, attaches an LLC
// manager (Default, Isolate, or an A4 variant), runs warm-up and
// measurement windows, and reports the metrics the paper's figures plot.
package harness

import (
	"fmt"
	"slices"

	"a4sim/internal/baseline"
	"a4sim/internal/core"
	"a4sim/internal/hierarchy"
	"a4sim/internal/mem"
	"a4sim/internal/nic"
	"a4sim/internal/pcm"
	"a4sim/internal/sim"
	"a4sim/internal/ssd"
	"a4sim/internal/workload"
)

// Params are the global experiment knobs. Zero fields take defaults from
// DefaultParams.
type Params struct {
	// RateScale divides every real-world rate (see DESIGN.md §4).
	RateScale float64
	Seed      uint64
	Hierarchy hierarchy.Config

	// NICGbps is the offered network load (paper: 100 Gbps ConnectX-6).
	NICGbps     float64
	PacketBytes int
	RingEntries int
	// NICBurstPeriod/NICBurstDuty shape packet arrivals (see nic.Config);
	// the defaults reproduce generator burstiness so receive rings carry
	// realistic queue depths.
	NICBurstPeriod sim.Tick
	NICBurstDuty   float64

	// SSDGBps is the RAID-0 array's saturation bandwidth (paper: ~13 GB/s
	// behind PCIe Gen3 x16).
	SSDGBps          float64
	SSDOverheadLines int
	// SSDParallelism is the array's internal concurrency window (lanes).
	SSDParallelism int

	// Sample is the sampled-execution schedule. The zero value runs every
	// epoch in detail (the default, byte-identical to pre-sampling builds).
	Sample SampleSpec
}

// SampleSpec schedules sampled execution inside measurement windows: of
// every PeriodUs microseconds of measured time, the first DetailUs run in
// full detail and the remainder fast-forwards (sim.FastForwarder). Warm-up
// is always detailed, and the schedule's phase is anchored at BeginMeasure,
// so a window always opens with a detailed interval and a forked
// continuation stays aligned with the run it forked from. The zero value
// disables sampling.
type SampleSpec struct {
	// DetailUs is the detailed interval per period, in simulated µs. It must
	// be a positive whole number of epochs (multiples of 1000 µs).
	DetailUs int64
	// PeriodUs is the schedule period in simulated µs: a whole number of
	// seconds (multiples of 1 000 000), at least DetailUs. DetailUs equal to
	// PeriodUs degenerates to fully detailed execution.
	PeriodUs int64
}

// Enabled reports whether the spec schedules any sampling.
func (sp SampleSpec) Enabled() bool { return sp.DetailUs > 0 || sp.PeriodUs > 0 }

// Validate checks the schedule's alignment constraints.
func (sp SampleSpec) Validate() error {
	if !sp.Enabled() {
		return nil
	}
	if sp.DetailUs < sim.TicksPerEpoch || sp.DetailUs%sim.TicksPerEpoch != 0 {
		return fmt.Errorf("harness: sampling detail_us %d must be a positive multiple of %d", sp.DetailUs, sim.TicksPerEpoch)
	}
	if sp.PeriodUs < sim.TicksPerSecond || sp.PeriodUs%sim.TicksPerSecond != 0 {
		return fmt.Errorf("harness: sampling period_us %d must be a positive multiple of %d", sp.PeriodUs, sim.TicksPerSecond)
	}
	if sp.DetailUs > sp.PeriodUs {
		return fmt.Errorf("harness: sampling detail_us %d exceeds period_us %d", sp.DetailUs, sp.PeriodUs)
	}
	return nil
}

// DefaultParams mirrors the Table 1 testbed.
func DefaultParams() Params {
	return Params{
		RateScale:        256,
		Seed:             1,
		Hierarchy:        hierarchy.SkylakeConfig(),
		NICGbps:          100,
		PacketBytes:      1024,
		RingEntries:      2048,
		NICBurstDuty:     0.25,
		SSDGBps:          13,
		SSDOverheadLines: 320,
		SSDParallelism:   64,
	}
}

// NICPort and SSDPort are the PCIe port indices of SkylakeConfig.
const (
	NICPort = 0
	SSDPort = 1
)

// ManagerKind selects the LLC management scheme under test.
type ManagerKind int

// Manager kinds.
const (
	ManagerDefault ManagerKind = iota
	ManagerIsolate
	ManagerA4
)

// ManagerSpec fully describes a manager configuration.
type ManagerSpec struct {
	Kind ManagerKind
	// A4 holds the controller configuration when Kind == ManagerA4.
	A4 core.Config
}

// Default returns the share-everything baseline.
func Default() ManagerSpec { return ManagerSpec{Kind: ManagerDefault} }

// Isolate returns the static-partitioning baseline.
func Isolate() ManagerSpec { return ManagerSpec{Kind: ManagerIsolate} }

// A4 returns an A4 manager with the given feature set and default
// thresholds/timing.
func A4(features core.Feature) ManagerSpec {
	cfg := core.DefaultConfig()
	cfg.Features = features
	return ManagerSpec{Kind: ManagerA4, A4: cfg}
}

// A4With returns an A4 manager with a fully custom configuration.
func A4With(cfg core.Config) ManagerSpec { return ManagerSpec{Kind: ManagerA4, A4: cfg} }

// Name labels the spec for tables.
func (m ManagerSpec) Name() string {
	switch m.Kind {
	case ManagerDefault:
		return "default"
	case ManagerIsolate:
		return "isolate"
	default:
		switch m.A4.Features {
		case core.VariantA:
			return "a4-a"
		case core.VariantB:
			return "a4-b"
		case core.VariantC:
			return "a4-c"
		case core.VariantD:
			return "a4-d"
		default:
			return "a4"
		}
	}
}

// Scenario is one experiment under construction.
type Scenario struct {
	P      Params
	Engine *sim.Engine
	H      *hierarchy.Hierarchy
	Fabric *pcm.Fabric
	Alloc  *mem.AddressSpace
	NIC    *nic.NIC
	SSD    *ssd.SSD

	Workloads []workload.Workload
	Infos     []core.WorkloadInfo

	Monitor    *Monitor
	Controller *core.Controller

	rng     *sim.RNG
	started bool
	// measureStart anchors the sampling schedule's phase: set by
	// BeginMeasure, carried by the snapshot, so split and forked
	// measurement windows keep the exact detailed/skipped interval sequence
	// of an uninterrupted run.
	measureStart sim.Tick
	// recipe records how the scenario was built, so a snapshot can rebuild
	// its structural skeleton before decoding state onto it (see fork.go).
	recipe recipe
}

// NewScenario builds an empty scenario environment.
func NewScenario(p Params) *Scenario {
	given := p
	given.Hierarchy.PortNames = slices.Clone(p.Hierarchy.PortNames)
	d := DefaultParams()
	if p.RateScale <= 0 {
		p.RateScale = d.RateScale
	}
	if p.Seed == 0 {
		p.Seed = d.Seed
	}
	if p.Hierarchy.NumCores == 0 {
		p.Hierarchy = d.Hierarchy
	}
	if p.NICGbps <= 0 {
		p.NICGbps = d.NICGbps
	}
	if p.PacketBytes <= 0 {
		p.PacketBytes = d.PacketBytes
	}
	if p.RingEntries <= 0 {
		p.RingEntries = d.RingEntries
	}
	if p.SSDGBps <= 0 {
		p.SSDGBps = d.SSDGBps
	}
	if p.SSDOverheadLines <= 0 {
		p.SSDOverheadLines = d.SSDOverheadLines
	}
	if p.SSDParallelism <= 0 {
		p.SSDParallelism = d.SSDParallelism
	}
	// Burst shaping defaults to the generator-like profile. The period
	// scales with RateScale so that burst backlogs (in packets) are
	// invariant under rate scaling; a negative period requests smooth
	// arrivals explicitly.
	if p.NICBurstPeriod == 0 {
		p.NICBurstPeriod = sim.Tick(391 * p.RateScale) // 100 ms at scale 256
		if p.NICBurstDuty <= 0 {
			p.NICBurstDuty = d.NICBurstDuty
		}
	} else if p.NICBurstPeriod < 0 {
		p.NICBurstPeriod = 0
	}

	fabric := pcm.NewFabric(p.RateScale)
	s := &Scenario{
		P:      p,
		Engine: sim.NewEngine(p.Seed),
		Fabric: fabric,
		H:      hierarchy.New(p.Hierarchy, fabric),
		Alloc:  mem.NewAddressSpace(),
		recipe: recipe{params: given},
	}
	s.rng = s.Engine.RNG().Fork()
	s.Monitor = NewMonitor(s)
	return s
}

// nicLinesPerSec converts the offered Gbps into scaled lines/second.
func (s *Scenario) nicLinesPerSec() float64 {
	return s.P.NICGbps * 1e9 / 8 / mem.LineBytes / s.P.RateScale
}

// ssdLinesPerSec converts the array bandwidth into scaled lines/second.
func (s *Scenario) ssdLinesPerSec() float64 {
	return s.P.SSDGBps * 1e9 / mem.LineBytes / s.P.RateScale
}

// EnsureNIC lazily creates the NIC with numRings rings; the NIC's DMA
// traffic is attributed to wl.
func (s *Scenario) EnsureNIC(numRings int, wl pcm.WorkloadID) *nic.NIC {
	s.record(func(f *Scenario) { f.EnsureNIC(numRings, wl) })
	return s.ensureNIC(numRings, wl)
}

func (s *Scenario) ensureNIC(numRings int, wl pcm.WorkloadID) *nic.NIC {
	if s.NIC != nil {
		return s.NIC
	}
	s.NIC = nic.New(nic.Config{
		Name:        "nic0",
		Port:        NICPort,
		LinesPerSec: s.nicLinesPerSec(),
		PacketBytes: s.P.PacketBytes,
		RingEntries: s.P.RingEntries,
		NumRings:    numRings,
		BurstPeriod: s.P.NICBurstPeriod,
		BurstDuty:   s.P.NICBurstDuty,
	}, s.H, wl, s.Alloc)
	s.Engine.AddActor(s.NIC)
	return s.NIC
}

// EnsureSSD lazily creates the SSD array.
func (s *Scenario) EnsureSSD() *ssd.SSD {
	s.record(func(f *Scenario) { f.EnsureSSD() })
	return s.ensureSSD()
}

func (s *Scenario) ensureSSD() *ssd.SSD {
	if s.SSD != nil {
		return s.SSD
	}
	s.SSD = ssd.New(ssd.Config{
		Name:          "ssd0",
		Port:          SSDPort,
		LinesPerSec:   s.ssdLinesPerSec(),
		OverheadLines: s.P.SSDOverheadLines,
		ChunkLines:    64,
		Parallelism:   s.P.SSDParallelism,
	}, s.H)
	s.Engine.AddActor(s.SSD)
	return s.SSD
}

// register adds a constructed workload to the scenario.
func (s *Scenario) register(w workload.Workload, prio workload.Priority) {
	s.Workloads = append(s.Workloads, w)
	s.Infos = append(s.Infos, core.WorkloadInfo{
		ID:       w.ID(),
		Name:     w.Name(),
		Cores:    w.Cores(),
		Class:    w.Class(),
		Port:     w.Port(),
		Priority: prio,
	})
	s.Engine.AddActor(w)
}

// AddDPDK adds a DPDK-T (touch=true) or DPDK-NT workload on the given
// cores, creating the NIC on demand.
func (s *Scenario) AddDPDK(name string, cores []int, touch bool, prio workload.Priority) *workload.DPDK {
	c := slices.Clone(cores)
	s.record(func(f *Scenario) { f.AddDPDK(name, slices.Clone(c), touch, prio) })
	id := s.Fabric.Register(name)
	n := s.ensureNIC(len(cores), id)
	d := workload.NewDPDK(workload.DPDKConfig{
		Name:        name,
		Cores:       cores,
		Touch:       touch,
		InstrPerPkt: 800,
		CPIBase:     0.5,
		Overlap:     4,
		RateScale:   s.P.RateScale,
	}, s.H, n, id)
	s.register(d, prio)
	return d
}

// AddFastclick adds the Fastclick proxy.
func (s *Scenario) AddFastclick(cores []int, prio workload.Priority) *workload.DPDK {
	c := slices.Clone(cores)
	s.record(func(f *Scenario) { f.AddFastclick(slices.Clone(c), prio) })
	id := s.Fabric.Register("fastclick")
	n := s.ensureNIC(len(cores), id)
	d := workload.NewFastclick(cores, s.H, n, id, s.P.RateScale)
	s.register(d, prio)
	return d
}

// AddFIO adds the FIO workload with the given block size.
func (s *Scenario) AddFIO(name string, cores []int, blockBytes, queueDepth int, prio workload.Priority) *workload.FIO {
	c := slices.Clone(cores)
	s.record(func(f *Scenario) { f.AddFIO(name, slices.Clone(c), blockBytes, queueDepth, prio) })
	id := s.Fabric.Register(name)
	dev := s.ensureSSD()
	f := workload.NewFIO(workload.FIOConfig{
		Name:         name,
		Cores:        cores,
		BlockBytes:   blockBytes,
		QueueDepth:   queueDepth,
		InstrPerLine: 4,
		CPIBase:      0.5,
		Overlap:      8,
		RateScale:    s.P.RateScale,
	}, s.H, dev, id, s.Alloc, s.rng.Fork())
	s.register(f, prio)
	return f
}

// AddFFSB adds the FFSB-H (heavy=true) or FFSB-L proxy.
func (s *Scenario) AddFFSB(name string, heavy bool, cores []int, prio workload.Priority) *workload.FIO {
	c := slices.Clone(cores)
	s.record(func(f *Scenario) { f.AddFFSB(name, heavy, slices.Clone(c), prio) })
	id := s.Fabric.Register(name)
	dev := s.ensureSSD()
	f := workload.NewFFSB(name, heavy, cores, s.H, dev, id, s.Alloc, s.rng.Fork(), s.P.RateScale)
	s.register(f, prio)
	return f
}

// AddXMem adds an X-Mem instance.
func (s *Scenario) AddXMem(name string, cores []int, wsBytes int64, pattern workload.Pattern, write bool, prio workload.Priority) *workload.Synthetic {
	c := slices.Clone(cores)
	s.record(func(f *Scenario) { f.AddXMem(name, slices.Clone(c), wsBytes, pattern, write, prio) })
	x := workload.NewXMem(workload.XMemConfig{
		Name:      name,
		Cores:     cores,
		WSBytes:   wsBytes,
		Pattern:   pattern,
		Write:     write,
		RateScale: s.P.RateScale,
	}, s.H, s.Alloc, s.rng.Fork())
	s.register(x, prio)
	return x
}

// AddSPEC adds a single-core SPEC CPU2017 proxy.
func (s *Scenario) AddSPEC(bench string, core int, prio workload.Priority) *workload.Synthetic {
	s.record(func(f *Scenario) { f.AddSPEC(bench, core, prio) })
	w, err := workload.NewSPEC(bench, core, s.H, s.Alloc, s.rng.Fork(), s.P.RateScale)
	if err != nil {
		panic(err)
	}
	s.register(w, prio)
	return w
}

// AddRedisPair adds Redis-S and Redis-C on two cores.
func (s *Scenario) AddRedisPair(serverCore, clientCore int, prioS, prioC workload.Priority) (*workload.Synthetic, *workload.Synthetic) {
	s.record(func(f *Scenario) { f.AddRedisPair(serverCore, clientCore, prioS, prioC) })
	srv := workload.NewRedisServer(serverCore, s.H, s.Alloc, s.rng.Fork(), s.P.RateScale)
	s.register(srv, prioS)
	cli := workload.NewRedisClient(clientCore, s.H, s.Alloc, s.rng.Fork(), s.P.RateScale)
	s.register(cli, prioC)
	return srv, cli
}

// AddSynthetic adds a custom compute workload.
func (s *Scenario) AddSynthetic(cfg workload.SyntheticConfig, prio workload.Priority) *workload.Synthetic {
	c := cfg
	c.Cores = slices.Clone(cfg.Cores)
	s.record(func(f *Scenario) {
		cfg := c
		cfg.Cores = slices.Clone(c.Cores)
		f.AddSynthetic(cfg, prio)
	})
	cfg.RateScale = s.P.RateScale
	w := workload.NewSynthetic(cfg, s.H, s.Alloc, s.rng.Fork())
	s.register(w, prio)
	return w
}

// Start applies the manager and registers the per-second observers. It must
// be called once, after all workloads are added and before Run.
func (s *Scenario) Start(m ManagerSpec) {
	if s.started {
		panic("harness: Start called twice")
	}
	s.started = true
	s.record(func(f *Scenario) { f.Start(m) })
	if s.P.Sample.Enabled() {
		if err := s.P.Sample.Validate(); err != nil {
			panic(err)
		}
		// Fail at assembly time, not mid-gap, if any actor cannot
		// fast-forward.
		for _, a := range s.Engine.Actors() {
			if _, ok := a.(sim.FastForwarder); !ok {
				panic(fmt.Sprintf("harness: sampling enabled but actor %s does not implement sim.FastForwarder", a.Name()))
			}
		}
	}
	s.Engine.AddObserver(s.Monitor)
	switch m.Kind {
	case ManagerDefault:
		baseline.ApplyDefault(s.H)
	case ManagerIsolate:
		baseline.ApplyIsolate(s.H, s.Infos)
	case ManagerA4:
		baseline.ApplyDefault(s.H)
		s.Controller = core.New(m.A4, s.H, s.Infos,
			func() []pcm.Sample { return s.Monitor.Last() },
			func() float64 { return s.Monitor.LastMemBW() })
		s.Engine.AddObserver(s.Controller)
	default:
		panic(fmt.Sprintf("harness: unknown manager kind %d", m.Kind))
	}
}

// Run executes warm-up then a measurement window, returning the collected
// result. It may be called repeatedly for multi-phase experiments. It is
// exactly Warm + BeginMeasure + Measure + EndMeasure; callers that fork
// mid-run (the prefix-sharing sweep runners, the service's snapshot cache)
// drive the phases directly, and splitting a phase across multiple Measure
// calls is equivalent to one longer call.
func (s *Scenario) Run(warmupSec, measureSec float64) *Result {
	s.Warm(warmupSec)
	s.BeginMeasure()
	s.Measure(measureSec)
	return s.EndMeasure()
}

// Warm advances simulated time outside any measurement window.
func (s *Scenario) Warm(sec float64) {
	if !s.started {
		panic("harness: Run before Start")
	}
	s.Engine.Run(sec)
}

// BeginMeasure opens a measurement window at the current instant.
func (s *Scenario) BeginMeasure() {
	if !s.started {
		panic("harness: Run before Start")
	}
	s.measureStart = s.Engine.Now()
	s.Monitor.BeginWindow()
}

// windowEpochs is how far the measurement window has run: engine time
// minus the window's start, in epochs.
func (s *Scenario) windowEpochs() int {
	return int((s.Engine.Now() - s.measureStart) / sim.TicksPerEpoch)
}

// Measure advances simulated time inside the open window. Successive calls
// accumulate into the same window, so a run can be extended from a forked
// snapshot: fork, Measure the remainder, EndMeasure.
//
// With sampling enabled, Measure alternates detailed intervals and
// fast-forward gaps per the schedule, phase-anchored at BeginMeasure: epochs
// whose offset into the current period falls inside DetailUs execute in full
// detail, the rest fast-forward (the hierarchy's passive seam first, then
// every engine actor). Splitting a window across Measure calls lands each
// piece at the phase an unsplit run would have reached.
func (s *Scenario) Measure(sec float64) {
	if !s.P.Sample.Enabled() {
		s.Engine.Run(sec)
		return
	}
	epochs := sim.Epochs(sec)
	detailE := int(s.P.Sample.DetailUs / sim.TicksPerEpoch)
	periodE := int(s.P.Sample.PeriodUs / sim.TicksPerEpoch)
	for epochs > 0 {
		phase := int((s.Engine.Now()-s.measureStart)/sim.TicksPerEpoch) % periodE
		if phase < detailE {
			run := detailE - phase
			if run > epochs {
				run = epochs
			}
			s.Engine.RunEpochsBatched(run)
			epochs -= run
			continue
		}
		gap := periodE - phase
		if gap > epochs {
			gap = epochs
		}
		s.H.FastForward(s.Engine.Now(), sim.Tick(gap)*sim.TicksPerEpoch)
		s.Engine.FastForward(gap)
		epochs -= gap
	}
}

// EndMeasure closes the window and returns its result.
func (s *Scenario) EndMeasure() *Result {
	return s.Monitor.EndWindow()
}
