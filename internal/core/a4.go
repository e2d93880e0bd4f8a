// Package core implements A4 itself: the runtime, microarchitecture-aware
// LLC management framework of the paper (§5). The controller is a
// per-simulated-second state machine that reads hardware counters from the
// pcm fabric and drives two knobs — CAT way masks and the hidden per-port
// DCA switch — through the same narrow interfaces a real deployment would
// use (resctrl and perfctrlsts_0).
//
// The framework composes four features, enabled cumulatively to form the
// paper's A4-a .. A4-d variants:
//
//	F-Priority  (A4-a, §5.2) priority-based HP/LP zones with iterative LP
//	            Zone expansion guarded by HPW LLC hit rates (T1);
//	F-Safeguard (A4-b, §5.3) DCA Zone reserved for I/O HPWs and inclusive
//	            ways removed from LP Zone;
//	F-DCAOff    (A4-c, §5.4) selective DCA disabling for storage devices
//	            suffering DMA leak (T2–T4), demoting them to LPW;
//	F-Bypass    (A4-d, §5.5) pseudo LLC bypassing: antagonists (T5) are
//	            squeezed toward a single trash way.
package core

import (
	"fmt"

	"a4sim/internal/cache"
	"a4sim/internal/hierarchy"
	"a4sim/internal/pcm"
	"a4sim/internal/sim"
	"a4sim/internal/stats"
	"a4sim/internal/workload"
)

// Feature is a bit set selecting A4 sub-mechanisms.
type Feature uint8

// Features, cumulative in the paper's variants.
const (
	FeatPriority Feature = 1 << iota
	FeatSafeguard
	FeatDCAOff
	FeatBypass
	// FeatNetBloat is the extension sketched in §1: a low-priority
	// network-I/O workload whose consumed packets heavily DMA-bloat the
	// standard ways is confined to trash ways, like storage antagonists.
	FeatNetBloat
)

// VariantA..VariantD are the evaluated configurations.
const (
	VariantA = FeatPriority
	VariantB = FeatPriority | FeatSafeguard
	VariantC = FeatPriority | FeatSafeguard | FeatDCAOff
	VariantD = FeatPriority | FeatSafeguard | FeatDCAOff | FeatBypass
	// VariantExt adds the network-bloat extension on top of A4-d.
	VariantExt = VariantD | FeatNetBloat
)

// Thresholds are T1–T5 of Table 1.
type Thresholds struct {
	HPWLLCHitThr    float64 // T1: tolerated relative drop in HPW LLC hit rate
	DMALkDCAMsThr   float64 // T2: DCA miss rate indicating leak
	DMALkIOTpThr    float64 // T3: storage share of PCIe write throughput
	DMALkLLCMsThr   float64 // T4: storage workload LLC miss rate
	AntCacheMissThr float64 // T5: MLC & LLC miss rate marking an antagonist
}

// DefaultThresholds returns Table 1's values.
func DefaultThresholds() Thresholds {
	return Thresholds{
		HPWLLCHitThr:    0.20,
		DMALkDCAMsThr:   0.40,
		DMALkIOTpThr:    0.35,
		DMALkLLCMsThr:   0.40,
		AntCacheMissThr: 0.90,
	}
}

// Timing are the controller's intervals, in simulated seconds.
type Timing struct {
	ExpandInterval int  // LP Zone grows one way per this many seconds
	StableInterval int  // seconds of stability before a revert probe
	RevertSeconds  int  // how long a revert probe lasts
	Oracle         bool // disable revert probes entirely (Fig. 15c oracle)
}

// DefaultTiming returns the paper's 2 s / 10 s / 1 s values.
func DefaultTiming() Timing {
	return Timing{ExpandInterval: 2, StableInterval: 10, RevertSeconds: 1}
}

// WorkloadInfo is what the operator (or cluster manager) tells A4 about a
// workload, per §5.1.
type WorkloadInfo struct {
	ID       pcm.WorkloadID
	Name     string
	Cores    []int
	Class    workload.Class
	Port     int // PCIe port of the attached device, -1 for none
	Priority workload.Priority
}

// Config assembles a controller.
type Config struct {
	Features   Feature
	Thresholds Thresholds
	Timing     Timing
	// StabilityFluct is the "fluctuations greater than 10%" bound of §5.5.
	StabilityFluct float64
}

// DefaultConfig returns the full A4-d configuration with Table 1 values.
func DefaultConfig() Config {
	return Config{
		Features:       VariantD,
		Thresholds:     DefaultThresholds(),
		Timing:         DefaultTiming(),
		StabilityFluct: 0.10,
	}
}

// searchState tracks the LP Zone expansion of §5.2.
type searchState int

const (
	stateInit      searchState = iota // apply initial partitions, collect reference
	stateSearching                    // expanding LP Zone
	stateSettled                      // allocation fixed; monitoring
	stateReverting                    // temporary revert probe in progress
)

// antagonist records a workload under pseudo LLC bypassing.
type antagonist struct {
	// left is the current left edge of the trash-way range.
	left int
	// missAtDetect is the LLC miss rate when flagged (restore reference).
	missAtDetect float64
	// ioTPAtDetect is the I/O throughput when flagged (storage restore).
	ioTPAtDetect float64
	// storage marks a DCA-disabled storage antagonist (vs. non-I/O, T5).
	storage bool
	// settled stops further trash-way shrinking.
	settled bool
	// baselined is set once the post-transition stability references have
	// been captured (disabling DCA itself moves the miss rate, so the
	// detection-time values are not valid fluctuation references).
	baselined bool
}

// Controller is the A4 daemon.
type Controller struct {
	cfg  Config
	h    *hierarchy.Hierarchy
	info []WorkloadInfo

	ways     int
	secs     int // simulated seconds elapsed
	state    searchState
	stateAge int // seconds in current state

	// LP Zone [lpLeft, lpRight]; initial values depend on the mode.
	lpLeft, lpRight int
	minLeft         int

	// Reference HPW hit rates measured at the initial partitions.
	hitRef   map[pcm.WorkloadID]float64
	lastHit  map[pcm.WorkloadID]float64
	lastSeen map[pcm.WorkloadID]pcm.Sample

	antagonists map[pcm.WorkloadID]*antagonist
	demoted     map[pcm.WorkloadID]bool

	// Stability references for trash-way shrinking.
	lastMemBW float64

	// savedLPLeft preserves the settled allocation across a revert probe.
	savedLPLeft int

	// Events records controller decisions, oldest first. It is part of the
	// controller's state (the snapshot codec carries it), so a forked run
	// continues the same log a fresh run writes.
	Events []string

	// sampler provides per-second pcm samples; the harness supplies it so
	// sampling happens exactly once per second across all consumers.
	sampler func() []pcm.Sample
	// memBW returns system memory bandwidth (GB/s) for the last second.
	memBW func() float64
}

// New builds a controller over the hierarchy for the given workload set.
func New(cfg Config, h *hierarchy.Hierarchy, info []WorkloadInfo,
	sampler func() []pcm.Sample, memBW func() float64) *Controller {
	c := &Controller{
		cfg:         cfg,
		h:           h,
		info:        info,
		ways:        h.Config().LLC.Ways,
		hitRef:      make(map[pcm.WorkloadID]float64),
		lastHit:     make(map[pcm.WorkloadID]float64),
		lastSeen:    make(map[pcm.WorkloadID]pcm.Sample),
		antagonists: make(map[pcm.WorkloadID]*antagonist),
		demoted:     make(map[pcm.WorkloadID]bool),
		sampler:     sampler,
		memBW:       memBW,
	}
	c.resetPartitions()
	c.apply()
	return c
}

// hasIOHPW reports whether any I/O workload currently holds HPW priority.
func (c *Controller) hasIOHPW() bool {
	for _, w := range c.info {
		if w.Priority == workload.HPW && w.Class != workload.ClassCompute && !c.demoted[w.ID] {
			return true
		}
	}
	return false
}

// safeguarding reports whether the F-Safeguard zone layout is active.
func (c *Controller) safeguarding() bool {
	return c.cfg.Features&FeatSafeguard != 0 && c.hasIOHPW()
}

// resetPartitions restores the initial partitions of the active mode and
// re-enters the searching flow.
func (c *Controller) resetPartitions() {
	if c.safeguarding() {
		// Fig. 10b: LP Zone starts at way[7:8]; inclusive ways reserved for
		// the HP Zone, DCA ways for I/O HPWs.
		c.lpLeft, c.lpRight = c.ways-4, c.ways-3
		c.minLeft = 2
	} else {
		// Fig. 10a: LP Zone starts at the two rightmost ways.
		c.lpLeft, c.lpRight = c.ways-2, c.ways-1
		c.minLeft = 1
	}
	c.state = stateInit
	c.stateAge = 0
	c.hitRef = make(map[pcm.WorkloadID]float64)
}

// priorityOf returns the effective priority (demotions applied).
func (c *Controller) priorityOf(w WorkloadInfo) workload.Priority {
	if c.demoted[w.ID] {
		return workload.LPW
	}
	if _, ok := c.antagonists[w.ID]; ok {
		return workload.LPW
	}
	return w.Priority
}

// maskFor computes the CAT mask of one workload under the current state.
func (c *Controller) maskFor(w WorkloadInfo) cache.WayMask {
	if c.cfg.Features&FeatPriority == 0 {
		return cache.MaskAll(c.ways)
	}
	if ant, ok := c.antagonists[w.ID]; ok && c.cfg.Features&FeatBypass != 0 {
		right := c.trashRight()
		left := ant.left
		if left > right {
			left = right
		}
		return cache.MaskRange(left, right)
	}
	if c.priorityOf(w) == workload.LPW {
		return cache.MaskRange(c.lpLeft, c.lpRight)
	}
	// HPWs: I/O HPWs are left unconstrained (full mask); non-I/O HPWs are
	// kept out of the DCA ways when safeguarding is active.
	if c.safeguarding() && w.Class == workload.ClassCompute {
		return cache.MaskRange(c.h.LLC().Geometry().NumDCA, c.ways-1)
	}
	return cache.MaskAll(c.ways)
}

// trashRight is the terminal trash way: the rightmost way of the LP Zone
// that is still a standard way (way[8] when safeguarding).
func (c *Controller) trashRight() int {
	r := c.lpRight
	if inc := c.h.LLC().Geometry().NumInclusive; r > c.ways-1-inc {
		if c.safeguarding() {
			r = c.ways - 1 - inc
		}
	}
	return r
}

// apply programs CAT for every workload. Each workload gets its own CLOS
// (index+1; CLOS 0 stays the full-mask default).
func (c *Controller) apply() {
	cat := c.h.CAT()
	for i, w := range c.info {
		clos := i + 1
		if err := cat.SetMask(clos, c.maskFor(w)); err != nil {
			panic(fmt.Sprintf("a4: programming CLOS %d: %v", clos, err))
		}
		for _, core := range w.Cores {
			if err := cat.Associate(core, clos); err != nil {
				panic(fmt.Sprintf("a4: associating core %d: %v", core, err))
			}
		}
	}
}

// logf appends a controller event.
func (c *Controller) logf(format string, args ...any) {
	c.Events = append(c.Events, fmt.Sprintf("t=%ds %s", c.secs, fmt.Sprintf(format, args...)))
}

// LPZone returns the current LP Zone bounds (tests, traces).
func (c *Controller) LPZone() (left, right int) { return c.lpLeft, c.lpRight }

// State returns a short name of the controller state.
func (c *Controller) State() string {
	switch c.state {
	case stateInit:
		return "init"
	case stateSearching:
		return "searching"
	case stateSettled:
		return "settled"
	default:
		return "reverting"
	}
}

// StateCode returns the numeric search state (0 init, 1 searching,
// 2 settled, 3 reverting) — the telemetry plane records it per second so
// transient figures can align controller transitions with workload metrics.
func (c *Controller) StateCode() int { return int(c.state) }

// FeatureMask returns the configured feature bit set.
func (c *Controller) FeatureMask() Feature { return c.cfg.Features }

// IsAntagonist reports whether id is under pseudo LLC bypassing.
func (c *Controller) IsAntagonist(id pcm.WorkloadID) bool {
	_, ok := c.antagonists[id]
	return ok
}

// IsDemoted reports whether id was demoted to LPW by F-DCAOff.
func (c *Controller) IsDemoted(id pcm.WorkloadID) bool { return c.demoted[id] }

// OnSecond implements sim.Observer: the 1 s monitoring loop of Fig. 9.
func (c *Controller) OnSecond(now sim.Tick) {
	c.secs++
	samples := c.sampler()
	byID := make(map[pcm.WorkloadID]pcm.Sample, len(samples))
	for _, s := range samples {
		byID[s.ID] = s
	}
	memBW := c.memBW()

	if c.cfg.Features&FeatPriority == 0 {
		return
	}

	// F-DCAOff: detect storage-driven DMA leak (§5.4) at any point.
	if c.cfg.Features&FeatDCAOff != 0 {
		c.detectStorageAntagonists(byID)
	}

	c.stateAge++
	switch c.state {
	case stateInit:
		// One full second at the initial partitions: record references.
		for _, w := range c.info {
			if c.priorityOf(w) == workload.HPW {
				c.hitRef[w.ID] = byID[w.ID].LLCHitRate
			}
		}
		c.state = stateSearching
		c.stateAge = 0

	case stateSearching:
		if c.stateAge < c.cfg.Timing.ExpandInterval {
			break
		}
		c.stateAge = 0
		if c.hpwDegraded(byID) {
			// Last expansion hurt an HPW: revert it and settle.
			if c.lpLeft < c.lpRight {
				c.lpLeft++
				c.apply()
			}
			c.settle()
			break
		}
		if c.lpLeft <= c.minLeft {
			c.settle()
			break
		}
		c.lpLeft--
		c.logf("expand LP zone to [%d:%d]", c.lpLeft, c.lpRight)
		c.apply()

	case stateSettled:
		// Phase-change detection (§5.6 condition 2).
		if c.hpwDegraded(byID) && c.stateAge > 1 {
			c.logf("phase change detected; re-searching")
			c.resetPartitions()
			c.apply()
			break
		}
		// F-Bypass: antagonist detection and trash-way shrinking.
		if c.cfg.Features&FeatBypass != 0 {
			c.detectNonIOAntagonists(byID)
			if c.cfg.Features&FeatNetBloat != 0 {
				c.detectNetworkBloat(byID)
			}
			c.shrinkTrashWays(byID, memBW)
			c.restoreRecoveredAntagonists(byID)
		}
		// Revert probe (§5.6 condition 3) unless running as the oracle.
		if !c.cfg.Timing.Oracle && c.stateAge >= c.cfg.Timing.StableInterval {
			c.savedLPLeft = c.lpLeft
			c.lpLeft, c.lpRight = c.initialPartition()
			c.state = stateReverting
			c.stateAge = 0
			c.logf("revert probe: LP zone to initial [%d:%d]", c.lpLeft, c.lpRight)
			c.apply()
		}

	case stateReverting:
		if c.stateAge < c.cfg.Timing.RevertSeconds {
			break
		}
		// Compare attainable hit rates at the initial partition against the
		// references; a large gain means the phase changed under us.
		changed := false
		for _, w := range c.info {
			if c.priorityOf(w) != workload.HPW {
				continue
			}
			ref, ok := c.hitRef[w.ID]
			if !ok {
				continue
			}
			cur := byID[w.ID].LLCHitRate
			if cur > ref && (cur-ref) > c.cfg.Thresholds.HPWLLCHitThr*maxf(ref, 1e-9) {
				changed = true
			}
		}
		if changed {
			c.logf("revert probe found phase change; re-searching")
			c.resetPartitions()
		} else {
			c.lpLeft = c.savedLPLeft
			c.state = stateSettled
			c.stateAge = 0
		}
		c.apply()
	}

	c.lastMemBW = memBW
	for id, s := range byID {
		c.lastSeen[id] = s
		c.lastHit[id] = s.LLCHitRate
	}
}

// initialPartition returns the mode's initial LP Zone bounds.
func (c *Controller) initialPartition() (left, right int) {
	if c.safeguarding() {
		return c.ways - 4, c.ways - 3
	}
	return c.ways - 2, c.ways - 1
}

// settle freezes the LP Zone.
func (c *Controller) settle() {
	c.state = stateSettled
	c.stateAge = 0
	c.logf("LP zone settled at [%d:%d]", c.lpLeft, c.lpRight)
}

// hpwDegraded reports whether any HPW's LLC hit rate dropped more than T1
// relative to its reference.
func (c *Controller) hpwDegraded(byID map[pcm.WorkloadID]pcm.Sample) bool {
	for _, w := range c.info {
		if c.priorityOf(w) != workload.HPW {
			continue
		}
		ref, ok := c.hitRef[w.ID]
		if !ok || ref <= 0 {
			continue
		}
		cur := byID[w.ID].LLCHitRate
		if (ref-cur)/ref > c.cfg.Thresholds.HPWLLCHitThr {
			return true
		}
	}
	return false
}

// detectStorageAntagonists applies the three-condition DMA-leak test of
// §5.4 and disables DCA for the offending storage device.
func (c *Controller) detectStorageAntagonists(byID map[pcm.WorkloadID]pcm.Sample) {
	// Total PCIe write (device-to-host) throughput across I/O workloads.
	var totalIn float64
	for _, w := range c.info {
		if w.Class != workload.ClassCompute {
			totalIn += byID[w.ID].IOReadGBps
		}
	}
	for _, w := range c.info {
		if w.Class != workload.ClassStorage || c.demoted[w.ID] || w.Port < 0 {
			continue
		}
		s := byID[w.ID]
		if !s.IsIOActive() || totalIn <= 0 {
			continue
		}
		share := s.IOReadGBps / totalIn
		t := c.cfg.Thresholds
		if s.DCAMissRate > t.DMALkDCAMsThr && s.LLCMissRate > t.DMALkLLCMsThr && share > t.DMALkIOTpThr {
			c.h.PCIe().SetPortDCA(w.Port, false)
			c.demoted[w.ID] = true
			c.antagonists[w.ID] = &antagonist{
				left:         c.lpLeft,
				missAtDetect: s.LLCMissRate,
				ioTPAtDetect: s.IOReadGBps,
				storage:      true,
			}
			c.logf("storage antagonist %s: DCA off for port %d, demoted to LPW", w.Name, w.Port)
			// §5.4: LP Zone is reallocated including the demoted workload.
			c.resetPartitions()
			c.apply()
			return
		}
	}
}

// detectNonIOAntagonists applies the T5 test of §5.5.
func (c *Controller) detectNonIOAntagonists(byID map[pcm.WorkloadID]pcm.Sample) {
	t := c.cfg.Thresholds.AntCacheMissThr
	for _, w := range c.info {
		if w.Class != workload.ClassCompute {
			continue
		}
		if _, ok := c.antagonists[w.ID]; ok {
			continue
		}
		s := byID[w.ID]
		if s.MLCMissRate > t && s.LLCMissRate > t {
			c.antagonists[w.ID] = &antagonist{
				left:         c.lpLeft,
				missAtDetect: s.LLCMissRate,
			}
			c.logf("non-I/O antagonist %s detected (MLC miss %.2f, LLC miss %.2f)", w.Name, s.MLCMissRate, s.LLCMissRate)
			c.apply()
		}
	}
}

// detectNetworkBloat flags low-priority network workloads whose consumed
// packets bloat the standard ways at a high rate relative to their LLC use
// (§1 extension). They keep DCA (latency still matters) but their MLC
// evictions are steered into trash ways.
func (c *Controller) detectNetworkBloat(byID map[pcm.WorkloadID]pcm.Sample) {
	for _, w := range c.info {
		if w.Class != workload.ClassNetwork || w.Priority == workload.HPW {
			continue
		}
		if _, ok := c.antagonists[w.ID]; ok {
			continue
		}
		s := byID[w.ID]
		// Heavy bloat with poor reuse: most of what it evicts never hits.
		if s.DMABloats > 0 && s.LLCHitRate < 1-c.cfg.Thresholds.AntCacheMissThr &&
			float64(s.DMABloats) > 0.5*float64(s.DMABloats+s.DMALeaks) {
			c.antagonists[w.ID] = &antagonist{
				left:         c.lpLeft,
				missAtDetect: s.LLCMissRate,
			}
			c.logf("network-bloat antagonist %s: confined to trash ways", w.Name)
			c.apply()
		}
	}
}

// shrinkTrashWays progressively narrows each antagonist's ways toward the
// terminal trash way, pausing on instability (§5.5).
func (c *Controller) shrinkTrashWays(byID map[pcm.WorkloadID]pcm.Sample, memBW float64) {
	if c.stateAge%c.cfg.Timing.ExpandInterval != 0 {
		return
	}
	unstable := c.lastMemBW > 0 && stats.Fluctuation(memBW, c.lastMemBW) > c.cfg.StabilityFluct
	for id, ant := range c.antagonists {
		// Shrinking is relative to the settled LP Zone (§5.5 ❷).
		if ant.left < c.lpLeft {
			ant.left = c.lpLeft
		}
		if ant.settled || ant.left >= c.trashRight() {
			ant.settled = true
			continue
		}
		s := byID[id]
		if !ant.baselined {
			ant.missAtDetect = s.LLCMissRate
			if ant.storage {
				ant.ioTPAtDetect = s.IOReadGBps
			}
			ant.baselined = true
			continue
		}
		if unstable ||
			stats.Fluctuation(s.LLCMissRate, ant.missAtDetect) > 3*c.cfg.StabilityFluct ||
			(ant.storage && ant.ioTPAtDetect > 0 && stats.Fluctuation(s.IOReadGBps, ant.ioTPAtDetect) > c.cfg.StabilityFluct) {
			ant.settled = true
			c.logf("trash shrink for %s stopped (instability)", c.nameOf(id))
			continue
		}
		ant.left++
		c.logf("trash ways for %s now [%d:%d]", c.nameOf(id), ant.left, c.trashRight())
		c.apply()
	}
}

// restoreRecoveredAntagonists undoes bypassing/demotion when behaviour
// changes (§5.6 "re-assigning priorities").
func (c *Controller) restoreRecoveredAntagonists(byID map[pcm.WorkloadID]pcm.Sample) {
	for id, ant := range c.antagonists {
		s := byID[id]
		recovered := false
		if ant.storage {
			// A large storage throughput change signals a phase change.
			if ant.ioTPAtDetect > 0 && stats.Fluctuation(s.IOReadGBps, ant.ioTPAtDetect) > 5*c.cfg.StabilityFluct {
				recovered = true
			}
		} else if ant.settled {
			// Antagonistic access pattern ended: miss rate dropped well
			// below the detection point.
			if ant.missAtDetect > 0 && s.LLCMissRate < ant.missAtDetect*(1-5*c.cfg.StabilityFluct) {
				recovered = true
			}
		}
		if !recovered {
			continue
		}
		delete(c.antagonists, id)
		if ant.storage {
			if w := c.findInfo(id); w != nil && w.Port >= 0 {
				c.h.PCIe().SetPortDCA(w.Port, true)
			}
			delete(c.demoted, id)
			c.logf("storage workload %s restored (DCA re-enabled)", c.nameOf(id))
			c.resetPartitions()
		} else {
			c.logf("non-I/O workload %s restored to its QoS pool", c.nameOf(id))
		}
		c.apply()
	}
}

func (c *Controller) findInfo(id pcm.WorkloadID) *WorkloadInfo {
	for i := range c.info {
		if c.info[i].ID == id {
			return &c.info[i]
		}
	}
	return nil
}

func (c *Controller) nameOf(id pcm.WorkloadID) string {
	if w := c.findInfo(id); w != nil {
		return w.Name
	}
	return fmt.Sprintf("wl%d", id)
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
