// Package hierarchy implements the cache-coherent access protocol of the
// simulated server: CPU loads/stores through private MLCs backed by the
// non-inclusive LLC, and device DMA through DDIO. All of the paper's
// contention mechanisms are emergent from the placement rules implemented
// here:
//
//	(latent contention)    DMA write-allocates are confined to DCA ways and
//	                       evict whatever CAT placed there;
//	(DMA leak)             an I/O line evicted before any core read;
//	(directory contention) O1: a DMA-written LLC-exclusive line migrates to
//	                       the inclusive ways on first core read;
//	(DMA bloat)            consumed I/O lines evicted from an MLC allocate
//	                       into the evicting core's CAT ways.
package hierarchy

import (
	"a4sim/internal/cache"
	"a4sim/internal/cat"
	"a4sim/internal/directory"
	"a4sim/internal/llc"
	"a4sim/internal/mem"
	"a4sim/internal/mlc"
	"a4sim/internal/pcie"
	"a4sim/internal/pcm"
	"a4sim/internal/sim"
)

// Level says where an access was served.
type Level uint8

// Access service levels.
const (
	LevelMLC Level = iota
	LevelLLC
	LevelMem
)

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case LevelMLC:
		return "mlc"
	case LevelLLC:
		return "llc"
	default:
		return "mem"
	}
}

// Result describes one CPU access.
type Result struct {
	Level  Level
	Cycles int
}

// Config assembles a hierarchy.
type Config struct {
	NumCores int
	LLC      llc.Geometry
	MLC      mlc.Geometry
	// DirWays is the extended-directory associativity (12 on Skylake-SP).
	DirWays int
	// PortNames configures the PCIe ports, e.g. "nic0", "ssd0".
	PortNames []string
	// LLCVictimRandPct approximates the LLC's quad-age PLRU: this percentage
	// of victim selections are uniform over the masked ways instead of LRU.
	LLCVictimRandPct int
	// MigrationStickPct is the probability (0-100) that a consumed DMA line
	// remains LLC-resident in an inclusive way (O1 migration, feeding the
	// directory contention of §3.1) rather than being promoted out of the
	// LLC entirely (whose later MLC eviction re-allocates under the CAT
	// mask, i.e. DMA bloat). On silicon the split is decided by replacement
	// age races between the MLC and the inclusive ways; Fig. 3b shows both
	// outcomes co-occur, and 50/50 reproduces that coexistence.
	MigrationStickPct int
}

// SkylakeConfig mirrors the paper's Xeon Gold 6140 testbed: 18 cores, 1 MiB
// MLCs, 11-way LLC with 2 DCA and 2 inclusive ways, one NIC port and one
// SSD (RAID HBA) port.
func SkylakeConfig() Config {
	return Config{
		NumCores:          18,
		LLC:               llc.SkylakeGeometry(),
		MLC:               mlc.SkylakeGeometry(),
		DirWays:           12,
		PortNames:         []string{"nic0", "ssd0"},
		LLCVictimRandPct:  10,
		MigrationStickPct: 50,
	}
}

// TestConfig returns a scaled-down configuration for unit tests.
func TestConfig() Config {
	return Config{
		NumCores:  4,
		LLC:       llc.TestGeometry(),
		MLC:       mlc.TestGeometry(),
		DirWays:   12,
		PortNames: []string{"nic0", "ssd0"},
	}
}

// Hierarchy is the full memory system.
type Hierarchy struct {
	cfg    Config
	llc    *llc.LLC
	mlcs   []*mlc.MLC
	dir    *directory.Directory
	mem    *mem.Controller
	cat    *cat.Allocator
	pcie   *pcie.Complex
	fabric *pcm.Fabric
	rng    uint64 // xorshift state for the migration race
}

// New builds the hierarchy. The fabric must outlive it.
func New(cfg Config, fabric *pcm.Fabric) *Hierarchy {
	h := &Hierarchy{
		cfg:    cfg,
		llc:    llc.New(cfg.LLC),
		dir:    directory.New(cfg.LLC.Sets, cfg.DirWays),
		mem:    mem.New(),
		cat:    cat.New(cfg.NumCores, cfg.LLC.Ways),
		pcie:   pcie.NewComplex(cfg.PortNames...),
		fabric: fabric,
		rng:    0xA4A4A4A4DEADBEEF,
	}
	h.llc.Array().SetVictimRandomness(cfg.LLCVictimRandPct, 0x5EEDCAFE)
	for c := 0; c < cfg.NumCores; c++ {
		h.mlcs = append(h.mlcs, mlc.New(cfg.MLC, int16(c)))
	}
	return h
}

// FastForward is the memory system's seam in the sampled-execution contract
// (sim.FastForwarder, called by the harness per skipped gap since the
// hierarchy is passive, not an engine actor). The model is steady-state
// freeze: cache and directory contents, occupancy counters, and the
// migration-race RNG are event-driven — they only change when an access
// flows through — so skipping accesses leaves them exactly as the last
// detailed window left them, which is the statistically correct state for
// the next window to resume from. The method exists so the contract is
// explicit and so stateful drift models can slot in here later without
// touching callers.
func (h *Hierarchy) FastForward(now, dt sim.Tick) {}

// Config returns the construction configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

// LLC returns the last-level cache.
func (h *Hierarchy) LLC() *llc.LLC { return h.llc }

// MLC returns core c's private cache.
func (h *Hierarchy) MLC(c int) *mlc.MLC { return h.mlcs[c] }

// Memory returns the memory controller.
func (h *Hierarchy) Memory() *mem.Controller { return h.mem }

// CAT returns the cache-allocation state.
func (h *Hierarchy) CAT() *cat.Allocator { return h.cat }

// PCIe returns the I/O complex.
func (h *Hierarchy) PCIe() *pcie.Complex { return h.pcie }

// Directory returns the extended directory.
func (h *Hierarchy) Directory() *directory.Directory { return h.dir }

// Fabric returns the counter fabric.
func (h *Hierarchy) Fabric() *pcm.Fabric { return h.fabric }

// CPURead performs a demand load by core on behalf of workload wl. ioData
// hints that the target is an I/O buffer, so lines filled from memory retain
// I/O provenance for bloat accounting even when DCA is off.
func (h *Hierarchy) CPURead(core int, wl pcm.WorkloadID, addr uint64, ioData bool) Result {
	c := h.fabric.C(wl)
	m := h.mlcs[core]
	if way := m.ProbeWay(addr); way >= 0 {
		m.Touch(addr, way)
		c.MLCHits.Inc()
		return Result{LevelMLC, mem.LatencyMLCHit}
	}
	c.MLCMisses.Inc()

	if line, way := h.llc.Probe(addr); way >= 0 {
		c.LLCHits.Inc()
		flags := cache.LineFlags(0)
		if line.IO() || ioData {
			flags |= cache.FlagIO | cache.FlagConsumed
		}
		switch {
		case line.IO() && !line.Inclusive():
			if h.chance(h.cfg.MigrationStickPct) {
				// O1 migration: the DMA-written LLC-exclusive line moves to
				// the inclusive ways and becomes shared LLC-inclusive.
				_, evicted := h.llc.MigrateToInclusive(addr)
				if evicted.Valid {
					c.DirEvictions.Inc()
					h.retire(evicted)
				}
			} else {
				// The replacement race went the other way: the LLC copy is
				// promoted out; the eventual MLC eviction will re-allocate
				// it under the CAT mask (DMA bloat).
				h.llc.InvalidateWay(addr, way)
			}
		case h.llc.RoleOf(way) == llc.RoleInclusive:
			// Already in an inclusive way: stays resident, becomes inclusive.
			set := cache.FlagInclusive
			if line.IO() {
				set |= cache.FlagConsumed
			}
			h.llc.MutateFlags(addr, way, set, 0)
			h.llc.Touch(addr, way)
		default:
			// Non-inclusive victim-cache behaviour: promotion to the MLC
			// removes the LLC copy.
			h.llc.InvalidateWay(addr, way)
		}
		h.fillMLC(core, wl, addr, flags)
		return Result{LevelLLC, mem.LatencyLLCHit}
	}

	// Directory snoop: another core's MLC may hold the line. The data is
	// forwarded cache-to-cache (on-chip latency) and ownership moves.
	if owner := h.dir.Lookup(addr); owner >= 0 && owner != core {
		old, ok := h.mlcs[owner].Invalidate(addr)
		h.dir.Untrack(addr)
		flags := cache.LineFlags(0)
		if ok {
			flags = old.Flags
		}
		if ioData {
			flags |= cache.FlagIO | cache.FlagConsumed
		}
		c.LLCHits.Inc() // served by the on-chip directory, not DRAM
		h.fillMLC(core, wl, addr, flags)
		return Result{LevelLLC, mem.LatencyLLCHit}
	}

	c.LLCMisses.Inc()
	h.mem.ReadLine()
	flags := cache.LineFlags(0)
	if ioData {
		flags = cache.FlagIO | cache.FlagConsumed
	}
	h.fillMLC(core, wl, addr, flags)
	return Result{LevelMem, mem.LatencyDRAM}
}

// CPUWrite performs a store (RFO + modify) by core on behalf of wl.
func (h *Hierarchy) CPUWrite(core int, wl pcm.WorkloadID, addr uint64, ioData bool) Result {
	c := h.fabric.C(wl)
	m := h.mlcs[core]
	if way := m.ProbeWay(addr); way >= 0 {
		m.Touch(addr, way)
		m.MutateFlags(addr, way, cache.FlagDirty, 0)
		c.MLCHits.Inc()
		return Result{LevelMLC, mem.LatencyMLCHit}
	}
	c.MLCMisses.Inc()

	level := LevelMem
	cycles := mem.LatencyDRAM
	// RFO invalidates the LLC copy: a modified line cannot stay shared.
	if _, ok := h.llc.Invalidate(addr); ok {
		c.LLCHits.Inc()
		level, cycles = LevelLLC, mem.LatencyLLCHit
	} else if owner := h.dir.Lookup(addr); owner >= 0 && owner != core {
		// RFO snoop: invalidate the remote MLC copy and take ownership.
		h.mlcs[owner].Invalidate(addr)
		h.dir.Untrack(addr)
		c.LLCHits.Inc()
		level, cycles = LevelLLC, mem.LatencyLLCHit
	} else {
		c.LLCMisses.Inc()
		h.mem.ReadLine() // RFO fill
	}
	flags := cache.FlagDirty
	if ioData {
		flags |= cache.FlagIO | cache.FlagConsumed
	}
	h.fillMLC(core, wl, addr, flags)
	return Result{level, cycles}
}

// fillMLC installs addr into core's MLC, tracking it in the extended
// directory and spilling the MLC victim into the LLC as a victim-cache
// insertion under the core's CAT mask.
func (h *Hierarchy) fillMLC(core int, wl pcm.WorkloadID, addr uint64, flags cache.LineFlags) {
	m := h.mlcs[core]
	victim := m.Fill(addr, int16(wl), -1, flags)

	// Extended-directory tracking; a full set back-invalidates its LRU line.
	if dv, evicted := h.dir.Track(addr, int16(core)); evicted {
		if int(dv.Core) < len(h.mlcs) {
			if old, ok := h.mlcs[dv.Core].Invalidate(dv.Addr); ok && old.Dirty() {
				h.mem.WriteLine()
			}
		}
	}

	if !victim.Valid {
		return
	}
	h.dir.Untrack(victim.Addr)

	// If the victim is still LLC-resident (an LLC-inclusive line), no new
	// allocation happens: the LLC copy simply stops being inclusive.
	if w := h.llc.ProbeWay(victim.Addr); w >= 0 {
		var set cache.LineFlags
		if victim.Dirty() {
			set = cache.FlagDirty
		}
		h.llc.MutateFlags(victim.Addr, w, set, cache.FlagInclusive)
		return
	}

	// Victim-cache insertion under the evicting core's CAT mask.
	mask := h.cat.MaskOf(core)
	ev, way := h.llc.InsertVictim(victim.Addr, mask, victim.Owner, victim.Port, victim.Flags)
	if way < 0 {
		// Empty mask (cannot happen through the CAT API); drop to memory.
		if victim.Dirty() {
			h.mem.WriteLine()
		}
		return
	}
	if victim.IO() && victim.Consumed() {
		if victim.Owner >= 0 {
			h.fabric.C(pcm.WorkloadID(victim.Owner)).DMABloats.Inc()
		}
	}
	if ev.Valid {
		h.retire(ev)
	}
}

// retire handles a line leaving the LLC: write back if dirty, count a DMA
// leak if it was unconsumed I/O data, and — for LLC-inclusive lines — back-
// invalidate the MLC copy, since the shared directory entry coupled to the
// inclusive way disappears with the line.
func (h *Hierarchy) retire(ev cache.Line) {
	if ev.IO() && !ev.Consumed() && ev.Owner >= 0 {
		h.fabric.C(pcm.WorkloadID(ev.Owner)).DMALeaks.Inc()
	}
	if ev.Inclusive() {
		h.invalidateMLCCopy(ev.Addr)
	}
	if ev.Dirty() {
		h.mem.WriteLine()
	}
}

// chance returns true with probability pct/100, deterministically.
func (h *Hierarchy) chance(pct int) bool {
	if pct >= 100 {
		return true
	}
	if pct <= 0 {
		return false
	}
	h.rng ^= h.rng << 13
	h.rng ^= h.rng >> 7
	h.rng ^= h.rng << 17
	return int(h.rng%100) < pct
}

// DMAWrite is one device-to-host line transfer arriving at PCIe port. With
// DCA active for the port it write-updates in place or write-allocates into
// the DCA ways; otherwise it lands in DRAM. Cached stale copies are
// invalidated either way.
func (h *Hierarchy) DMAWrite(port int, wl pcm.WorkloadID, addr uint64) {
	c := h.fabric.C(wl)
	p := h.pcie.Port(port)
	p.AccountInbound(mem.LineBytes)
	c.IOReadBytes.Add(mem.LineBytes)

	if h.pcie.DCAActive(port) {
		if line, way := h.llc.Probe(addr); way >= 0 {
			// Write update in place, in whatever way the line occupies.
			// Updates do not promote the line: DDIO writes refresh data, not
			// replacement age, so stale ring buffers age out of non-DCA ways.
			c.DCAHits.Inc()
			clear := cache.FlagConsumed
			if line.Inclusive() {
				h.invalidateMLCCopy(addr)
				clear |= cache.FlagInclusive
			}
			h.llc.MutateFlags(addr, way, cache.FlagIO|cache.FlagDirty, clear)
			h.llc.SetOwnerPort(addr, way, int16(wl), int8(port))
			return
		}
		// Stale copy in an MLC only: invalidate before allocating.
		h.invalidateMLCCopy(addr)
		c.DCAAllocs.Inc()
		ev, way := h.llc.InsertDCA(addr, int16(wl), int8(port))
		if way < 0 {
			// DDIO mask empty: fall back to DRAM.
			h.mem.WriteLine()
			return
		}
		if ev.Valid {
			h.retire(ev)
		}
		return
	}

	// DCA inactive: DMA to DRAM, invalidating stale cached copies.
	h.mem.WriteLine()
	h.llc.Invalidate(addr) // device overwrite: stale data needs no writeback
	h.invalidateMLCCopy(addr)
}

// DMARead is one host-to-device line transfer (egress). LLC hits are served
// in place; MLC-only lines are read-allocated into the inclusive ways (the
// reverse-engineered egress path); otherwise DRAM serves the read without
// any LLC allocation.
func (h *Hierarchy) DMARead(port int, wl pcm.WorkloadID, addr uint64) {
	c := h.fabric.C(wl)
	p := h.pcie.Port(port)
	p.AccountOutbound(mem.LineBytes)
	c.IOWriteBytes.Add(mem.LineBytes)

	if way := h.llc.ProbeWay(addr); way >= 0 {
		h.llc.Touch(addr, way)
		return
	}
	if core := h.dir.Lookup(addr); core >= 0 {
		// Copy the MLC line into a read-allocated slot in the inclusive ways.
		owner := int16(wl)
		var flags cache.LineFlags
		if l, w := h.mlcs[core].Probe(addr); w >= 0 {
			owner = l.Owner
			if l.Dirty() {
				flags |= cache.FlagDirty
			}
		}
		ev, way := h.llc.InsertInclusive(addr, owner, int8(port), flags)
		if way >= 0 && ev.Valid {
			h.retire(ev)
		}
		return
	}
	h.mem.ReadLine()
}

// invalidateMLCCopy drops addr from whichever MLC holds it, if any.
func (h *Hierarchy) invalidateMLCCopy(addr uint64) {
	core := h.dir.Lookup(addr)
	if core < 0 {
		return
	}
	h.dir.Untrack(addr)
	if core < len(h.mlcs) {
		// The device overwrites the data, so even dirty copies are dropped
		// without writeback.
		h.mlcs[core].Invalidate(addr)
	}
}

// FlushAll empties every cache; used between experiment phases.
func (h *Hierarchy) FlushAll() {
	h.llc.Array().InvalidateAll()
	for _, m := range h.mlcs {
		m.Array().InvalidateAll()
	}
	h.dir.Reset()
}
