package workload

import (
	"a4sim/internal/hierarchy"
	"a4sim/internal/mem"
	"a4sim/internal/sim"
)

// SyntheticConfig describes a CPU-only workload as a memory-access profile:
// working set, pattern, read/write mix, and compute intensity. X-Mem, the
// Redis pair, and the SPEC CPU2017 proxies are all presets of this type.
type SyntheticConfig struct {
	Name    string
	Cores   []int
	WSBytes int64
	Pattern Pattern
	// Skew is the Zipf skew when Pattern == Zipf.
	Skew float64
	// WriteFrac is the probability an access is a store.
	WriteFrac float64
	// InstrPerOp is the number of non-memory instructions per memory access;
	// higher values mean a more compute-bound workload.
	InstrPerOp int
	// CPIBase is the core CPI of those instructions.
	CPIBase float64
	// Overlap divides memory stall cycles, modeling MLP/prefetching.
	Overlap int
	// SharedWS makes all cores walk one shared region instead of private
	// partitions.
	SharedWS  bool
	RateScale float64
}

// Synthetic is the generic cycle-budgeted compute workload.
type Synthetic struct {
	Base
	streams []*Stream
	cfg     SyntheticConfig
	rng     *sim.RNG
	rr      int
	instAcc float64
	// Observed detailed-mode totals (accesses issued, cycles spent) feed the
	// fast-forward extrapolation; ffAcc carries the fractional access count
	// across gaps so long sampled runs stay unbiased.
	obsAcc int64
	obsCyc int64
	ffAcc  float64
}

// NewSynthetic builds a compute workload. Each core receives a private
// partition of the working set unless SharedWS is set.
func NewSynthetic(cfg SyntheticConfig, h *hierarchy.Hierarchy, alloc *mem.AddressSpace, rng *sim.RNG) *Synthetic {
	wid := h.Fabric().Register(cfg.Name)
	if cfg.Overlap <= 0 {
		cfg.Overlap = 1
	}
	if cfg.CPIBase <= 0 {
		cfg.CPIBase = 0.5
	}
	if cfg.Skew <= 0 {
		cfg.Skew = 0.9
	}
	s := &Synthetic{
		Base: NewBase(cfg.Name, wid, cfg.Cores, ClassCompute, -1, h, cfg.RateScale),
		cfg:  cfg,
		rng:  rng.Fork(),
	}
	if cfg.SharedWS {
		shared := NewStream(alloc, cfg.WSBytes, cfg.Pattern, cfg.Skew, rng.Fork())
		for range cfg.Cores {
			s.streams = append(s.streams, shared)
		}
		return s
	}
	per := cfg.WSBytes / int64(len(cfg.Cores))
	if per <= 0 {
		per = mem.LineBytes
	}
	for range cfg.Cores {
		s.streams = append(s.streams, NewStream(alloc, per, cfg.Pattern, cfg.Skew, rng.Fork()))
	}
	return s
}

// Step implements sim.Actor: issue accesses until the cycle budget is spent.
func (s *Synthetic) Step(now sim.Tick, budget int) int {
	spent := 0
	var inst int64
	for spent < budget {
		i := s.rr % len(s.cores)
		s.rr++
		core := s.cores[i]
		addr := s.streams[i].Next()
		var res hierarchy.Result
		if s.cfg.WriteFrac > 0 && s.rng.Float64() < s.cfg.WriteFrac {
			res = s.h.CPUWrite(core, s.id, addr, false)
		} else {
			res = s.h.CPURead(core, s.id, addr, false)
		}
		stall := res.Cycles / s.cfg.Overlap
		if stall < 1 {
			stall = 1
		}
		s.instAcc += float64(s.cfg.InstrPerOp) * s.cfg.CPIBase
		work := int(s.instAcc)
		s.instAcc -= float64(work)
		spent += stall + work
		inst += int64(s.cfg.InstrPerOp) + 1 // +1 for the memory op itself
	}
	s.charge(inst, int64(spent))
	s.progress += inst
	// inst grows by exactly InstrPerOp+1 per access, so the access count is
	// recoverable without an inner-loop counter.
	s.obsAcc += inst / int64(s.cfg.InstrPerOp+1)
	s.obsCyc += int64(spent)
	return spent
}

// FastForward implements sim.FastForwarder. It advances the workload's RNG
// and stream cursors past the accesses its cycle budget would have issued
// over dt, without touching the hierarchy, the pcm fabric, or the progress
// counter (the monitor extrapolates those from the detailed windows). The
// access count is the cycle budget for dt times the observed detailed-mode
// access/cycle rate, with a fractional carry. Draw accounting mirrors Step
// exactly: one stream draw per access for random and Zipf patterns plus one
// write-mix draw per access when WriteFrac > 0, distributed round-robin
// across core slots so per-slot stream cursors land where detailed
// execution's interleaving would put them.
func (s *Synthetic) FastForward(now, dt sim.Tick) {
	if s.obsCyc == 0 {
		return
	}
	cycles := s.cyclesPS * float64(dt) / sim.TicksPerSecond
	want := cycles*float64(s.obsAcc)/float64(s.obsCyc) + s.ffAcc
	n := uint64(want)
	s.ffAcc = want - float64(n)
	if n == 0 {
		return
	}
	slots := uint64(len(s.cores))
	start := uint64(s.rr) % slots
	for j := uint64(0); j < slots; j++ {
		cnt := n / slots
		if (j+slots-start)%slots < n%slots {
			cnt++
		}
		if cnt > 0 {
			// Under SharedWS all slots alias one Stream; per-slot skips
			// accumulate to the same total n draws Step would have made.
			s.streams[j].skip(cnt)
		}
	}
	s.rr += int(n)
	if s.cfg.WriteFrac > 0 {
		s.rng.Skip(n)
	}
}

// XMemConfig describes one X-Mem instance (Table 3 of the paper).
type XMemConfig struct {
	Name      string
	Cores     []int
	WSBytes   int64
	Pattern   Pattern
	Write     bool
	RateScale float64
}

// NewXMem builds an X-Mem instance: a bandwidth-oriented cache-sensitivity
// probe (few instructions per access, streaming-friendly MLP).
func NewXMem(cfg XMemConfig, h *hierarchy.Hierarchy, alloc *mem.AddressSpace, rng *sim.RNG) *Synthetic {
	wf := 0.0
	if cfg.Write {
		wf = 1.0
	}
	overlap := 4
	if cfg.Pattern == Random {
		overlap = 2
	}
	return NewSynthetic(SyntheticConfig{
		Name:       cfg.Name,
		Cores:      cfg.Cores,
		WSBytes:    cfg.WSBytes,
		Pattern:    cfg.Pattern,
		WriteFrac:  wf,
		InstrPerOp: 4,
		CPIBase:    0.4,
		Overlap:    overlap,
		RateScale:  cfg.RateScale,
	}, h, alloc, rng)
}
