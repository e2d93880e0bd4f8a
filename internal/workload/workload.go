// Package workload implements every benchmark the paper runs, as synthetic
// traffic generators over the simulated hierarchy: the DPDK-T/NT and X-Mem
// microbenchmarks, FIO with regex post-processing, and the real-world set of
// Table 2 (Fastclick, FFSB-H/L, Redis-S/C, and SPEC CPU2017 proxies).
//
// CPU workloads are cycle-budgeted actors: one engine "op" is one (scaled)
// core cycle, and a Step issues memory accesses until its cycle budget is
// spent. Service rates therefore respond to cache behaviour — more misses
// mean fewer packets or blocks processed per second — which is the feedback
// loop behind every latency and throughput effect in the paper's figures.
package workload

import (
	"fmt"

	"a4sim/internal/hierarchy"
	"a4sim/internal/mem"
	"a4sim/internal/pcm"
	"a4sim/internal/sim"
)

// Class labels a workload's I/O attachment.
type Class uint8

// Workload classes.
const (
	ClassCompute Class = iota
	ClassNetwork
	ClassStorage
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassNetwork:
		return "network"
	case ClassStorage:
		return "storage"
	default:
		return "compute"
	}
}

// MarshalText encodes the class as its name, the "class" of a report.
func (c Class) MarshalText() ([]byte, error) { return []byte(c.String()), nil }

// UnmarshalText parses a name written by MarshalText.
func (c *Class) UnmarshalText(b []byte) error {
	for _, k := range []Class{ClassCompute, ClassNetwork, ClassStorage} {
		if string(b) == k.String() {
			*c = k
			return nil
		}
	}
	return fmt.Errorf("workload: unknown class %q", b)
}

// Priority is a workload's QoS class, provided by the operator.
type Priority uint8

// Priorities.
const (
	LPW Priority = iota // low-priority (best-effort)
	HPW                 // high-priority (latency-sensitive)
)

// String implements fmt.Stringer.
func (p Priority) String() string {
	if p == HPW {
		return "HPW"
	}
	return "LPW"
}

// Workload is the interface the harness and the A4 daemon program against.
type Workload interface {
	sim.Actor
	ID() pcm.WorkloadID
	Cores() []int
	Class() Class
	// Port is the PCIe port of the attached device, or -1.
	Port() int
	// Progress is a monotonic work counter in workload-specific units
	// (instructions, packets, or bytes); the harness differentiates it to
	// obtain the performance metric of §7 (throughput or IPC proxies).
	Progress() int64
}

// CyclesPerSecond is the unscaled core clock (2.3 GHz Xeon Gold 6140).
const CyclesPerSecond = 2.3e9

// Base carries the bookkeeping shared by all CPU workloads.
type Base struct {
	name     string
	id       pcm.WorkloadID
	cores    []int
	class    Class
	port     int
	h        *hierarchy.Hierarchy
	cyclesPS float64 // aggregate scaled cycles/second across cores
	progress int64
}

// NewBase wires the shared fields. rateScale divides the core clock.
func NewBase(name string, id pcm.WorkloadID, cores []int, class Class, port int,
	h *hierarchy.Hierarchy, rateScale float64) Base {
	if len(cores) == 0 {
		panic("workload: no cores")
	}
	if rateScale <= 0 {
		rateScale = 1
	}
	return Base{
		name:     name,
		id:       id,
		cores:    cores,
		class:    class,
		port:     port,
		h:        h,
		cyclesPS: CyclesPerSecond / rateScale * float64(len(cores)),
	}
}

// Name implements sim.Actor.
func (b *Base) Name() string { return b.name }

// ID returns the pcm workload ID.
func (b *Base) ID() pcm.WorkloadID { return b.id }

// Cores returns the pinned cores.
func (b *Base) Cores() []int { return b.cores }

// Class returns the I/O class.
func (b *Base) Class() Class { return b.class }

// Port returns the attached PCIe port or -1.
func (b *Base) Port() int { return b.port }

// Progress returns the monotonic work counter.
func (b *Base) Progress() int64 { return b.progress }

// OpsPerSecond implements sim.Actor: the aggregate scaled cycle rate.
func (b *Base) OpsPerSecond(now sim.Tick) float64 { return b.cyclesPS }

// charge books instructions and cycles to the pcm fabric.
func (b *Base) charge(inst, cycles int64) {
	c := b.h.Fabric().C(b.id)
	c.Instructions.Add(inst)
	c.Cycles.Add(cycles)
}

// Pattern selects an address-stream shape.
type Pattern uint8

// Access patterns.
const (
	Sequential Pattern = iota
	Random
	Zipf
)

// Stream produces a line-address stream over a working set.
type Stream struct {
	Base    uint64 // first line address
	Lines   uint64
	Pattern Pattern
	Skew    float64 // Zipf skew
	rng     *sim.RNG
	pos     uint64
}

// NewStream allocates a working set of wsBytes from the address space and
// returns a stream over it.
func NewStream(alloc *mem.AddressSpace, wsBytes int64, p Pattern, skew float64, rng *sim.RNG) *Stream {
	lines := uint64((wsBytes + mem.LineBytes - 1) / mem.LineBytes)
	if lines == 0 {
		lines = 1
	}
	return &Stream{
		Base:    alloc.Alloc(wsBytes),
		Lines:   lines,
		Pattern: p,
		Skew:    skew,
		rng:     rng,
	}
}

// skip advances the stream past n accesses without producing addresses: the
// random and Zipf patterns consume exactly one RNG draw per Next call, so
// skipping is an O(1) RNG.Skip; the sequential pattern moves its cursor
// modulo the working set. After skip(n) the stream produces the same
// addresses it would after n discarded Next calls — the fast-forward path's
// draw accounting depends on this equivalence.
func (s *Stream) skip(n uint64) {
	switch s.Pattern {
	case Random, Zipf:
		s.rng.Skip(n)
	default:
		s.pos = (s.pos + n) % s.Lines
	}
}

// Next returns the next line address.
func (s *Stream) Next() uint64 {
	switch s.Pattern {
	case Random:
		return s.Base + s.rng.Uint64n(s.Lines)
	case Zipf:
		// Hash the rank so hot lines spread across sets.
		rank := uint64(s.rng.Zipf(int(s.Lines), s.Skew))
		return s.Base + (rank*0x9E3779B97F4A7C15)%s.Lines
	default:
		a := s.Base + s.pos
		s.pos++
		if s.pos >= s.Lines {
			s.pos = 0
		}
		return a
	}
}
