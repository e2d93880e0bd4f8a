// Package pcm models the hardware performance-counter fabric that the A4
// daemon monitors, in the spirit of Intel Performance Counter Monitor: LLC
// and MLC hits/misses per workload, DDIO (DCA) hits and allocations, DMA
// leak/bloat/directory-contention event counts, instruction/cycle counts
// for IPC, and per-workload I/O traffic. The harness samples the fabric
// once per simulated second, exactly the granularity the real daemon uses.
package pcm

import (
	"fmt"

	"a4sim/internal/stats"
)

// WorkloadID indexes a registered workload.
type WorkloadID int16

// Invalid is the WorkloadID for unattributed traffic.
const Invalid WorkloadID = -1

// Counters is the per-workload hardware counter block.
type Counters struct {
	Name string

	// Core-side cache events.
	MLCHits   stats.Counter
	MLCMisses stats.Counter
	LLCHits   stats.Counter // demand hits after MLC miss (includes migrations)
	LLCMisses stats.Counter // demand misses served by DRAM

	// DDIO events (device-side).
	DCAHits   stats.Counter // DMA write-updates of LLC-resident lines
	DCAAllocs stats.Counter // DMA write-allocates into DCA ways

	// Pathology events.
	DMALeaks     stats.Counter // I/O lines evicted from LLC before consumption
	DMABloats    stats.Counter // consumed I/O lines inserted into standard ways
	DirEvictions stats.Counter // victims displaced from inclusive ways by O1 migration

	// Execution accounting for IPC.
	Instructions stats.Counter
	Cycles       stats.Counter

	// Device traffic attributed to this workload, in bytes.
	IOReadBytes  stats.Counter // device -> host (storage reads, NIC ingress)
	IOWriteBytes stats.Counter // host -> device
}

// Sample is the per-second derived view of one workload's counters.
type Sample struct {
	ID   WorkloadID
	Name string

	MLCHitRate  float64
	MLCMissRate float64
	LLCHitRate  float64
	LLCMissRate float64
	// DCAMissRate is allocations / (hits + allocations): the fraction of DMA
	// writes that did not find their target resident (PCM's DDIO miss).
	DCAMissRate float64
	// LeakRate is leaks / allocations: the fraction of write-allocated I/O
	// lines evicted before a core consumed them.
	LeakRate float64
	IPC      float64

	IOReadGBps  float64
	IOWriteGBps float64

	DMALeaks  int64
	DMABloats int64
}

// IsIOActive reports whether the workload drove device traffic this second.
func (s Sample) IsIOActive() bool { return s.IOReadGBps+s.IOWriteGBps > 0.01 }

// Fabric aggregates all workload counter blocks.
type Fabric struct {
	counters []*Counters
	// RateScale multiplies reported bandwidths to undo the simulation's
	// global rate down-scaling (see DESIGN.md §4).
	RateScale float64
}

// NewFabric returns an empty fabric with the given rate scale (>= 1).
func NewFabric(rateScale float64) *Fabric {
	if rateScale <= 0 {
		rateScale = 1
	}
	return &Fabric{RateScale: rateScale}
}

// Register adds a workload and returns its ID.
func (f *Fabric) Register(name string) WorkloadID {
	f.counters = append(f.counters, &Counters{Name: name})
	return WorkloadID(len(f.counters) - 1)
}

// NumWorkloads returns the number of registered workloads.
func (f *Fabric) NumWorkloads() int { return len(f.counters) }

// C returns the counter block of id; it panics on an invalid ID so that
// attribution bugs fail loudly in tests.
func (f *Fabric) C(id WorkloadID) *Counters {
	if int(id) < 0 || int(id) >= len(f.counters) {
		badWorkloadID(id)
	}
	return f.counters[id]
}

// badWorkloadID is split out so C stays inlineable on the hot path.
func badWorkloadID(id WorkloadID) {
	panic(fmt.Sprintf("pcm: invalid workload id %d", id))
}

// Name returns the registered name of id.
func (f *Fabric) Name(id WorkloadID) string { return f.C(id).Name }

// SampleAll consumes per-second deltas for every workload. seconds is the
// simulated interval length the deltas cover.
func (f *Fabric) SampleAll(seconds float64) []Sample {
	out := make([]Sample, len(f.counters))
	for i, c := range f.counters {
		out[i] = f.sampleOne(WorkloadID(i), c, seconds)
	}
	return out
}

func (f *Fabric) sampleOne(id WorkloadID, c *Counters, seconds float64) Sample {
	mlcH, mlcM := c.MLCHits.Delta(), c.MLCMisses.Delta()
	llcH, llcM := c.LLCHits.Delta(), c.LLCMisses.Delta()
	dcaH, dcaA := c.DCAHits.Delta(), c.DCAAllocs.Delta()
	leaks := c.DMALeaks.Delta()
	bloats := c.DMABloats.Delta()
	inst, cyc := c.Instructions.Delta(), c.Cycles.Delta()
	ioR, ioW := c.IOReadBytes.Delta(), c.IOWriteBytes.Delta()

	s := Sample{
		ID:          id,
		Name:        c.Name,
		MLCHitRate:  stats.Ratio(mlcH, mlcM),
		MLCMissRate: stats.Ratio(mlcM, mlcH),
		LLCHitRate:  stats.Ratio(llcH, llcM),
		LLCMissRate: stats.Ratio(llcM, llcH),
		DCAMissRate: stats.Ratio(dcaA, dcaH),
		DMALeaks:    leaks,
		DMABloats:   bloats,
	}
	if dcaA > 0 {
		s.LeakRate = float64(leaks) / float64(dcaA)
		if s.LeakRate > 1 {
			s.LeakRate = 1
		}
	}
	if cyc > 0 {
		s.IPC = float64(inst) / float64(cyc)
	}
	if seconds > 0 {
		s.IOReadGBps = float64(ioR) * f.RateScale / seconds / 1e9
		s.IOWriteGBps = float64(ioW) * f.RateScale / seconds / 1e9
	}
	return s
}

// GBps converts a raw byte delta over an interval to scaled GB/s.
func (f *Fabric) GBps(bytes int64, seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	return float64(bytes) * f.RateScale / seconds / 1e9
}
