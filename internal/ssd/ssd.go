// Package ssd models the testbed's local storage: a RAID-0 array of NVMe
// SSDs behind one PCIe port. Commands (block reads or writes) are submitted
// with a target buffer address; the array services in-flight commands at a
// configurable aggregate line rate with a fixed per-command overhead, which
// yields the real device's throughput curve: IOPS-bound at small blocks,
// bandwidth-bound (saturated) at large ones. Read commands DMA-write the
// block's lines into the host buffer through the hierarchy (hitting DCA ways
// when DDIO is active for the port); write commands DMA-read from the host.
package ssd

import (
	"a4sim/internal/hierarchy"
	"a4sim/internal/pcm"
	"a4sim/internal/sim"
)

// Op distinguishes command directions.
type Op uint8

// Command directions.
const (
	OpRead  Op = iota // device -> host (DMA write)
	OpWrite           // host -> device (DMA read)
)

// Command is one NVMe command.
type Command struct {
	Op       Op
	Buf      uint64 // first line address of the host buffer
	Lines    int    // block size in lines
	WL       pcm.WorkloadID
	Cookie   int     // caller-defined tag (e.g. queue slot)
	Submit   float64 // submission time in ticks
	Complete float64 // completion time in ticks, set by the model

	progress int
	overhead int // remaining per-command overhead lines
}

// Config describes the array.
type Config struct {
	Name string
	Port int
	// LinesPerSec is the aggregate service rate in lines/second (already
	// divided by the global rate scale). Four Gen3 980 PROs behind a x16
	// switch deliver ~13 GB/s, i.e. ~200 M lines/s unscaled.
	LinesPerSec float64
	// OverheadLines is the fixed per-command cost expressed in line-times;
	// it models command processing/IOPS limits and makes small blocks slower.
	OverheadLines int
	// ChunkLines is the service quantum per in-flight command per scheduling
	// round (round-robin across the queue), modeling intra-array striping.
	ChunkLines int
	// Parallelism bounds how many queued commands are serviced concurrently
	// (the array's internal lanes). Commands beyond the window wait, so
	// completions stream out instead of finishing in lockstep.
	Parallelism int
}

// SSD is the array model; it implements sim.Actor.
type SSD struct {
	cfg      Config
	h        *hierarchy.Hierarchy
	inflight []*Command
	next     int // round-robin cursor
	done     []*Command

	completedBytes int64
	servicedCmds   int64
}

// New builds the array.
func New(cfg Config, h *hierarchy.Hierarchy) *SSD {
	if cfg.ChunkLines <= 0 {
		cfg.ChunkLines = 64
	}
	if cfg.OverheadLines < 0 {
		cfg.OverheadLines = 0
	}
	if cfg.Parallelism <= 0 {
		cfg.Parallelism = 64
	}
	return &SSD{cfg: cfg, h: h}
}

// Name implements sim.Actor.
func (s *SSD) Name() string { return s.cfg.Name }

// Port returns the PCIe port index the array is attached to.
func (s *SSD) Port() int { return s.cfg.Port }

// OpsPerSecond implements sim.Actor; one op is one line-time of service.
func (s *SSD) OpsPerSecond(now sim.Tick) float64 { return s.cfg.LinesPerSec }

// QueueDepth returns the number of in-flight commands.
func (s *SSD) QueueDepth() int { return len(s.inflight) }

// CompletedBytes returns lifetime bytes moved by completed commands.
func (s *SSD) CompletedBytes() int64 { return s.completedBytes }

// Submit enqueues a command. The caller retrieves completions with Drain.
func (s *SSD) Submit(c *Command) {
	c.progress = 0
	c.overhead = s.cfg.OverheadLines
	s.inflight = append(s.inflight, c)
}

// Drain returns and clears the completed-command list.
func (s *SSD) Drain() []*Command {
	d := s.done
	s.done = nil
	return d
}

// DrainFor returns and removes the completions belonging to one workload,
// leaving other workloads' completions queued. Multiple consumers sharing
// the array (e.g. FFSB-H and FFSB-L) each collect only their own I/O.
func (s *SSD) DrainFor(wl pcm.WorkloadID) []*Command {
	var mine, rest []*Command
	for _, c := range s.done {
		if c.WL == wl {
			mine = append(mine, c)
		} else {
			rest = append(rest, c)
		}
	}
	s.done = rest
	return mine
}

// FastForward implements sim.FastForwarder with the freeze-and-shift model:
// the service queue is frozen (no lines move, no commands complete — the
// monitor extrapolates device throughput from the detailed windows) and
// every queued timestamp shifts with the clock, so submit-to-complete
// latencies observed after the gap exclude the skipped interval. The array
// holds no RNG state, so no draws are accounted.
func (s *SSD) FastForward(now, dt sim.Tick) {
	d := float64(dt)
	for _, c := range s.inflight {
		c.Submit += d
	}
	for _, c := range s.done {
		c.Submit += d
		c.Complete += d
	}
}

// Step services up to budget line-times across the in-flight queue.
func (s *SSD) Step(now sim.Tick, budget int) int {
	if len(s.inflight) == 0 || budget <= 0 {
		return 0
	}
	width := float64(sim.TicksPerEpoch / sim.InterleaveSlices)
	total := budget
	spent := 0
	for spent < total && len(s.inflight) > 0 {
		window := len(s.inflight)
		if window > s.cfg.Parallelism {
			window = s.cfg.Parallelism
		}
		if s.next >= window {
			s.next = 0
		}
		c := s.inflight[s.next]
		// Per-command overhead burns service time without moving data.
		if c.overhead > 0 {
			burn := min(c.overhead, total-spent)
			c.overhead -= burn
			spent += burn
			if c.overhead > 0 {
				break // budget exhausted mid-overhead
			}
		}
		chunk := min(s.cfg.ChunkLines, total-spent)
		chunk = min(chunk, c.Lines-c.progress)
		for i := 0; i < chunk; i++ {
			addr := c.Buf + uint64(c.progress)
			if c.Op == OpRead {
				s.h.DMAWrite(s.cfg.Port, c.WL, addr)
			} else {
				s.h.DMARead(s.cfg.Port, c.WL, addr)
			}
			c.progress++
		}
		spent += chunk
		if c.progress >= c.Lines {
			c.Complete = float64(now) + float64(spent)*width/float64(total)
			s.completedBytes += int64(c.Lines) * 64
			s.servicedCmds++
			s.done = append(s.done, c)
			s.inflight = append(s.inflight[:s.next], s.inflight[s.next+1:]...)
			continue // do not advance cursor past the removed element
		}
		s.next++
	}
	return spent
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
