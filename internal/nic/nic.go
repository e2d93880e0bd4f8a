// Package nic models a high-bandwidth network interface (the testbed's
// 100 Gbps ConnectX-6): a DMA engine that writes received packets into
// per-core receive rings line by line through the hierarchy's DMA path, and
// the ring bookkeeping a poll-mode driver consumes from. Offered load,
// packet size and ring geometry are configurable; when a ring is full,
// arriving packets are dropped, as on real hardware.
package nic

import (
	"fmt"

	"a4sim/internal/hierarchy"
	"a4sim/internal/mem"
	"a4sim/internal/pcm"
	"a4sim/internal/sim"
)

// Ring is one receive ring: a circular buffer of packet slots at fixed
// physical addresses plus a descriptor region, as allocated by a DPDK-style
// driver at startup.
type Ring struct {
	Base     uint64 // first line address of the packet buffer area
	DescBase uint64 // first line address of the descriptor area
	Entries  int
	PktLines int // lines per packet slot

	head  int // next slot the NIC fills
	tail  int // next slot the consumer drains
	count int // ready packets

	stamps []float64 // per-slot arrival time in ticks
}

// Full reports whether the ring cannot accept another packet.
func (r *Ring) Full() bool { return r.count >= r.Entries }

// Ready returns the number of consumable packets.
func (r *Ring) Ready() int { return r.count }

// SlotAddr returns the first line address of slot i.
func (r *Ring) SlotAddr(i int) uint64 { return r.Base + uint64(i*r.PktLines) }

// DescAddr returns the descriptor line address covering slot i (descriptors
// are packed 8 per line, so neighbouring slots share descriptor lines).
func (r *Ring) DescAddr(i int) uint64 { return r.DescBase + uint64(i/8) }

// Pop removes the oldest ready packet, returning its slot index and arrival
// stamp. ok is false when the ring is empty.
func (r *Ring) Pop() (slot int, arrival float64, ok bool) {
	if r.count == 0 {
		return 0, 0, false
	}
	slot = r.tail
	arrival = r.stamps[slot]
	r.tail = (r.tail + 1) % r.Entries
	r.count--
	return slot, arrival, true
}

// push marks the head slot ready at time t.
func (r *Ring) push(t float64) {
	r.stamps[r.head] = t
	r.head = (r.head + 1) % r.Entries
	r.count++
}

// Config describes a NIC.
type Config struct {
	Name string
	Port int // PCIe port index
	// LinesPerSec is the offered DMA rate in lines/second, already divided
	// by the simulation's global rate scale.
	LinesPerSec float64
	PacketBytes int
	RingEntries int
	NumRings    int // one ring per served CPU core

	// BurstPeriod and BurstDuty shape arrivals: the NIC delivers its average
	// rate compressed into the first BurstDuty fraction of each period,
	// modeling the bursty traffic of packet generators and coalesced wires.
	// A zero period disables shaping (smooth arrivals).
	BurstPeriod sim.Tick
	BurstDuty   float64
}

// NIC is the device model; it implements sim.Actor.
type NIC struct {
	cfg   Config
	h     *hierarchy.Hierarchy
	wl    pcm.WorkloadID // the network workload this NIC's traffic belongs to
	rings []*Ring

	// currentRing round-robins packet arrivals across rings (RSS).
	currentRing int
	// lineInPkt tracks progress inside the packet being DMA-written.
	lineInPkt int

	dropped int64
	written int64
	rate    float64
}

// New builds a NIC whose ring buffers occupy addresses from the given
// allocator. wl attributes the NIC's DMA traffic to the consuming workload.
func New(cfg Config, h *hierarchy.Hierarchy, wl pcm.WorkloadID, alloc *mem.AddressSpace) *NIC {
	if cfg.NumRings <= 0 || cfg.RingEntries <= 0 || cfg.PacketBytes <= 0 {
		panic("nic: invalid config")
	}
	pktLines := (cfg.PacketBytes + mem.LineBytes - 1) / mem.LineBytes
	n := &NIC{cfg: cfg, h: h, wl: wl, rate: cfg.LinesPerSec}
	for i := 0; i < cfg.NumRings; i++ {
		r := &Ring{
			Base:     alloc.Alloc(int64(cfg.RingEntries*pktLines) * mem.LineBytes),
			DescBase: alloc.Alloc(int64((cfg.RingEntries+7)/8) * mem.LineBytes),
			Entries:  cfg.RingEntries,
			PktLines: pktLines,
		}
		r.stamps = make([]float64, cfg.RingEntries)
		n.rings = append(n.rings, r)
	}
	return n
}

// Name implements sim.Actor.
func (n *NIC) Name() string { return n.cfg.Name }

// Port returns the PCIe port index the NIC is attached to.
func (n *NIC) Port() int { return n.cfg.Port }

// Ring returns ring i (one per consumer core).
func (n *NIC) Ring(i int) *Ring { return n.rings[i] }

// NumRings returns the ring count.
func (n *NIC) NumRings() int { return len(n.rings) }

// PktLines returns lines per packet.
func (n *NIC) PktLines() int { return n.rings[0].PktLines }

// Dropped returns lifetime dropped packets.
func (n *NIC) Dropped() int64 { return n.dropped }

// RingDepth returns the total packets currently queued across all receive
// rings — the instantaneous backlog the telemetry plane samples per second.
func (n *NIC) RingDepth() int {
	depth := 0
	for _, r := range n.rings {
		depth += r.Ready()
	}
	return depth
}

// WrittenPackets returns lifetime delivered packets.
func (n *NIC) WrittenPackets() int64 { return n.written }

// SetRate changes the offered load (lines/second, scaled).
func (n *NIC) SetRate(r float64) { n.rate = r }

// OpsPerSecond implements sim.Actor; one op is one DMA-written line. With
// burst shaping the instantaneous rate is rate/duty inside the burst window
// and zero outside it, averaging to the configured rate.
func (n *NIC) OpsPerSecond(now sim.Tick) float64 {
	if n.cfg.BurstPeriod <= 0 || n.cfg.BurstDuty <= 0 || n.cfg.BurstDuty >= 1 {
		return n.rate
	}
	phase := float64(now%n.cfg.BurstPeriod) / float64(n.cfg.BurstPeriod)
	if phase < n.cfg.BurstDuty {
		return n.rate / n.cfg.BurstDuty
	}
	return 0
}

// Step DMA-writes up to budget lines of arriving packets.
func (n *NIC) Step(now sim.Tick, budget int) int {
	if budget <= 0 {
		return 0
	}
	width := float64(sim.TicksPerEpoch / sim.InterleaveSlices)
	perOp := width / float64(budget)
	done := 0
	for i := 0; i < budget; i++ {
		t := float64(now) + float64(i)*perOp
		r := n.rings[n.currentRing]
		if n.lineInPkt == 0 && r.Full() {
			// Drop the whole arriving packet; the arrival still consumes
			// wire time, so the budget is spent.
			n.dropped++
			done += r.PktLines
			i += r.PktLines - 1
			n.advanceRing()
			continue
		}
		addr := r.SlotAddr(r.head) + uint64(n.lineInPkt)
		n.h.DMAWrite(n.cfg.Port, n.wl, addr)
		n.lineInPkt++
		done++
		if n.lineInPkt >= r.PktLines {
			// Packet complete: update its descriptor line and publish.
			n.h.DMAWrite(n.cfg.Port, n.wl, r.DescAddr(r.head))
			r.push(t)
			n.written++
			n.lineInPkt = 0
			n.advanceRing()
		}
	}
	return done
}

// FastForward implements sim.FastForwarder with the freeze-and-shift model:
// ring contents are frozen (no packets arrive or drop over the gap — the
// monitor extrapolates delivery and drop rates from the detailed windows)
// and the arrival stamps of every ready packet shift with the clock, so
// queueing latencies booked when the consumer resumes exclude the skipped
// interval. The DMA engine holds no RNG state, so no draws are accounted.
func (n *NIC) FastForward(now, dt sim.Tick) {
	d := float64(dt)
	for _, r := range n.rings {
		for i, c := r.tail, r.count; c > 0; c-- {
			r.stamps[i] += d
			i++
			if i == r.Entries {
				i = 0
			}
		}
	}
}

func (n *NIC) advanceRing() {
	n.currentRing = (n.currentRing + 1) % len(n.rings)
}

// String summarizes the NIC for traces.
func (n *NIC) String() string {
	return fmt.Sprintf("nic %s port=%d rings=%d pkt=%dB", n.cfg.Name, n.cfg.Port, len(n.rings), n.cfg.PacketBytes)
}
