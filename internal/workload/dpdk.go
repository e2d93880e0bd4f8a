package workload

import (
	"a4sim/internal/hierarchy"
	"a4sim/internal/mem"
	"a4sim/internal/nic"
	"a4sim/internal/pcm"
	"a4sim/internal/sim"
	"a4sim/internal/stats"
)

// DPDKConfig describes a poll-mode network workload. With Touch=false it is
// DPDK-NT (reads only descriptors and drops packets); with Touch=true it is
// DPDK-T (touches every payload line, e.g. deep packet inspection); with
// Forward=true it additionally DMA-reads the packet back out (Fastclick-like
// forwarding).
type DPDKConfig struct {
	Name    string
	Cores   []int
	Touch   bool
	Forward bool
	// InstrPerPkt is the per-packet processing instruction count.
	InstrPerPkt int
	CPIBase     float64
	// Overlap divides payload-line stall cycles (prefetch/MLP).
	Overlap int
	// PollCycles is the cost of an empty poll iteration.
	PollCycles int
	RateScale  float64
}

// DPDK is the poll-mode consumer bound to one NIC (one ring per core).
type DPDK struct {
	Base
	cfg DPDKConfig
	nic *nic.NIC
	rr  int

	lat     *stats.Reservoir // total packet latency, microseconds (unscaled)
	waitLat *stats.Reservoir // ring queueing portion
	descLat *stats.Reservoir // pointer (descriptor) access portion
	procLat *stats.Reservoir // payload processing portion

	instAcc float64
}

// NewDPDK builds the workload; the NIC must have one ring per core.
func NewDPDK(cfg DPDKConfig, h *hierarchy.Hierarchy, n *nic.NIC, id pcm.WorkloadID) *DPDK {
	if n.NumRings() != len(cfg.Cores) {
		panic("workload: DPDK needs one NIC ring per core")
	}
	if cfg.Overlap <= 0 {
		cfg.Overlap = 4
	}
	if cfg.CPIBase <= 0 {
		cfg.CPIBase = 0.5
	}
	if cfg.PollCycles <= 0 {
		cfg.PollCycles = 100
	}
	return &DPDK{
		Base:    NewBase(cfg.Name, id, cfg.Cores, ClassNetwork, n.Port(), h, cfg.RateScale),
		cfg:     cfg,
		nic:     n,
		lat:     stats.NewReservoir(8192),
		waitLat: stats.NewReservoir(4096),
		descLat: stats.NewReservoir(4096),
		procLat: stats.NewReservoir(4096),
	}
}

// SetPort records the NIC's PCIe port for A4's device mapping.
func (d *DPDK) SetPort(p int) { d.port = p }

// Latency returns the total-latency reservoir (microseconds, unscaled by
// the harness at report time).
func (d *DPDK) Latency() *stats.Reservoir { return d.lat }

// LatencyBreakdown returns (queueing, pointer-access, processing)
// reservoirs for the Fig. 14a breakdown.
func (d *DPDK) LatencyBreakdown() (wait, desc, proc *stats.Reservoir) {
	return d.waitLat, d.descLat, d.procLat
}

// ResetLatency clears all latency reservoirs (between measurement windows).
func (d *DPDK) ResetLatency() {
	d.lat.Reset()
	d.waitLat.Reset()
	d.descLat.Reset()
	d.procLat.Reset()
}

// FastForward implements sim.FastForwarder as a documented no-op: the poll
// loop owns no timestamps — packet arrival stamps live in the NIC rings,
// which rebase them in their own FastForward during the same pass — and a
// frozen pipeline adds nothing to the latency reservoirs, so their sampling
// streams consume no draws over the gap.
func (d *DPDK) FastForward(now, dt sim.Tick) {}

// Step implements sim.Actor: poll rings and process packets until the cycle
// budget is spent.
func (d *DPDK) Step(now sim.Tick, budget int) int {
	spent := 0
	var inst int64
	width := float64(sim.TicksPerEpoch / sim.InterleaveSlices)
	emptyPolls := 0
	for spent < budget {
		i := d.rr % len(d.cores)
		d.rr++
		core := d.cores[i]
		ring := d.nic.Ring(i)
		slot, arrival, ok := ring.Pop()
		if !ok {
			spent += d.cfg.PollCycles
			emptyPolls++
			if emptyPolls >= len(d.cores) {
				// All rings empty: idle out the remaining budget cheaply.
				spent = budget
				break
			}
			continue
		}
		emptyPolls = 0

		// Pointer access: read the descriptor line.
		resDesc := d.h.CPURead(core, d.id, ring.DescAddr(slot), true)
		descCycles := resDesc.Cycles

		// Payload processing.
		procCycles := 0
		if d.cfg.Touch {
			base := ring.SlotAddr(slot)
			for l := 0; l < ring.PktLines; l++ {
				res := d.h.CPURead(core, d.id, base+uint64(l), true)
				s := res.Cycles / d.cfg.Overlap
				if s < 1 {
					s = 1
				}
				procCycles += s
			}
		}
		d.instAcc += float64(d.cfg.InstrPerPkt) * d.cfg.CPIBase
		work := int(d.instAcc)
		d.instAcc -= float64(work)
		procCycles += work

		if d.cfg.Forward {
			base := ring.SlotAddr(slot)
			for l := 0; l < ring.PktLines; l++ {
				d.h.DMARead(d.port, d.id, base+uint64(l))
			}
		}

		cost := descCycles + procCycles
		spent += cost
		inst += int64(d.cfg.InstrPerPkt) + int64(ring.PktLines) + 1
		d.progress++

		// Latency: ring wait in ticks plus service time in cycles. The
		// harness divides the tick portion by RateScale when reporting.
		tNow := float64(now) + float64(spent)/float64(budget)*width
		wait := tNow - arrival
		if wait < 0 {
			wait = 0
		}
		svc := float64(cost) / (mem.CyclesPerMicro / d.cfg.RateScale)
		d.lat.Add(wait + svc)
		d.waitLat.Add(wait)
		d.descLat.Add(float64(descCycles) / (mem.CyclesPerMicro / d.cfg.RateScale))
		d.procLat.Add(float64(procCycles) / (mem.CyclesPerMicro / d.cfg.RateScale))
	}
	d.charge(inst, int64(spent))
	return spent
}
