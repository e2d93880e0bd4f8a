package workload

import (
	"a4sim/internal/hierarchy"
	"a4sim/internal/mem"
	"a4sim/internal/pcm"
	"a4sim/internal/sim"
	"a4sim/internal/ssd"
	"a4sim/internal/stats"
)

// FIOConfig describes an asynchronous storage workload: the paper's modified
// FIO (libaio threads doing O_DIRECT random reads plus regex matching over
// each completed block), and via WriteFrac also the FFSB profiles.
type FIOConfig struct {
	Name       string
	Cores      []int // one libaio thread per core
	BlockBytes int
	QueueDepth int // per thread
	// WriteFrac is the fraction of commands that are writes (FFSB).
	WriteFrac float64
	// Buffered selects the buffered-I/O ingress path of Fig. 2 (blue): the
	// device fills a kernel buffer and the CPU copies each line into a
	// separate user buffer, doubling the CPU-side traffic. The default is
	// Direct I/O (O_DIRECT), where the DMA target is the user buffer.
	Buffered bool
	// InstrPerLine is the regex-matching instruction count per 64 B line.
	InstrPerLine int
	CPIBase      float64
	Overlap      int
	PollCycles   int
	RateScale    float64
}

// FIO is the storage consumer bound to one SSD array.
type FIO struct {
	Base
	cfg FIOConfig
	dev *ssd.SSD
	rng *sim.RNG

	// Per-thread buffer pools: slots[t][q] is the base line address of the
	// q-th DMA-target buffer of thread t (the user buffer under Direct I/O,
	// the kernel buffer under buffered I/O).
	slots [][]uint64
	// userSlots mirror slots with the user-space destination buffers when
	// the buffered path is enabled.
	userSlots [][]uint64
	// completed[t] queues blocks awaiting regex processing.
	completed [][]*ssd.Command

	readLat *stats.Reservoir // submit-to-complete, ticks
	procLat *stats.Reservoir // regex time, ticks

	rr         int
	started    bool
	instAcc    float64
	curCmd     []*ssd.Command // per-thread command being processed
	curLine    []int
	curStarted []float64
}

// NewFIO builds the workload and its buffer pools.
func NewFIO(cfg FIOConfig, h *hierarchy.Hierarchy, dev *ssd.SSD, id pcm.WorkloadID,
	alloc *mem.AddressSpace, rng *sim.RNG) *FIO {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 32
	}
	if cfg.Overlap <= 0 {
		// Storage block scans stream well; deep MLP hides most of the miss
		// latency, keeping consumption faster than the array (Fig. 5).
		cfg.Overlap = 8
	}
	if cfg.CPIBase <= 0 {
		cfg.CPIBase = 0.5
	}
	if cfg.PollCycles <= 0 {
		cfg.PollCycles = 200
	}
	f := &FIO{
		Base:    NewBase(cfg.Name, id, cfg.Cores, ClassStorage, devPort(dev), h, cfg.RateScale),
		cfg:     cfg,
		dev:     dev,
		rng:     rng,
		readLat: stats.NewReservoir(4096),
		procLat: stats.NewReservoir(4096),
	}
	blockLines := (cfg.BlockBytes + mem.LineBytes - 1) / mem.LineBytes
	for range cfg.Cores {
		pool := make([]uint64, cfg.QueueDepth)
		for q := range pool {
			pool[q] = alloc.AllocLines(int64(blockLines))
		}
		f.slots = append(f.slots, pool)
		f.completed = append(f.completed, nil)
		if cfg.Buffered {
			user := make([]uint64, cfg.QueueDepth)
			for q := range user {
				user[q] = alloc.AllocLines(int64(blockLines))
			}
			f.userSlots = append(f.userSlots, user)
		}
	}
	f.curCmd = make([]*ssd.Command, len(cfg.Cores))
	f.curLine = make([]int, len(cfg.Cores))
	f.curStarted = make([]float64, len(cfg.Cores))
	return f
}

func devPort(d *ssd.SSD) int {
	// The SSD's port is part of its config; expose through a tiny accessor.
	return d.Port()
}

// BlockLines returns the block size in lines.
func (f *FIO) BlockLines() int {
	return (f.cfg.BlockBytes + mem.LineBytes - 1) / mem.LineBytes
}

// ReadLatency returns the device-read latency reservoir (ticks).
func (f *FIO) ReadLatency() *stats.Reservoir { return f.readLat }

// ProcLatency returns the regex processing latency reservoir (ticks).
func (f *FIO) ProcLatency() *stats.Reservoir { return f.procLat }

// ResetLatency clears the latency reservoirs.
func (f *FIO) ResetLatency() {
	f.readLat.Reset()
	f.procLat.Reset()
}

// FastForward implements sim.FastForwarder with the freeze-and-shift model:
// the I/O pipeline (queued completions and the block each thread is
// mid-regex over) is frozen in place, and every workload-owned timestamp
// moves with the clock so latencies booked when processing resumes exclude
// the skipped interval. Commands still inside the device are shifted by the
// SSD's own FastForward. No RNG draws are skipped: submissions only happen
// on completion, and a frozen pipeline completes nothing.
func (f *FIO) FastForward(now, dt sim.Tick) {
	d := float64(dt)
	for t := range f.cores {
		if f.curCmd[t] != nil {
			f.curCmd[t].Submit += d
			f.curCmd[t].Complete += d
			f.curStarted[t] += d
		}
		for _, c := range f.completed[t] {
			c.Submit += d
			c.Complete += d
		}
	}
}

// submit issues a fresh command for thread t, slot q.
func (f *FIO) submit(t, q int, now float64) {
	op := ssd.OpRead
	if f.cfg.WriteFrac > 0 && f.rng.Float64() < f.cfg.WriteFrac {
		op = ssd.OpWrite
	}
	f.dev.Submit(&ssd.Command{
		Op:     op,
		Buf:    f.slots[t][q],
		Lines:  f.BlockLines(),
		WL:     f.id,
		Cookie: t*f.cfg.QueueDepth + q,
		Submit: now,
	})
}

// Step implements sim.Actor.
func (f *FIO) Step(now sim.Tick, budget int) int {
	if !f.started {
		f.started = true
		for t := range f.cores {
			for q := 0; q < f.cfg.QueueDepth; q++ {
				f.submit(t, q, float64(now))
			}
		}
	}
	// Collect this workload's completions into per-thread queues.
	for _, c := range f.dev.DrainFor(f.id) {
		t := c.Cookie / f.cfg.QueueDepth
		f.readLat.Add(c.Complete - c.Submit)
		f.completed[t] = append(f.completed[t], c)
	}

	spent := 0
	var inst int64
	idleThreads := 0
	for spent < budget {
		t := f.rr % len(f.cores)
		f.rr++
		core := f.cores[t]

		if f.curCmd[t] == nil {
			if len(f.completed[t]) == 0 {
				spent += f.cfg.PollCycles
				idleThreads++
				if idleThreads >= len(f.cores) {
					spent = budget
					break
				}
				continue
			}
			f.curCmd[t] = f.completed[t][0]
			f.completed[t] = f.completed[t][1:]
			f.curLine[t] = 0
			f.curStarted[t] = float64(now)
		}
		idleThreads = 0

		// Process a batch of lines of the current block (regex matching).
		c := f.curCmd[t]
		batch := 16
		for i := 0; i < batch && f.curLine[t] < c.Lines; i++ {
			addr := c.Buf + uint64(f.curLine[t])
			var res hierarchy.Result
			if c.Op == ssd.OpWrite {
				// FFSB write path: the CPU generates the data.
				res = f.h.CPUWrite(core, f.id, addr, true)
			} else {
				res = f.h.CPURead(core, f.id, addr, true)
			}
			stall := res.Cycles / f.cfg.Overlap
			if stall < 1 {
				stall = 1
			}
			if f.cfg.Buffered && c.Op == ssd.OpRead {
				// Kernel-to-user copy: one store into the user buffer.
				q := c.Cookie % f.cfg.QueueDepth
				ures := f.h.CPUWrite(core, f.id, f.userSlots[t][q]+uint64(f.curLine[t]), false)
				us := ures.Cycles / f.cfg.Overlap
				if us < 1 {
					us = 1
				}
				stall += us
				inst++
			}
			f.instAcc += float64(f.cfg.InstrPerLine) * f.cfg.CPIBase
			work := int(f.instAcc)
			f.instAcc -= float64(work)
			spent += stall + work
			inst += int64(f.cfg.InstrPerLine) + 1
			f.curLine[t]++
		}
		if f.curLine[t] >= c.Lines {
			f.procLat.Add(float64(now) - f.curStarted[t])
			f.progress += int64(c.Lines) * mem.LineBytes
			q := c.Cookie % f.cfg.QueueDepth
			f.submit(t, q, float64(now))
			f.curCmd[t] = nil
		}
	}
	f.charge(inst, int64(spent))
	return spent
}
