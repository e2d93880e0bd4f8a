package hierarchy

import (
	"testing"

	"a4sim/internal/cache"
	"a4sim/internal/llc"
	"a4sim/internal/pcm"
)

// newTest builds a small deterministic hierarchy (pure LRU, migration
// always sticks) with n registered workloads.
func newTest(t *testing.T, n int) (*Hierarchy, []pcm.WorkloadID) {
	t.Helper()
	cfg := TestConfig()
	cfg.LLCVictimRandPct = 0
	cfg.MigrationStickPct = 100
	f := pcm.NewFabric(1)
	ids := make([]pcm.WorkloadID, n)
	for i := range ids {
		ids[i] = f.Register("wl")
	}
	return New(cfg, f), ids
}

func TestCPUReadMissFillsMLCOnly(t *testing.T) {
	h, ids := newTest(t, 1)
	res := h.CPURead(0, ids[0], 100, false)
	if res.Level != LevelMem {
		t.Fatalf("cold read level = %v", res.Level)
	}
	if l, _ := h.MLC(0).Probe(100); !l.Valid {
		t.Fatalf("line should be in the MLC")
	}
	if l, _ := h.LLC().Probe(100); l.Valid {
		t.Fatalf("non-inclusive fill must not allocate in the LLC")
	}
	if h.Directory().Lookup(100) != 0 {
		t.Fatalf("extended directory should track the MLC line")
	}
	if h.Memory().ReadBytes() != 64 {
		t.Fatalf("memory read not accounted")
	}
	c := h.Fabric().C(ids[0])
	if c.MLCMisses.Total() != 1 || c.LLCMisses.Total() != 1 {
		t.Fatalf("counters wrong: %d %d", c.MLCMisses.Total(), c.LLCMisses.Total())
	}
}

func TestMLCHitPath(t *testing.T) {
	h, ids := newTest(t, 1)
	h.CPURead(0, ids[0], 100, false)
	res := h.CPURead(0, ids[0], 100, false)
	if res.Level != LevelMLC {
		t.Fatalf("second read should hit MLC, got %v", res.Level)
	}
	if h.Fabric().C(ids[0]).MLCHits.Total() != 1 {
		t.Fatalf("MLC hit not counted")
	}
}

// fillMLCSet evicts a line from core's MLC by filling its set.
func fillMLCSet(h *Hierarchy, core int, wl pcm.WorkloadID, victim uint64) {
	sets := uint64(h.Config().MLC.Sets)
	ways := h.Config().MLC.Ways
	for i := 1; i <= ways; i++ {
		h.CPURead(core, wl, victim+sets*uint64(i), false)
	}
}

func TestVictimCacheInsertion(t *testing.T) {
	h, ids := newTest(t, 1)
	h.CPURead(0, ids[0], 100, false)
	fillMLCSet(h, 0, ids[0], 100)
	// 100 must have been evicted from the MLC into the LLC.
	if l, _ := h.MLC(0).Probe(100); l.Valid {
		t.Fatalf("line should have left the MLC")
	}
	if l, _ := h.LLC().Probe(100); !l.Valid {
		t.Fatalf("victim must be cached in the LLC")
	}
	// A re-read hits the LLC and promotes back, invalidating the LLC copy
	// (victim-cache behaviour for non-I/O lines).
	res := h.CPURead(0, ids[0], 100, false)
	if res.Level != LevelLLC {
		t.Fatalf("re-read level = %v", res.Level)
	}
	if l, _ := h.LLC().Probe(100); l.Valid {
		t.Fatalf("promotion must invalidate the LLC copy of a non-I/O line")
	}
}

func TestVictimInsertHonoursCAT(t *testing.T) {
	h, ids := newTest(t, 1)
	if err := h.CAT().SetWayRange(1, 5, 6); err != nil {
		t.Fatal(err)
	}
	if err := h.CAT().Associate(0, 1); err != nil {
		t.Fatal(err)
	}
	h.CPURead(0, ids[0], 100, false)
	fillMLCSet(h, 0, ids[0], 100)
	if w := h.LLC().ProbeWay(100); w != 5 && w != 6 {
		t.Fatalf("victim landed in way %d, CAT mask [5:6]", w)
	}
}

func TestDMAWriteAllocatesDCAWays(t *testing.T) {
	h, ids := newTest(t, 1)
	h.DMAWrite(0, ids[0], 500)
	w := h.LLC().ProbeWay(500)
	if h.LLC().RoleOf(w) != llc.RoleDCA {
		t.Fatalf("DMA write-allocate in way %d (role %v)", w, h.LLC().RoleOf(w))
	}
	l, _ := h.LLC().Probe(500)
	if !l.IO() || !l.Dirty() || l.Consumed() {
		t.Fatalf("DMA line flags wrong: %+v", l)
	}
	c := h.Fabric().C(ids[0])
	if c.DCAAllocs.Total() != 1 || c.DCAHits.Total() != 0 {
		t.Fatalf("DCA counters wrong")
	}
	// Second write to the same line is a write update, wherever it is.
	h.DMAWrite(0, ids[0], 500)
	if c.DCAHits.Total() != 1 {
		t.Fatalf("write update not counted as DCA hit")
	}
}

func TestDMAWriteUpdateOutsideDCAWays(t *testing.T) {
	h, ids := newTest(t, 1)
	// Get a CPU line into a standard way via the victim path.
	h.CPURead(0, ids[0], 100, false)
	fillMLCSet(h, 0, ids[0], 100)
	w := h.LLC().ProbeWay(100)
	if w < 0 {
		t.Fatalf("setup failed")
	}
	// The device writes that address: in-place update, same way.
	h.DMAWrite(0, ids[0], 100)
	if got := h.LLC().ProbeWay(100); got != w {
		t.Fatalf("write update moved the line: %d -> %d", w, got)
	}
	l, _ := h.LLC().Probe(100)
	if !l.IO() || l.Consumed() {
		t.Fatalf("update must mark the line unconsumed I/O: %+v", l)
	}
}

func TestDMALeakCounting(t *testing.T) {
	h, ids := newTest(t, 1)
	g := h.Config().LLC
	// Fill both DCA ways of set 0, then force one more allocation: the
	// evicted line was never consumed, so it is a DMA leak.
	sets := uint64(g.Sets)
	h.DMAWrite(0, ids[0], 1*sets)
	h.DMAWrite(0, ids[0], 2*sets)
	h.DMAWrite(0, ids[0], 3*sets)
	if got := h.Fabric().C(ids[0]).DMALeaks.Total(); got != 1 {
		t.Fatalf("DMA leaks = %d, want 1", got)
	}
	// Leaked line was dirty: written back to memory.
	if h.Memory().WriteBytes() == 0 {
		t.Fatalf("leak writeback missing")
	}
}

func TestO1MigrationAndDirectoryContention(t *testing.T) {
	h, ids := newTest(t, 2)
	g := h.Config().LLC
	sets := uint64(g.Sets)

	// A victim of workload 1 occupies an inclusive way of set 0.
	if err := h.CAT().SetWayRange(1, 9, 10); err != nil {
		t.Fatal(err)
	}
	if err := h.CAT().Associate(1, 1); err != nil {
		t.Fatal(err)
	}
	h.CPURead(1, ids[1], 7*sets, false)
	fillMLCSet(h, 1, ids[1], 7*sets)
	h.CPURead(1, ids[1], 8*sets, false)
	fillMLCSet(h, 1, ids[1], 8*sets)
	if h.LLC().RoleOf(h.LLC().ProbeWay(7*sets)) != llc.RoleInclusive {
		t.Fatalf("setup: victim not in inclusive way")
	}

	// A DMA line arrives and is read by core 0: O1 migration.
	h.DMAWrite(0, ids[0], 3*sets)
	res := h.CPURead(0, ids[0], 3*sets, true)
	if res.Level != LevelLLC {
		t.Fatalf("consuming read level = %v", res.Level)
	}
	w := h.LLC().ProbeWay(3 * sets)
	if h.LLC().RoleOf(w) != llc.RoleInclusive {
		t.Fatalf("consumed DMA line must migrate to inclusive ways, got way %d", w)
	}
	l, _ := h.LLC().Probe(3 * sets)
	if !l.Inclusive() || !l.Consumed() {
		t.Fatalf("migrated line state wrong: %+v", l)
	}
	// One of workload 1's lines was displaced: directory contention.
	if h.Fabric().C(ids[0]).DirEvictions.Total() == 0 {
		t.Fatalf("directory eviction not counted")
	}
}

func TestDMABloat(t *testing.T) {
	h, ids := newTest(t, 1)
	// Migration disabled: consumed I/O lines always take the bloat path.
	cfg := TestConfig()
	cfg.LLCVictimRandPct = 0
	cfg.MigrationStickPct = 0
	f := pcm.NewFabric(1)
	id := f.Register("net")
	h = New(cfg, f)
	_ = ids

	if err := h.CAT().SetWayRange(1, 5, 6); err != nil {
		t.Fatal(err)
	}
	if err := h.CAT().Associate(0, 1); err != nil {
		t.Fatal(err)
	}
	h.DMAWrite(0, id, 900)
	h.CPURead(0, id, 900, true) // consume: LLC copy dropped (race lost)
	if l, _ := h.LLC().Probe(900); l.Valid {
		t.Fatalf("with MigrationStickPct=0 the LLC copy should be invalidated")
	}
	fillMLCSet(h, 0, id, 900)
	// The consumed I/O line re-entered the LLC under the CAT mask: bloat.
	w := h.LLC().ProbeWay(900)
	if w != 5 && w != 6 {
		t.Fatalf("bloated line in way %d, want CAT ways [5:6]", w)
	}
	if f.C(id).DMABloats.Total() == 0 {
		t.Fatalf("DMA bloat not counted")
	}
}

func TestDCAOffPathInvalidates(t *testing.T) {
	h, ids := newTest(t, 1)
	h.PCIe().SetGlobalDCA(false)
	h.DMAWrite(0, ids[0], 700)
	if l, _ := h.LLC().Probe(700); l.Valid {
		t.Fatalf("DCA off must not allocate in the LLC")
	}
	if h.Memory().WriteBytes() == 0 {
		t.Fatalf("DMA to DRAM not accounted")
	}
	// Stale cached copies are invalidated on device write.
	h.PCIe().SetGlobalDCA(true)
	h.CPURead(0, ids[0], 701, false)
	h.PCIe().SetGlobalDCA(false)
	h.DMAWrite(0, ids[0], 701)
	if l, _ := h.MLC(0).Probe(701); l.Valid {
		t.Fatalf("device write must invalidate the MLC copy")
	}
}

func TestPerPortDCA(t *testing.T) {
	h, ids := newTest(t, 1)
	h.PCIe().SetPortDCA(1, false) // SSD port off, NIC port on
	h.DMAWrite(1, ids[0], 800)
	if l, _ := h.LLC().Probe(800); l.Valid {
		t.Fatalf("port-1 DMA must bypass the LLC")
	}
	h.DMAWrite(0, ids[0], 801)
	if l, _ := h.LLC().Probe(801); !l.Valid {
		t.Fatalf("port-0 DMA must still allocate")
	}
}

func TestDMAReadEgress(t *testing.T) {
	h, ids := newTest(t, 1)
	// LLC-resident data: served from the LLC, no memory read.
	h.DMAWrite(0, ids[0], 600)
	h.DMARead(0, ids[0], 600)
	if h.Memory().ReadBytes() != 0 {
		t.Fatalf("LLC-resident egress should not read memory")
	}
	// MLC-only data: read-allocated into the inclusive ways.
	h.CPUWrite(0, ids[0], 601, false)
	h.DMARead(0, ids[0], 601)
	w := h.LLC().ProbeWay(601)
	if h.LLC().RoleOf(w) != llc.RoleInclusive {
		t.Fatalf("MLC-only egress should allocate an inclusive way, got %d", w)
	}
	// Uncached data: straight from memory, no allocation.
	before := h.LLC().Array().CountValid(h.LLC().AllMask())
	h.DMARead(0, ids[0], 602)
	if h.Memory().ReadBytes() == 0 {
		t.Fatalf("uncached egress must read memory")
	}
	if after := h.LLC().Array().CountValid(h.LLC().AllMask()); after != before {
		t.Fatalf("uncached egress must not allocate")
	}
}

func TestCPUWriteRFO(t *testing.T) {
	h, ids := newTest(t, 1)
	h.CPUWrite(0, ids[0], 300, false)
	l, _ := h.MLC(0).Probe(300)
	if !l.Valid || !l.Dirty() {
		t.Fatalf("store must dirty the MLC line")
	}
	// Store to an LLC-resident line invalidates the shared copy.
	h.DMAWrite(0, ids[0], 301)
	h.CPUWrite(0, ids[0], 301, true)
	if l, _ := h.LLC().Probe(301); l.Valid {
		t.Fatalf("RFO must invalidate the LLC copy")
	}
}

func TestInclusiveEvictionBackInvalidatesMLC(t *testing.T) {
	h, ids := newTest(t, 1)
	g := h.Config().LLC
	sets := uint64(g.Sets)
	// Consume a DMA line so it sits in an inclusive way and the MLC.
	h.DMAWrite(0, ids[0], 1*sets)
	h.CPURead(0, ids[0], 1*sets, true)
	if l, _ := h.MLC(0).Probe(1 * sets); !l.Valid {
		t.Fatalf("setup: line must be in MLC")
	}
	// Thrash the inclusive ways of set 0 with two more migrations.
	h.DMAWrite(0, ids[0], 2*sets)
	h.CPURead(0, ids[0], 2*sets, true)
	h.DMAWrite(0, ids[0], 3*sets)
	h.CPURead(0, ids[0], 3*sets, true)
	// The first line was evicted from the inclusive way; its MLC copy must
	// have been back-invalidated with it.
	if l, _ := h.LLC().Probe(1 * sets); !l.Valid {
		if ml, _ := h.MLC(0).Probe(1 * sets); ml.Valid {
			t.Fatalf("inclusive eviction must back-invalidate the MLC copy")
		}
	}
}

func TestCrossCoreTransfer(t *testing.T) {
	h, ids := newTest(t, 1)
	// Core 0 dirties a line; core 1 reads it: served cache-to-cache via the
	// directory, with exactly one MLC copy afterwards and no DRAM read.
	h.CPUWrite(0, ids[0], 100, false)
	memReads := h.Memory().ReadBytes()
	res := h.CPURead(1, ids[0], 100, false)
	if res.Level != LevelLLC {
		t.Fatalf("snooped read level = %v, want LLC-class latency", res.Level)
	}
	if h.Memory().ReadBytes() != memReads {
		t.Fatalf("cache-to-cache transfer must not read DRAM")
	}
	if l, _ := h.MLC(0).Probe(100); l.Valid {
		t.Fatalf("old owner must be invalidated")
	}
	if l, _ := h.MLC(1).Probe(100); !l.Valid || !l.Dirty() {
		t.Fatalf("dirty state must transfer to the new owner")
	}
	if h.Directory().Lookup(100) != 1 {
		t.Fatalf("directory ownership not transferred")
	}
	// RFO from core 0 pulls it back.
	h.CPUWrite(0, ids[0], 100, false)
	if l, _ := h.MLC(1).Probe(100); l.Valid {
		t.Fatalf("RFO must invalidate the remote copy")
	}
}

func TestFlushAll(t *testing.T) {
	h, ids := newTest(t, 1)
	h.CPURead(0, ids[0], 100, false)
	h.DMAWrite(0, ids[0], 200)
	if h.Directory().Lookup(100) != 0 {
		t.Fatalf("setup: core 0's read not tracked")
	}
	h.FlushAll()
	if h.LLC().Array().CountValid(cache.MaskAll(h.Config().LLC.Ways)) != 0 {
		t.Fatalf("LLC not flushed")
	}
	if l, _ := h.MLC(0).Probe(100); l.Valid {
		t.Fatalf("MLC not flushed")
	}
	if h.Directory().Lookup(100) != -1 {
		t.Fatalf("directory not flushed")
	}
}

func TestLevelString(t *testing.T) {
	if LevelMLC.String() != "mlc" || LevelLLC.String() != "llc" || LevelMem.String() != "mem" {
		t.Errorf("level names wrong")
	}
}
