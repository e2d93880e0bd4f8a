// Package mlc models the private per-core mid-level cache (L2) of a
// Skylake-SP server core: 1 MiB, 16-way. In the non-inclusive hierarchy the
// MLC is where demand fills land first; its evictions feed the LLC as a
// victim cache, which is the mechanism behind DMA bloat.
package mlc

import "a4sim/internal/cache"

// Geometry describes one MLC.
type Geometry struct {
	Sets int // power of two
	Ways int
}

// SkylakeGeometry returns the Xeon Gold 6140 MLC: 1 MiB, 16-way
// (1024 sets x 16 ways x 64 B).
func SkylakeGeometry() Geometry { return Geometry{Sets: 1024, Ways: 16} }

// TestGeometry returns a small MLC for unit tests.
func TestGeometry() Geometry { return Geometry{Sets: 64, Ways: 8} }

// SizeBytes returns the capacity assuming 64-byte lines.
func (g Geometry) SizeBytes() int64 { return int64(g.Sets) * int64(g.Ways) * 64 }

// MLC is one core's private mid-level cache.
type MLC struct {
	arr  *cache.Cache
	core int16
	all  cache.WayMask
}

// New constructs the MLC for a core.
func New(g Geometry, core int16) *MLC {
	return &MLC{arr: cache.New(g.Sets, g.Ways), core: core, all: cache.MaskAll(g.Ways)}
}

// Core returns the owning core index.
func (m *MLC) Core() int16 { return m.core }

// Array exposes the underlying array for stats and tests.
func (m *MLC) Array() *cache.Cache { return m.arr }

// Probe looks up a line, returning a copy and its way, or (Line{}, -1).
func (m *MLC) Probe(addr uint64) (cache.Line, int) { return m.arr.Probe(addr) }

// ProbeWay returns the way addr occupies, or -1, without materializing the
// line metadata.
func (m *MLC) ProbeWay(addr uint64) int { return m.arr.ProbeWay(addr) }

// Touch promotes the line at (addr, way) to MRU.
func (m *MLC) Touch(addr uint64, way int) { m.arr.Touch(addr, way) }

// MutateFlags sets then clears flag bits on the resident line at (addr, way).
func (m *MLC) MutateFlags(addr uint64, way int, set, clear cache.LineFlags) {
	m.arr.MutateFlags(addr, way, set, clear)
}

// Fill allocates addr and returns the evicted victim (Valid=false if none).
func (m *MLC) Fill(addr uint64, owner int16, port int8, flags cache.LineFlags) cache.Line {
	ev, _ := m.arr.Insert(addr, m.all, owner, port, flags)
	return ev
}

// Invalidate drops addr if present.
func (m *MLC) Invalidate(addr uint64) (cache.Line, bool) { return m.arr.Invalidate(addr) }
