// Package llc models the shared non-inclusive last-level cache of a
// Skylake-SP-class server CPU with the way roles that the A4 paper's
// contentions hinge on:
//
//   - DCA ways (the leftmost NumDCA ways, way[0:1] by default): the only
//     ways DDIO write-allocates DMA data into.
//   - Inclusive ways (the rightmost NumInclusive ways, way[9:10]): the only
//     ways that may hold LLC-inclusive lines (resident in both LLC and an
//     MLC), because only the two shared directory ways can snoop MLCs.
//   - Standard ways: everything in between.
//
// The package provides placement-aware insertion, the O1 migration of
// DMA-written lines into inclusive ways upon first core read, and per-way
// occupancy statistics used by experiments.
package llc

import "a4sim/internal/cache"

// Geometry describes an LLC configuration. The zero value is not valid; use
// SkylakeGeometry or a scaled variant.
type Geometry struct {
	Sets         int // power of two
	Ways         int
	NumDCA       int // leftmost ways used by DDIO
	NumInclusive int // rightmost ways holding LLC-inclusive lines
}

// SkylakeGeometry returns the Xeon Gold 6140 LLC: 25 MiB missing a little
// rounding (we use 32768 sets x 11 ways x 64 B = 22 MiB, the nearest
// power-of-two set count; capacity ratios to working sets are what matter).
func SkylakeGeometry() Geometry {
	return Geometry{Sets: 32768, Ways: 11, NumDCA: 2, NumInclusive: 2}
}

// TestGeometry returns a small geometry for fast unit tests: 256 sets, same
// way roles.
func TestGeometry() Geometry {
	return Geometry{Sets: 256, Ways: 11, NumDCA: 2, NumInclusive: 2}
}

// Validate checks internal consistency.
func (g Geometry) Validate() error {
	switch {
	case g.Sets <= 0 || g.Sets&(g.Sets-1) != 0:
		return errGeometry("Sets must be a positive power of two")
	case g.Ways <= 0 || g.Ways > cache.MaxWays:
		return errGeometry("Ways must be in [1,16]")
	case g.NumDCA < 0 || g.NumInclusive < 0:
		return errGeometry("way role counts must be non-negative")
	case g.NumDCA+g.NumInclusive > g.Ways:
		return errGeometry("role ways exceed total ways")
	}
	return nil
}

type errGeometry string

func (e errGeometry) Error() string { return "llc: invalid geometry: " + string(e) }

// SizeBytes returns the LLC capacity assuming 64-byte lines.
func (g Geometry) SizeBytes() int64 { return int64(g.Sets) * int64(g.Ways) * 64 }

// LLC is the last-level cache plus its way-role bookkeeping.
type LLC struct {
	geom Geometry
	arr  *cache.Cache

	dcaMask       cache.WayMask // ways DDIO may write-allocate into
	inclusiveMask cache.WayMask // ways that may hold LLC-inclusive lines
	allMask       cache.WayMask
}

// New constructs an LLC for the given geometry.
func New(g Geometry) *LLC {
	if err := g.Validate(); err != nil {
		panic(err)
	}
	l := &LLC{
		geom:    g,
		arr:     cache.New(g.Sets, g.Ways),
		allMask: cache.MaskAll(g.Ways),
	}
	if g.NumDCA > 0 {
		l.dcaMask = cache.MaskRange(0, g.NumDCA-1)
	}
	if g.NumInclusive > 0 {
		l.inclusiveMask = cache.MaskRange(g.Ways-g.NumInclusive, g.Ways-1)
	}
	return l
}

// Geometry returns the configured geometry.
func (l *LLC) Geometry() Geometry { return l.geom }

// Array exposes the underlying cache array (tests and stats).
func (l *LLC) Array() *cache.Cache { return l.arr }

// DCAMask returns the current DDIO way mask.
func (l *LLC) DCAMask() cache.WayMask { return l.dcaMask }

// SetDCAMask reconfigures the DDIO ways (IIO LLC WAYS MSR on real parts).
func (l *LLC) SetDCAMask(m cache.WayMask) { l.dcaMask = m }

// InclusiveMask returns the ways eligible to hold LLC-inclusive lines.
func (l *LLC) InclusiveMask() cache.WayMask { return l.inclusiveMask }

// AllMask returns a mask of every way.
func (l *LLC) AllMask() cache.WayMask { return l.allMask }

// StandardMask returns the non-DCA, non-inclusive ways.
func (l *LLC) StandardMask() cache.WayMask {
	return l.allMask &^ l.dcaMask &^ l.inclusiveMask
}

// Probe looks up addr, returning a copy of its line and its way, or
// (Line{}, -1) on a miss.
func (l *LLC) Probe(addr uint64) (cache.Line, int) { return l.arr.Probe(addr) }

// ProbeWay returns the way addr occupies, or -1, without materializing the
// line metadata.
func (l *LLC) ProbeWay(addr uint64) int { return l.arr.ProbeWay(addr) }

// Touch promotes the line at (addr, way) to MRU.
func (l *LLC) Touch(addr uint64, way int) { l.arr.Touch(addr, way) }

// MutateFlags sets then clears flag bits on the resident line at (addr, way).
func (l *LLC) MutateFlags(addr uint64, way int, set, clear cache.LineFlags) {
	l.arr.MutateFlags(addr, way, set, clear)
}

// SetOwnerPort reassigns the owner and port of the resident line at
// (addr, way), keeping occupancy counters consistent.
func (l *LLC) SetOwnerPort(addr uint64, way int, owner int16, port int8) {
	l.arr.SetOwnerPort(addr, way, owner, port)
}

// InsertDCA write-allocates a DMA line into the DCA ways, returning the
// eviction victim (Valid=false if an empty slot was used).
func (l *LLC) InsertDCA(addr uint64, owner int16, port int8) (cache.Line, int) {
	return l.arr.Insert(addr, l.dcaMask, owner, port, cache.FlagIO|cache.FlagDirty)
}

// InsertVictim allocates an MLC-evicted line under the given CAT mask. The
// inserted line is LLC-exclusive; flags carry dirty/I/O provenance.
func (l *LLC) InsertVictim(addr uint64, mask cache.WayMask, owner int16, port int8, flags cache.LineFlags) (cache.Line, int) {
	return l.arr.Insert(addr, mask, owner, port, flags&^cache.FlagInclusive)
}

// InsertInclusive read-allocates a line directly into the inclusive ways
// (egress DMA of MLC-only data). Returns the eviction victim.
func (l *LLC) InsertInclusive(addr uint64, owner int16, port int8, flags cache.LineFlags) (cache.Line, int) {
	return l.arr.Insert(addr, l.inclusiveMask, owner, port, flags|cache.FlagInclusive)
}

// MigrateToInclusive implements observation O1: a DMA-written LLC-exclusive
// line read by a core migrates into the inclusive ways and becomes
// LLC-inclusive. Returns the migrated line's way (-1 if addr was not
// resident) and the victim evicted from the inclusive ways (Valid=false if
// none).
func (l *LLC) MigrateToInclusive(addr uint64) (int, cache.Line) {
	_, way, evicted := l.arr.MoveToWay(addr, l.inclusiveMask)
	if way >= 0 {
		l.arr.MutateFlags(addr, way, cache.FlagInclusive|cache.FlagConsumed, 0)
	}
	return way, evicted
}

// Invalidate drops addr from the LLC if present.
func (l *LLC) Invalidate(addr uint64) (cache.Line, bool) { return l.arr.Invalidate(addr) }

// InvalidateWay drops the resident line at (addr, way) — the way a
// preceding Probe returned — without re-scanning the set.
func (l *LLC) InvalidateWay(addr uint64, way int) cache.Line {
	return l.arr.InvalidateWay(addr, way)
}

// WayOf reports which way addr occupies, or -1.
func (l *LLC) WayOf(addr uint64) int { return l.arr.WayOf(addr) }

// RoleOf classifies a way index.
func (l *LLC) RoleOf(way int) WayRole {
	switch {
	case way < 0 || way >= l.geom.Ways:
		return RoleNone
	case l.dcaMask.Has(way):
		return RoleDCA
	case l.inclusiveMask.Has(way):
		return RoleInclusive
	default:
		return RoleStandard
	}
}

// WayRole labels the role of an LLC way.
type WayRole uint8

// Way roles.
const (
	RoleNone WayRole = iota
	RoleDCA
	RoleStandard
	RoleInclusive
)

// String implements fmt.Stringer.
func (r WayRole) String() string {
	switch r {
	case RoleDCA:
		return "dca"
	case RoleStandard:
		return "standard"
	case RoleInclusive:
		return "inclusive"
	default:
		return "none"
	}
}
