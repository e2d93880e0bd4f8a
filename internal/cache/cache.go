// Package cache implements the generic set-associative cache array used by
// both the private mid-level caches (MLCs) and the shared last-level cache
// (LLC). It provides way-masked victim selection (the primitive beneath
// Intel CAT and the DDIO way mask), LRU replacement, and per-line metadata
// needed by the A4 reproduction: I/O origin, consumption status, and the
// owning workload.
//
// The array is stored structure-of-arrays with one packed 64-bit word per
// slot (address tag, owner, port, and flags — invalidTag marks empty
// slots), so a whole 16-way set spans two cache lines and the simulated
// LLC's entire state stays resident in a host CPU's caches. Per-set LRU
// state is a nibble permutation packed into a second uint64 (way indices
// ordered MRU to LRU), so victim selection reads a single word instead of
// striding per-line recency stamps. This caps associativity at 16 ways
// (MaxWays), enough for the Skylake-SP geometries the reproduction models
// (11-way LLC, 16-way MLC, 12-way directory), and line addresses must fit
// in 32 bits (256 GiB of simulated memory at 64-byte lines) — Insert
// panics loudly if one does not.
//
// The API is copy-based: Probe and Insert return Line values, and resident
// lines are modified through Touch, MutateFlags, and SetOwnerPort. No
// per-line operation keeps any count: OccupancyByOwner and CountValid walk
// the per-set valid bitmaps when asked, so the hot path pays nothing for
// statistics that are read at most once per simulated second.
package cache

import "math/bits"

// LineFlags records per-line metadata bits.
type LineFlags uint8

const (
	// FlagDirty marks a modified line that must be written back on eviction.
	FlagDirty LineFlags = 1 << iota
	// FlagIO marks a line whose data was DMA-written by an I/O device.
	FlagIO
	// FlagConsumed marks an I/O line that has been read by a CPU core since
	// the last DMA write. An I/O line evicted before consumption is a DMA
	// leak.
	FlagConsumed
	// FlagInclusive marks an LLC line that is simultaneously resident in at
	// least one MLC (LLC-inclusive state); such lines may live only in the
	// inclusive ways.
	FlagInclusive
)

// invalidTag marks an empty slot's address bits; maxLineAddr is the largest
// representable line address (the address-space bump allocator stays far
// below it for any realistic scenario).
const (
	invalidTag  = ^uint32(0)
	maxLineAddr = uint64(invalidTag) - 1
	invalidSlot = uint64(invalidTag) // empty slot word: sentinel addr, zero metadata
)

// Packed slot layout.
const (
	ownerShift = 32
	portShift  = 48
	flagsShift = 56
)

// IdentityOrder is the initial packed LRU permutation: way i at recency
// position i (way 0 MRU ... way 15 LRU). Shared with internal/directory,
// whose set storage mirrors this package's layout.
const IdentityOrder = uint64(0xFEDCBA9876543210)

// MaxWays is the highest supported associativity, bounded by the packed
// per-set LRU permutation (16 ways x 4 bits).
const MaxWays = 16

// Line is a copy of one cache line's tag and metadata. Addr is the full
// line address (byte address >> 6); Valid distinguishes empty slots.
// Lines are values: mutating a resident line goes through Touch,
// MutateFlags, and SetOwnerPort on the owning Cache.
type Line struct {
	Addr  uint64
	Owner int16 // workload ID that allocated the line, -1 if unknown
	Port  int8  // PCIe port that DMA-wrote the line, -1 for CPU lines
	Flags LineFlags
	Valid bool
}

// Dirty reports whether the line is modified.
func (l *Line) Dirty() bool { return l.Flags&FlagDirty != 0 }

// IO reports whether the line was DMA-written.
func (l *Line) IO() bool { return l.Flags&FlagIO != 0 }

// Consumed reports whether an I/O line has been read by a core.
func (l *Line) Consumed() bool { return l.Flags&FlagConsumed != 0 }

// Inclusive reports whether the line is in the LLC-inclusive state.
func (l *Line) Inclusive() bool { return l.Flags&FlagInclusive != 0 }

// Set sets the given flag bits on the copy.
func (l *Line) Set(f LineFlags) { l.Flags |= f }

// Clear clears the given flag bits on the copy.
func (l *Line) Clear(f LineFlags) { l.Flags &^= f }

// pack encodes a line into its slot word.
func pack(addr uint64, owner int16, port int8, flags LineFlags) uint64 {
	return addr&0xFFFFFFFF |
		uint64(uint16(owner))<<ownerShift |
		uint64(uint8(port))<<portShift |
		uint64(flags)<<flagsShift
}

// unpack decodes a valid slot word.
func unpack(w uint64) Line {
	return Line{
		Addr:  w & 0xFFFFFFFF,
		Owner: int16(uint16(w >> ownerShift)),
		Port:  int8(uint8(w >> portShift)),
		Flags: LineFlags(w >> flagsShift),
		Valid: true,
	}
}

// slotOwner extracts the owner field of a slot word.
func slotOwner(w uint64) int16 { return int16(uint16(w >> ownerShift)) }

// WayMask selects a subset of ways for allocation; bit i enables way i.
type WayMask uint32

// MaskAll returns a mask enabling ways [0, n).
func MaskAll(n int) WayMask { return WayMask(1<<uint(n)) - 1 }

// MaskRange returns a mask enabling ways [lo, hi] inclusive.
func MaskRange(lo, hi int) WayMask {
	if hi < lo {
		return 0
	}
	return (WayMask(1<<uint(hi-lo+1)) - 1) << uint(lo)
}

// Count returns the number of enabled ways.
func (m WayMask) Count() int { return bits.OnesCount32(uint32(m)) }

// Has reports whether way w is enabled.
func (m WayMask) Has(w int) bool { return m&(1<<uint(w)) != 0 }

// Contiguous reports whether the enabled ways form one contiguous run.
// Intel CAT requires contiguous capacity bitmasks.
func (m WayMask) Contiguous() bool {
	if m == 0 {
		return false
	}
	v := uint32(m) >> uint(bits.TrailingZeros32(uint32(m)))
	return v&(v+1) == 0
}

// Cache is a set-associative array. It is not safe for concurrent use; the
// simulation engine is single-threaded by design.
type Cache struct {
	slots   []uint64 // flattened [set][way]; packed line or invalidSlot
	order   []uint64 // per-set LRU permutation, nibble 0 = MRU way
	valid   []uint32 // per-set bitmask of valid ways
	ways    int
	wayBits uint32 // (1<<ways)-1, clips masks to real ways
	setMask uint64

	// randPct makes victim selection imperfect: with probability
	// randPct/100 the victim is drawn uniformly from the masked ways
	// instead of strict LRU, approximating the quad-age PLRU of Skylake
	// LLCs whose collateral evictions drive the latent contention of §3.1.
	randPct int
	rngs    uint64
}

// New constructs a cache with numSets sets (must be a power of two) and
// ways ways.
func New(numSets, ways int) *Cache {
	if numSets <= 0 || numSets&(numSets-1) != 0 {
		panic("cache: numSets must be a positive power of two")
	}
	if ways <= 0 || ways > MaxWays {
		panic("cache: ways must be in [1, 16]")
	}
	c := &Cache{
		slots:   make([]uint64, numSets*ways),
		order:   make([]uint64, numSets),
		valid:   make([]uint32, numSets),
		ways:    ways,
		wayBits: uint32((uint64(1) << uint(ways)) - 1),
		setMask: uint64(numSets - 1),
	}
	for i := range c.slots {
		c.slots[i] = invalidSlot
	}
	for i := range c.order {
		c.order[i] = IdentityOrder
	}
	return c
}

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// SizeBytes returns the capacity in bytes assuming 64-byte lines.
func (c *Cache) SizeBytes() int64 { return int64(len(c.slots)) * 64 }

// SetVictimRandomness configures imperfect replacement: pct (0-100) is the
// percentage of victim selections drawn uniformly from the masked ways
// instead of LRU. seed feeds the internal generator.
func (c *Cache) SetVictimRandomness(pct int, seed uint64) {
	if pct < 0 {
		pct = 0
	}
	if pct > 100 {
		pct = 100
	}
	c.randPct = pct
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	c.rngs = seed
}

func (c *Cache) nextRand() uint64 {
	c.rngs ^= c.rngs << 13
	c.rngs ^= c.rngs >> 7
	c.rngs ^= c.rngs << 17
	return c.rngs
}

// PromoteMRU moves way w to the MRU position of a packed LRU permutation
// (as initialized by IdentityOrder). The permutation holds each way index
// in exactly one nibble, so w's position is found branch-free with a SWAR
// zero-nibble test. Shared with internal/directory.
func PromoteMRU(order uint64, w int) uint64 {
	uw := uint64(w)
	x := order ^ uw*0x1111111111111111
	z := (x - 0x1111111111111111) &^ x & 0x8888888888888888
	p := uint(bits.TrailingZeros64(z)) &^ 3
	if p == 0 {
		return order
	}
	low := order & (uint64(1)<<p - 1)
	high := order >> (p + 4) << (p + 4)
	return high | low<<4 | uw
}

// Probe looks up addr and returns a copy of its line and its way, or
// (Line{}, -1) on a miss. A hit does not update LRU; call Touch for that.
func (c *Cache) Probe(addr uint64) (Line, int) {
	if addr > maxLineAddr {
		return Line{}, -1 // Insert forbids such addresses, so none is resident
	}
	base := int(addr&c.setMask) * c.ways
	slots := c.slots[base : base+c.ways]
	t32 := uint32(addr)
	for w, s := range slots {
		if uint32(s) == t32 {
			return unpack(s), w
		}
	}
	return Line{}, -1
}

// ProbeWay returns the way addr occupies, or -1, without materializing the
// line metadata (the cheapest hit test for hot paths).
func (c *Cache) ProbeWay(addr uint64) int {
	if addr > maxLineAddr {
		return -1
	}
	base := int(addr&c.setMask) * c.ways
	slots := c.slots[base : base+c.ways]
	t32 := uint32(addr)
	for w, s := range slots {
		if uint32(s) == t32 {
			return w
		}
	}
	return -1
}

// Touch marks the resident line at (addr's set, way) most-recently-used.
// The way is the one Probe returned for addr.
func (c *Cache) Touch(addr uint64, way int) {
	set := int(addr & c.setMask)
	c.order[set] = PromoteMRU(c.order[set], way)
}

// MutateFlags sets then clears flag bits on the resident line at (addr's
// set, way). The way is the one Probe returned for addr.
func (c *Cache) MutateFlags(addr uint64, way int, set, clear LineFlags) {
	idx := int(addr&c.setMask)*c.ways + way
	s := c.slots[idx]
	f := (LineFlags(s>>flagsShift) | set) &^ clear
	c.slots[idx] = s&^(uint64(0xFF)<<flagsShift) | uint64(f)<<flagsShift
}

// SetOwnerPort reassigns the owner and port of the resident line at (addr's
// set, way).
func (c *Cache) SetOwnerPort(addr uint64, way int, owner int16, port int8) {
	idx := int(addr&c.setMask)*c.ways + way
	s := c.slots[idx]
	if uint32(s) == invalidTag {
		return
	}
	s &^= uint64(0xFFFF)<<ownerShift | uint64(0xFF)<<portShift
	c.slots[idx] = s | uint64(uint16(owner))<<ownerShift | uint64(uint8(port))<<portShift
}

// victimWay selects the allocation victim way for addr among the ways
// enabled in mask, or -1 if the mask is empty: an invalid way if one
// exists, otherwise the LRU (or, with victim randomness, a uniformly drawn)
// masked way.
func (c *Cache) victimWay(addr uint64, mask WayMask) int {
	m := uint32(mask) & c.wayBits
	if m == 0 {
		return -1
	}
	set := int(addr & c.setMask)
	if inv := m &^ c.valid[set]; inv != 0 {
		return bits.TrailingZeros32(inv)
	}
	if c.randPct > 0 && int(c.nextRand()%100) < c.randPct {
		// Imperfect replacement: pick the k-th masked way uniformly.
		k := int(c.nextRand() % uint64(bits.OnesCount32(m)))
		bm := m
		for ; k > 0; k-- {
			bm &= bm - 1
		}
		return bits.TrailingZeros32(bm)
	}
	// All masked ways valid: walk the permutation from the LRU end.
	order := c.order[set]
	for p := 4 * (c.ways - 1); p >= 0; p -= 4 {
		w := int(order >> uint(p) & 0xF)
		if m&(1<<uint(w)) != 0 {
			return w
		}
	}
	return -1 // unreachable: m is a non-empty subset of the permutation
}

// Insert allocates addr into the slot chosen by victim selection and
// returns a copy of the evicted line (Valid=false copy when the slot was
// empty). The new line is installed MRU with the given metadata.
func (c *Cache) Insert(addr uint64, mask WayMask, owner int16, port int8, flags LineFlags) (evicted Line, way int) {
	if addr > maxLineAddr {
		panic("cache: line address exceeds the 32-bit tag range")
	}
	w := c.victimWay(addr, mask)
	if w < 0 {
		return Line{}, -1
	}
	set := int(addr & c.setMask)
	idx := set*c.ways + w
	if old := c.slots[idx]; uint32(old) != invalidTag {
		evicted = unpack(old)
	}
	c.slots[idx] = pack(addr, owner, port, flags)
	c.order[set] = PromoteMRU(c.order[set], w)
	c.valid[set] |= 1 << uint(w)
	return evicted, w
}

// Invalidate removes addr if present and returns a copy of the removed line.
func (c *Cache) Invalidate(addr uint64) (Line, bool) {
	l, w := c.Probe(addr)
	if w < 0 {
		return Line{}, false
	}
	c.invalidateAt(int(addr&c.setMask), w)
	return l, true
}

// InvalidateWay removes the resident line at (addr's set, way) — the way a
// preceding Probe returned for addr — returning a copy of it, without
// re-scanning the set.
func (c *Cache) InvalidateWay(addr uint64, way int) Line {
	set := int(addr & c.setMask)
	s := c.slots[set*c.ways+way]
	if uint32(s) == invalidTag {
		return Line{}
	}
	c.invalidateAt(set, way)
	return unpack(s)
}

func (c *Cache) invalidateAt(set, way int) {
	c.slots[set*c.ways+way] = invalidSlot
	c.valid[set] &^= 1 << uint(way)
}

// InvalidateAll clears the whole cache.
func (c *Cache) InvalidateAll() {
	for i := range c.slots {
		c.slots[i] = invalidSlot
	}
	for i := range c.order {
		c.order[i] = IdentityOrder
		c.valid[i] = 0
	}
}

// MoveToWay relocates a resident line to a victim slot among the ways in
// mask within the same set (the O1 migration primitive). It returns a copy
// of the line in its new position with its way, and a copy of the line
// evicted from the destination slot. If addr is not resident, movedWay is
// -1; if the line already sits in an enabled way, no move happens (beyond a
// Touch) and evicted.Valid is false.
func (c *Cache) MoveToWay(addr uint64, mask WayMask) (moved Line, movedWay int, evicted Line) {
	l, w := c.Probe(addr)
	if w < 0 {
		return Line{}, -1, Line{}
	}
	if mask.Has(w) {
		c.Touch(addr, w)
		return l, w, Line{}
	}
	set := int(addr & c.setMask)
	base := set * c.ways
	saved := c.slots[base+w]
	c.slots[base+w] = invalidSlot
	c.valid[set] &^= 1 << uint(w)
	dw := c.victimWay(addr, mask)
	if dw < 0 {
		// Destination mask empty: restore in place, recency unchanged.
		c.slots[base+w] = saved
		c.valid[set] |= 1 << uint(w)
		return l, w, Line{}
	}
	if old := c.slots[base+dw]; uint32(old) != invalidTag {
		evicted = unpack(old)
	}
	c.slots[base+dw] = saved
	c.order[set] = PromoteMRU(c.order[set], dw)
	c.valid[set] |= 1 << uint(dw)
	return l, dw, evicted
}

// OccupancyByOwner counts valid lines per owner in the ways enabled by mask,
// adding the counts into out (keyed by owner ID); lines with owner -1 are
// skipped. It walks the valid bitmaps, counting into a dense per-owner
// slice (owners are small workload IDs) that it folds into out once.
func (c *Cache) OccupancyByOwner(mask WayMask, out map[int16]int) {
	m := uint32(mask) & c.wayBits
	var counts []int
	for set, v := range c.valid {
		base := set * c.ways
		for bm := v & m; bm != 0; bm &= bm - 1 {
			o := int(slotOwner(c.slots[base+bits.TrailingZeros32(bm)]))
			if o < 0 {
				continue
			}
			if o >= len(counts) {
				counts = append(counts, make([]int, o+1-len(counts))...)
			}
			counts[o]++
		}
	}
	for o, n := range counts {
		if n != 0 {
			out[int16(o)] += n
		}
	}
}

// CountValid returns the number of valid lines in the ways enabled by mask.
func (c *Cache) CountValid(mask WayMask) int {
	m := uint32(mask) & c.wayBits
	n := 0
	for _, v := range c.valid {
		n += bits.OnesCount32(v & m)
	}
	return n
}

// ForEach visits a copy of every valid line; mutations of the copy are not
// written back (use MutateFlags and friends for that).
func (c *Cache) ForEach(fn func(set, way int, l *Line)) {
	for i, s := range c.slots {
		if uint32(s) != invalidTag {
			l := unpack(s)
			fn(i/c.ways, i%c.ways, &l)
		}
	}
}
