// Package directory models the snoop-filter directory of Intel Skylake-SP's
// non-inclusive cache hierarchy, as reverse-engineered by Yan et al. (S&P'19)
// and relied on by the A4 paper: 11 traditional directory ways track lines
// resident in the LLC, and a 12-way extended directory tracks lines resident
// in the private MLCs. Two ways are shared between the groups; those shared
// entries are coupled one-to-one with the two "inclusive" LLC ways, which is
// why LLC-inclusive lines (cached in both LLC and an MLC) can live only in
// those two ways.
//
// The traditional directory is implicit in the LLC tag array; this package
// implements the extended directory: which MLC holds which line. Evicting an
// extended-directory entry back-invalidates the line from the owning MLC,
// the mechanism behind directory-conflict attacks and part of why inclusive
// ways are precious.
//
// Storage mirrors internal/cache: one packed 64-bit word per entry (32-bit
// address tag plus the holding core; invalidTag marks empty slots) and a
// per-set LRU nibble permutation in a single uint64, so Lookup, Track, and
// Untrack stay within two cache lines per set and the whole directory stays
// resident in a host CPU's caches. Line addresses must fit in 32 bits;
// Track panics loudly if one does not.
package directory

import (
	"math/bits"

	"a4sim/internal/cache"
)

// invalidTag marks an empty slot's address bits; maxLineAddr is the largest
// representable line address.
const (
	invalidTag  = ^uint32(0)
	maxLineAddr = uint64(invalidTag) - 1
	invalidSlot = uint64(invalidTag)
	coreShift   = 32
)

// MaxWays is the highest supported associativity, bounded by the packed
// per-set LRU permutation shared with internal/cache.
const MaxWays = cache.MaxWays

// Entry is a copy of one tracked MLC-resident line.
type Entry struct {
	Addr  uint64
	Core  int16
	Valid bool
}

// Directory is the extended (MLC-tracking) directory. Sets are indexed by
// the same hash as the LLC so directory pressure aligns with LLC sets.
type Directory struct {
	slots   []uint64 // flattened [set][way]; packed entry or invalidSlot
	order   []uint64 // per-set LRU permutation, nibble 0 = MRU way
	used    []uint32 // per-set bitmask of valid ways
	ways    int
	setMask uint64
	valid   int // incremental count of tracked lines

	// Hits/misses on directory lookups, for diagnostics.
	BackInvalidations int64
}

// New constructs a directory with numSets sets (power of two) and ways
// extended-directory ways (12 on Skylake-SP).
func New(numSets, ways int) *Directory {
	if numSets <= 0 || numSets&(numSets-1) != 0 {
		panic("directory: numSets must be a positive power of two")
	}
	if ways <= 0 || ways > MaxWays {
		panic("directory: ways must be in [1, 16]")
	}
	d := &Directory{
		slots:   make([]uint64, numSets*ways),
		order:   make([]uint64, numSets),
		used:    make([]uint32, numSets),
		ways:    ways,
		setMask: uint64(numSets - 1),
	}
	for i := range d.slots {
		d.slots[i] = invalidSlot
	}
	for i := range d.order {
		d.order[i] = cache.IdentityOrder
	}
	return d
}

func pack(addr uint64, core int16) uint64 {
	return addr&0xFFFFFFFF | uint64(uint16(core))<<coreShift
}

func unpack(s uint64) Entry {
	return Entry{Addr: s & 0xFFFFFFFF, Core: int16(uint16(s >> coreShift)), Valid: true}
}

// Lookup returns the core holding addr in its MLC, or -1 if untracked.
// Skylake MLCs are private and the simulator never shares a line across
// MLCs, so a single owner suffices.
func (d *Directory) Lookup(addr uint64) int {
	if addr > maxLineAddr {
		return -1 // Track forbids such addresses, so none is tracked
	}
	base := int(addr&d.setMask) * d.ways
	slots := d.slots[base : base+d.ways]
	t32 := uint32(addr)
	for _, s := range slots {
		if uint32(s) == t32 {
			return int(int16(uint16(s >> coreShift)))
		}
	}
	return -1
}

// Track records that core now holds addr in its MLC. If the directory set is
// full, the LRU entry is evicted and returned so the caller can
// back-invalidate the victim line from its MLC. ok is false when an eviction
// occurred.
func (d *Directory) Track(addr uint64, core int16) (victim Entry, evicted bool) {
	if addr > maxLineAddr {
		panic("directory: line address exceeds the 32-bit tag range")
	}
	set := int(addr & d.setMask)
	base := set * d.ways
	slots := d.slots[base : base+d.ways]
	t32 := uint32(addr)
	// A historical quirk preserved from the scan-based implementation: the
	// single pass claimed the first invalid slot even when a matching entry
	// sat beyond it, so the match scan stops at the first free way.
	free := d.ways
	if inv := ^d.used[set] & (uint32(1)<<uint(d.ways) - 1); inv != 0 {
		free = bits.TrailingZeros32(inv)
	}
	for i := 0; i < free; i++ {
		if uint32(slots[i]) == t32 {
			// Ownership transfer (line moved between MLCs).
			slots[i] = pack(addr, core)
			d.order[set] = cache.PromoteMRU(d.order[set], i)
			return Entry{}, false
		}
	}
	if free < d.ways {
		slots[free] = pack(addr, core)
		d.order[set] = cache.PromoteMRU(d.order[set], free)
		d.used[set] |= 1 << uint(free)
		d.valid++
		return Entry{}, false
	}
	// Set full: evict the LRU entry (the permutation's last nibble).
	lru := int(d.order[set] >> uint(4*(d.ways-1)) & 0xF)
	victim = unpack(slots[lru])
	slots[lru] = pack(addr, core)
	d.order[set] = cache.PromoteMRU(d.order[set], lru)
	d.BackInvalidations++
	return victim, true
}

// Untrack removes addr from the directory (MLC eviction or invalidation).
func (d *Directory) Untrack(addr uint64) {
	if addr > maxLineAddr {
		return
	}
	base := int(addr&d.setMask) * d.ways
	slots := d.slots[base : base+d.ways]
	t32 := uint32(addr)
	for i, s := range slots {
		if uint32(s) == t32 {
			slots[i] = invalidSlot
			d.used[int(addr&d.setMask)] &^= 1 << uint(i)
			d.valid--
			return
		}
	}
}

// Reset clears all entries.
func (d *Directory) Reset() {
	for i := range d.slots {
		d.slots[i] = invalidSlot
	}
	for i := range d.order {
		d.order[i] = cache.IdentityOrder
		d.used[i] = 0
	}
	d.valid = 0
	d.BackInvalidations = 0
}

// CountValid returns the number of tracked lines (for tests).
func (d *Directory) CountValid() int { return d.valid }
