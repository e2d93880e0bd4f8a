// Package cat models Intel Cache Allocation Technology (CAT) as exposed by
// intel-cmt-cat/resctrl: classes of service (CLOS) each carrying a capacity
// bitmask over LLC ways, and a core-to-CLOS association. Real CAT requires
// contiguous non-empty masks; the model enforces the same restriction so the
// A4 controller cannot cheat.
//
// CAT semantics matter to A4 in one subtle way the paper calls out in §5.5:
// a mask change affects only *newly allocated* lines; resident lines stay
// where they are until naturally evicted. The model preserves this because
// masks gate victim selection only.
package cat

import (
	"fmt"

	"a4sim/internal/cache"
)

// MaxCLOS mirrors the 16 classes of service on Skylake-SP.
const MaxCLOS = 16

// Allocator is the CAT state: per-CLOS way masks and core associations.
type Allocator struct {
	ways  int
	masks [MaxCLOS]cache.WayMask
	clos  []uint8 // per-core CLOS
}

// New returns an allocator for numCores cores over an LLC with ways ways.
// All cores start in CLOS 0 with a full mask, matching hardware reset state.
func New(numCores, ways int) *Allocator {
	a := &Allocator{ways: ways, clos: make([]uint8, numCores)}
	full := cache.MaskAll(ways)
	for i := range a.masks {
		a.masks[i] = full
	}
	return a
}

// NumCores returns the number of managed cores.
func (a *Allocator) NumCores() int { return len(a.clos) }

// Ways returns the LLC associativity the masks cover.
func (a *Allocator) Ways() int { return a.ways }

// SetMask programs the capacity bitmask of a CLOS. It rejects empty,
// non-contiguous, or out-of-range masks, like the real MSR interface.
func (a *Allocator) SetMask(clos int, m cache.WayMask) error {
	if clos < 0 || clos >= MaxCLOS {
		return fmt.Errorf("cat: CLOS %d out of range", clos)
	}
	if m == 0 {
		return fmt.Errorf("cat: empty capacity mask for CLOS %d", clos)
	}
	if !m.Contiguous() {
		return fmt.Errorf("cat: non-contiguous mask %#x for CLOS %d", uint32(m), clos)
	}
	if m&^cache.MaskAll(a.ways) != 0 {
		return fmt.Errorf("cat: mask %#x exceeds %d ways", uint32(m), a.ways)
	}
	a.masks[clos] = m
	return nil
}

// SetWayRange programs CLOS to cover ways [lo, hi] inclusive.
func (a *Allocator) SetWayRange(clos, lo, hi int) error {
	return a.SetMask(clos, cache.MaskRange(lo, hi))
}

// Mask returns the capacity bitmask of a CLOS.
func (a *Allocator) Mask(clos int) cache.WayMask {
	if clos < 0 || clos >= MaxCLOS {
		return 0
	}
	return a.masks[clos]
}

// Associate binds a core to a CLOS.
func (a *Allocator) Associate(core, clos int) error {
	if core < 0 || core >= len(a.clos) {
		return fmt.Errorf("cat: core %d out of range", core)
	}
	if clos < 0 || clos >= MaxCLOS {
		return fmt.Errorf("cat: CLOS %d out of range", clos)
	}
	a.clos[core] = uint8(clos)
	return nil
}

// CLOSOf returns the CLOS a core is associated with.
func (a *Allocator) CLOSOf(core int) int {
	if core < 0 || core >= len(a.clos) {
		return 0
	}
	return int(a.clos[core])
}

// MaskOf returns the effective allocation mask for a core.
func (a *Allocator) MaskOf(core int) cache.WayMask {
	return a.masks[a.CLOSOf(core)]
}

// Reset restores the hardware default: every CLOS full-mask, all cores in
// CLOS 0.
func (a *Allocator) Reset() {
	full := cache.MaskAll(a.ways)
	for i := range a.masks {
		a.masks[i] = full
	}
	for i := range a.clos {
		a.clos[i] = 0
	}
}
