package mem

// AddressSpace is a bump allocator handing out disjoint physical address
// ranges (in line granularity) to workloads and device buffers, so that
// independently constructed components never alias each other's memory.
type AddressSpace struct {
	nextLine uint64
}

// NewAddressSpace starts allocation at a non-zero base so that line address
// zero never appears (it doubles as an "unset" sentinel in some tests).
func NewAddressSpace() *AddressSpace {
	return &AddressSpace{nextLine: 1 << 10}
}

// Alloc reserves sizeBytes (rounded up to whole lines) and returns the first
// line address of the region.
func (a *AddressSpace) Alloc(sizeBytes int64) uint64 {
	if sizeBytes <= 0 {
		panic("mem: Alloc with non-positive size")
	}
	lines := uint64((sizeBytes + LineBytes - 1) / LineBytes)
	base := a.nextLine
	a.nextLine += lines
	// Pad to a 64-line boundary so regions start on distinct sets.
	if rem := a.nextLine % 64; rem != 0 {
		a.nextLine += 64 - rem
	}
	return base
}

// AllocLines reserves a region of exactly n lines.
func (a *AddressSpace) AllocLines(n int64) uint64 {
	return a.Alloc(n * LineBytes)
}
