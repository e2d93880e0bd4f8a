package directory

import "testing"

// This file pins the packed structure-of-arrays Directory against a
// reference reimplementation of the original array-of-structs design
// (stamp-based LRU, linear scans), driving both with the same
// deterministic op stream and comparing lookups, victim choices, and
// back-invalidation counts.

type refEntry struct {
	Addr  uint64
	Core  int16
	LRU   uint64
	Valid bool
}

type refDirectory struct {
	sets              []refEntry
	ways              int
	setMask           uint64
	stamp             uint64
	backInvalidations int64
}

func newRefDir(numSets, ways int) *refDirectory {
	return &refDirectory{
		sets:    make([]refEntry, numSets*ways),
		ways:    ways,
		setMask: uint64(numSets - 1),
	}
}

func (d *refDirectory) set(addr uint64) []refEntry {
	idx := int(addr&d.setMask) * d.ways
	return d.sets[idx : idx+d.ways]
}

func (d *refDirectory) lookup(addr uint64) int {
	s := d.set(addr)
	for i := range s {
		if s[i].Valid && s[i].Addr == addr {
			return int(s[i].Core)
		}
	}
	return -1
}

func (d *refDirectory) track(addr uint64, core int16) (refEntry, bool) {
	s := d.set(addr)
	var lru *refEntry
	for i := range s {
		e := &s[i]
		if e.Valid && e.Addr == addr {
			e.Core = core
			d.stamp++
			e.LRU = d.stamp
			return refEntry{}, false
		}
		if !e.Valid {
			d.stamp++
			*e = refEntry{Addr: addr, Core: core, LRU: d.stamp, Valid: true}
			return refEntry{}, false
		}
		if lru == nil || e.LRU < lru.LRU {
			lru = e
		}
	}
	victim := *lru
	d.stamp++
	*lru = refEntry{Addr: addr, Core: core, LRU: d.stamp, Valid: true}
	d.backInvalidations++
	return victim, true
}

func (d *refDirectory) untrack(addr uint64) {
	s := d.set(addr)
	for i := range s {
		if s[i].Valid && s[i].Addr == addr {
			s[i] = refEntry{}
			return
		}
	}
}

func (d *refDirectory) countValid() int {
	n := 0
	for i := range d.sets {
		if d.sets[i].Valid {
			n++
		}
	}
	return n
}

type opRNG uint64

func (r *opRNG) next() uint64 {
	x := uint64(*r)
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*r = opRNG(x)
	return x
}

func TestDirectoryEquivalence(t *testing.T) {
	const (
		numSets = 8
		ways    = 12
		steps   = 8000
	)
	d := New(numSets, ways)
	r := newRefDir(numSets, ways)
	rng := opRNG(0xD1AEC7)
	addrSpace := uint64(numSets * ways * 2)
	for step := 0; step < steps; step++ {
		addr := rng.next()%addrSpace + 1
		core := int16(rng.next() % 18)
		switch rng.next() % 10 {
		case 0, 1:
			d.Untrack(addr)
			r.untrack(addr)
		case 2:
			if got, want := d.Lookup(addr), r.lookup(addr); got != want {
				t.Fatalf("step %d: Lookup(%d) = %d, ref %d", step, addr, got, want)
			}
		default:
			gv, ge := d.Track(addr, core)
			rv, re := r.track(addr, core)
			if ge != re {
				t.Fatalf("step %d: Track evicted=%v, ref %v", step, ge, re)
			}
			if ge && (gv.Addr != rv.Addr || gv.Core != rv.Core || !gv.Valid) {
				t.Fatalf("step %d: Track victim %+v, ref %+v", step, gv, rv)
			}
		}
		if step%128 == 0 {
			if got, want := tracked(d), r.countValid(); got != want {
				t.Fatalf("step %d: tracked = %d, ref %d", step, got, want)
			}
			if d.BackInvalidations != r.backInvalidations {
				t.Fatalf("step %d: BackInvalidations = %d, ref %d", step, d.BackInvalidations, r.backInvalidations)
			}
		}
	}
}
