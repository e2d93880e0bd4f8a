package cache

import (
	"fmt"
	"testing"
)

// This file pins the packed structure-of-arrays Cache against a reference
// reimplementation of the original array-of-structs design (stamp-based
// LRU, linear scans, full-array occupancy walks). Both are driven with an
// identical deterministic operation stream — including the imperfect-LRU
// victim randomness, whose RNG consumption pattern must match exactly —
// and every observable output is compared: hit ways, victim choices,
// eviction copies, migration semantics, and occupancy counts (the packed
// array's bitmap walk against the reference's walk of every slot).

// refLine mirrors the original Line layout (recency stamp per line).
type refLine struct {
	Addr  uint64
	LRU   uint64
	Owner int16
	Port  int8
	Flags LineFlags
	Valid bool
}

// refCache is the original implementation, kept verbatim in spirit: an
// array of structs scanned linearly, strict stamp LRU, and the same
// xorshift victim-randomness stream.
type refCache struct {
	sets    []refLine
	ways    int
	setMask uint64
	stamp   uint64
	randPct int
	rngs    uint64
}

func newRef(numSets, ways int) *refCache {
	return &refCache{
		sets:    make([]refLine, numSets*ways),
		ways:    ways,
		setMask: uint64(numSets - 1),
	}
}

func (c *refCache) setVictimRandomness(pct int, seed uint64) {
	c.randPct = pct
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	c.rngs = seed
}

func (c *refCache) nextRand() uint64 {
	c.rngs ^= c.rngs << 13
	c.rngs ^= c.rngs >> 7
	c.rngs ^= c.rngs << 17
	return c.rngs
}

func (c *refCache) set(idx int) []refLine {
	base := idx * c.ways
	return c.sets[base : base+c.ways]
}

func (c *refCache) lookup(addr uint64) (*refLine, int) {
	s := c.set(int(addr & c.setMask))
	for w := range s {
		if s[w].Valid && s[w].Addr == addr {
			return &s[w], w
		}
	}
	return nil, -1
}

func (c *refCache) touch(l *refLine) {
	c.stamp++
	l.LRU = c.stamp
}

func (c *refCache) victim(addr uint64, mask WayMask) (*refLine, int) {
	s := c.set(int(addr & c.setMask))
	var victim *refLine
	way := -1
	nMasked := 0
	for w := range s {
		if !mask.Has(w) {
			continue
		}
		nMasked++
		if !s[w].Valid {
			return &s[w], w
		}
		if victim == nil || s[w].LRU < victim.LRU {
			victim = &s[w]
			way = w
		}
	}
	if victim != nil && c.randPct > 0 && int(c.nextRand()%100) < c.randPct {
		k := int(c.nextRand() % uint64(nMasked))
		for w := range s {
			if !mask.Has(w) {
				continue
			}
			if k == 0 {
				return &s[w], w
			}
			k--
		}
	}
	return victim, way
}

func (c *refCache) insert(addr uint64, mask WayMask, owner int16, port int8, flags LineFlags) (refLine, int) {
	slot, w := c.victim(addr, mask)
	if slot == nil {
		return refLine{}, -1
	}
	ev := *slot
	c.stamp++
	*slot = refLine{Addr: addr, LRU: c.stamp, Owner: owner, Port: port, Flags: flags, Valid: true}
	return ev, w
}

func (c *refCache) invalidate(addr uint64) (refLine, bool) {
	if l, _ := c.lookup(addr); l != nil {
		old := *l
		l.Valid = false
		l.Flags = 0
		return old, true
	}
	return refLine{}, false
}

func (c *refCache) moveToWay(addr uint64, mask WayMask) (*refLine, int, refLine) {
	l, w := c.lookup(addr)
	if l == nil {
		return nil, -1, refLine{}
	}
	if mask.Has(w) {
		c.touch(l)
		return l, w, refLine{}
	}
	saved := *l
	l.Valid = false
	l.Flags = 0
	slot, dw := c.victim(addr, mask)
	if slot == nil {
		*l = saved
		return l, w, refLine{}
	}
	ev := *slot
	c.stamp++
	saved.LRU = c.stamp
	*slot = saved
	return slot, dw, ev
}

func (c *refCache) occupancyByOwner(mask WayMask, out map[int16]int) {
	for i := range c.sets {
		if !mask.Has(i % c.ways) {
			continue
		}
		l := &c.sets[i]
		if l.Valid && l.Owner >= 0 {
			out[l.Owner]++
		}
	}
}

func (c *refCache) countValid(mask WayMask) int {
	n := 0
	for i := range c.sets {
		if mask.Has(i%c.ways) && c.sets[i].Valid {
			n++
		}
	}
	return n
}

// opRNG is a deterministic generator for the op stream, independent of the
// victim-randomness streams inside the caches.
type opRNG uint64

func (r *opRNG) next() uint64 {
	x := uint64(*r)
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*r = opRNG(x)
	return x
}

// checkState compares the occupancy counts of the two implementations,
// over every way and over the mask of the step's last operation.
func checkState(t *testing.T, step int, c *Cache, r *refCache, mask WayMask) {
	t.Helper()
	for _, m := range []WayMask{MaskAll(c.ways), mask} {
		if got, want := c.CountValid(m), r.countValid(m); got != want {
			t.Fatalf("step %d: CountValid(%#x) = %d, ref %d", step, uint32(m), got, want)
		}
		gotOcc, wantOcc := map[int16]int{}, map[int16]int{}
		c.OccupancyByOwner(m, gotOcc)
		r.occupancyByOwner(m, wantOcc)
		if fmt.Sprint(gotOcc) != fmt.Sprint(wantOcc) {
			t.Fatalf("step %d: occupancy(%#x) %v, ref %v", step, uint32(m), gotOcc, wantOcc)
		}
	}
}

func compareLine(t *testing.T, step int, what string, got Line, gw int, want refLine, ww int) {
	t.Helper()
	if gw != ww {
		t.Fatalf("step %d: %s way = %d, ref %d", step, what, gw, ww)
	}
	if got.Valid != want.Valid {
		t.Fatalf("step %d: %s valid = %v, ref %v", step, what, got.Valid, want.Valid)
	}
	if !got.Valid {
		return
	}
	if got.Addr != want.Addr || got.Owner != want.Owner || got.Port != want.Port || got.Flags != want.Flags {
		t.Fatalf("step %d: %s = %+v, ref %+v", step, what, got, want)
	}
}

// runEquivalence drives both implementations through the same randomized
// op stream and compares everything observable.
func runEquivalence(t *testing.T, numSets, ways, randPct int, steps int, seed uint64) {
	c := New(numSets, ways)
	r := newRef(numSets, ways)
	c.SetVictimRandomness(randPct, 99)
	r.setVictimRandomness(randPct, 99)

	rng := opRNG(seed)
	addrSpace := uint64(numSets * ways * 3) // enough aliasing to force evictions
	mask := MaskAll(ways)
	for step := 0; step < steps; step++ {
		addr := rng.next()%addrSpace + 1
		op := rng.next() % 100
		mask = WayMask(rng.next()) & MaskAll(ways)
		if mask == 0 {
			mask = MaskAll(ways)
		}
		owner := int16(rng.next()%5) - 1
		port := int8(rng.next()%3) - 1
		flags := LineFlags(rng.next() % 16)
		switch {
		case op < 45: // insert
			gev, gw := c.Insert(addr, mask, owner, port, flags)
			rev, rw := r.insert(addr, mask, owner, port, flags)
			compareLine(t, step, "evicted",
				gev, gw,
				refLine{Addr: rev.Addr, Owner: rev.Owner, Port: rev.Port, Flags: rev.Flags, Valid: rev.Valid}, rw)
		case op < 65: // probe + touch
			gl, gw := c.Probe(addr)
			rl, rw := r.lookup(addr)
			want := refLine{}
			if rl != nil {
				want = *rl
			}
			compareLine(t, step, "probe", gl, gw, refLine{Addr: want.Addr, Owner: want.Owner, Port: want.Port, Flags: want.Flags, Valid: want.Valid}, rw)
			if gw >= 0 {
				c.Touch(addr, gw)
				r.touch(rl)
			}
		case op < 75: // invalidate
			gl, gok := c.Invalidate(addr)
			rl, rok := r.invalidate(addr)
			if gok != rok {
				t.Fatalf("step %d: invalidate ok=%v ref %v", step, gok, rok)
			}
			if gok && (gl.Addr != rl.Addr || gl.Owner != rl.Owner || gl.Flags != rl.Flags) {
				t.Fatalf("step %d: invalidate copy %+v ref %+v", step, gl, rl)
			}
		case op < 85: // move (the O1 migration primitive)
			gl, gw, gev := c.MoveToWay(addr, mask)
			rl, rw, rev := r.moveToWay(addr, mask)
			if (rl == nil) != (gw < 0) {
				t.Fatalf("step %d: move miss mismatch", step)
			}
			if gw >= 0 {
				if gw != rw {
					t.Fatalf("step %d: move way %d ref %d", step, gw, rw)
				}
				if gl.Addr != rl.Addr {
					t.Fatalf("step %d: moved %+v ref %+v", step, gl, *rl)
				}
				compareLine(t, step, "move-evicted", gev, 0, refLine{Addr: rev.Addr, Owner: rev.Owner, Port: rev.Port, Flags: rev.Flags, Valid: rev.Valid}, 0)
			}
		case op < 92: // victim preview (consumes the randomness stream)
			gw := c.victimWay(addr, mask)
			rl, rw := r.victim(addr, mask)
			if gw != rw {
				t.Fatalf("step %d: victim way %d ref %d (mask %#x)", step, gw, rw, uint32(mask))
			}
			if gValid := c.valid[addr&c.setMask]&(1<<uint(gw)) != 0; rl != nil && rl.Valid != gValid {
				t.Fatalf("step %d: victim valid %v ref %v", step, gValid, rl.Valid)
			}
		case op < 96: // flag mutation on a resident line
			if gl, gw := c.Probe(addr); gw >= 0 {
				set := LineFlags(rng.next() % 16)
				clr := LineFlags(rng.next() % 16)
				c.MutateFlags(addr, gw, set, clr)
				rl, _ := r.lookup(addr)
				rl.Flags = (rl.Flags | set) &^ clr
				_ = gl
			}
		default: // owner/port reassignment (the DDIO write-update path)
			if _, gw := c.Probe(addr); gw >= 0 {
				c.SetOwnerPort(addr, gw, owner, port)
				rl, _ := r.lookup(addr)
				rl.Owner = owner
				rl.Port = port
			}
		}
		if step%64 == 0 {
			checkState(t, step, c, r, mask)
		}
	}
	checkState(t, steps, c, r, mask)
}

func TestEquivalenceStrictLRU(t *testing.T) {
	runEquivalence(t, 16, 8, 0, 6000, 0xA4A4)
}

func TestEquivalenceVictimRandomness(t *testing.T) {
	// The imperfect-LRU path must consume the RNG stream exactly as the
	// original did, so victim choices stay aligned over thousands of ops.
	runEquivalence(t, 8, 11, 25, 6000, 0xBEEF)
}

func TestEquivalenceFullRandom(t *testing.T) {
	runEquivalence(t, 4, 16, 100, 4000, 0xF00D)
}

func TestEquivalenceSingleWay(t *testing.T) {
	runEquivalence(t, 32, 1, 10, 2000, 0x1234)
}

func TestInvalidateAllResets(t *testing.T) {
	c := New(8, 4)
	for a := uint64(1); a < 40; a++ {
		c.Insert(a, MaskAll(4), int16(a%3), -1, 0)
	}
	c.InvalidateAll()
	if n := c.CountValid(MaskAll(4)); n != 0 {
		t.Fatalf("CountValid after InvalidateAll = %d", n)
	}
	occ := map[int16]int{}
	c.OccupancyByOwner(MaskAll(4), occ)
	if len(occ) != 0 {
		t.Fatalf("occupancy after InvalidateAll = %v", occ)
	}
	// Refill behaves like a fresh cache.
	ev, w := c.Insert(1, MaskAll(4), 0, -1, 0)
	if ev.Valid || w != 0 {
		t.Fatalf("refill after InvalidateAll: ev=%+v w=%d", ev, w)
	}
}

func TestWaysBounds(t *testing.T) {
	for _, bad := range []int{0, -1, MaxWays + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New with %d ways should panic", bad)
				}
			}()
			New(8, bad)
		}()
	}
	New(8, MaxWays) // 16 ways is the documented maximum and must work
}

func TestAddressRangeGuard(t *testing.T) {
	c := New(8, 2)
	defer func() {
		if recover() == nil {
			t.Errorf("Insert beyond the 32-bit tag range should panic")
		}
	}()
	c.Insert(uint64(invalidTag), MaskAll(2), -1, -1, 0)
}
