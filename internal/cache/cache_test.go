package cache

import (
	"testing"
	"testing/quick"
)

func TestMaskHelpers(t *testing.T) {
	if got := MaskAll(11); got != 0x7FF {
		t.Errorf("MaskAll(11) = %#x, want 0x7ff", uint32(got))
	}
	if got := MaskRange(0, 1); got != 0x3 {
		t.Errorf("MaskRange(0,1) = %#x, want 0x3", uint32(got))
	}
	if got := MaskRange(9, 10); got != 0x600 {
		t.Errorf("MaskRange(9,10) = %#x, want 0x600", uint32(got))
	}
	if got := MaskRange(5, 4); got != 0 {
		t.Errorf("MaskRange(5,4) = %#x, want 0", uint32(got))
	}
	if MaskRange(2, 5).Count() != 4 {
		t.Errorf("Count of [2:5] should be 4")
	}
	if !MaskRange(3, 7).Contiguous() {
		t.Errorf("[3:7] should be contiguous")
	}
	if (MaskRange(0, 1) | MaskRange(5, 6)).Contiguous() {
		t.Errorf("split mask should not be contiguous")
	}
	if WayMask(0).Contiguous() {
		t.Errorf("empty mask is not contiguous")
	}
	if !MaskRange(4, 6).Has(5) || MaskRange(4, 6).Has(7) {
		t.Errorf("Has membership wrong")
	}
}

func TestMaskContiguousQuick(t *testing.T) {
	// Property: MaskRange always produces a contiguous mask with the right
	// population count.
	f := func(lo, span uint8) bool {
		l := int(lo % 20)
		h := l + int(span%12)
		m := MaskRange(l, h)
		return m.Contiguous() && m.Count() == h-l+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNewValidation(t *testing.T) {
	for _, bad := range []struct{ sets, ways int }{
		{0, 4}, {3, 4}, {-8, 4}, {8, 0}, {8, 33},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d) should panic", bad.sets, bad.ways)
				}
			}()
			New(bad.sets, bad.ways)
		}()
	}
}

func TestInsertLookupInvalidate(t *testing.T) {
	c := New(16, 4)
	all := MaskAll(4)
	ev, way := c.Insert(100, all, 7, 2, FlagIO)
	if ev.Valid || way < 0 {
		t.Fatalf("first insert should use an empty slot, got ev=%+v way=%d", ev, way)
	}
	l, w := c.Probe(100)
	if !l.Valid || w != way {
		t.Fatalf("probe after insert failed")
	}
	if l.Owner != 7 || l.Port != 2 || !l.IO() || l.Dirty() {
		t.Errorf("metadata not preserved: %+v", l)
	}
	if old, ok := c.Invalidate(100); !ok || old.Addr != 100 {
		t.Fatalf("invalidate failed")
	}
	if l, _ := c.Probe(100); l.Valid {
		t.Fatalf("probe after invalidate should miss")
	}
	if _, ok := c.Invalidate(100); ok {
		t.Errorf("double invalidate should report false")
	}
}

func TestLRUVictim(t *testing.T) {
	c := New(1, 4) // single set
	all := MaskAll(4)
	for a := uint64(0); a < 4; a++ {
		c.Insert(a, all, -1, -1, 0)
	}
	// Touch 0 so 1 becomes LRU.
	_, w := c.Probe(0)
	c.Touch(0, w)
	ev, _ := c.Insert(99, all, -1, -1, 0)
	if !ev.Valid || ev.Addr != 1 {
		t.Errorf("expected LRU victim addr 1, got %+v", ev)
	}
}

func TestMaskedVictimSelection(t *testing.T) {
	c := New(1, 4)
	all := MaskAll(4)
	for a := uint64(0); a < 4; a++ {
		c.Insert(a, all, -1, -1, 0)
	}
	// Restrict allocation to ways 2-3: the victim must come from there.
	_, way := c.Insert(50, MaskRange(2, 3), -1, -1, 0)
	if way != 2 && way != 3 {
		t.Errorf("victim way %d outside mask [2:3]", way)
	}
	if l, w := c.Probe(50); !l.Valid || (w != 2 && w != 3) {
		t.Errorf("new line not placed in masked ways")
	}
}

func TestInsertEmptyMask(t *testing.T) {
	c := New(4, 4)
	ev, way := c.Insert(1, 0, -1, -1, 0)
	if way != -1 || ev.Valid {
		t.Errorf("empty mask should not allocate")
	}
}

func TestMoveToWay(t *testing.T) {
	c := New(1, 4)
	all := MaskAll(4)
	for a := uint64(0); a < 4; a++ {
		c.Insert(a, all, int16(a), -1, 0)
	}
	// Move addr 0 into ways [2:3]; the victim must be evicted from there.
	moved, mw, ev := c.MoveToWay(0, MaskRange(2, 3))
	if mw < 0 || moved.Addr != 0 {
		t.Fatalf("move failed: %+v way %d", moved, mw)
	}
	if w := c.ProbeWay(0); w != 2 && w != 3 {
		t.Errorf("moved line in way %d, want 2 or 3", w)
	}
	if !ev.Valid || (ev.Addr != 2 && ev.Addr != 3) {
		t.Errorf("unexpected eviction %+v", ev)
	}
	// Moving a line already inside the mask is a no-op with a touch.
	_, _, ev2 := c.MoveToWay(0, MaskRange(2, 3))
	if ev2.Valid {
		t.Errorf("in-place move should not evict")
	}
	// Moving a missing line reports way -1.
	if _, w, _ := c.MoveToWay(999, all); w >= 0 {
		t.Errorf("moving a missing line should report a miss")
	}
}

func TestFlags(t *testing.T) {
	var l Line
	l.Set(FlagDirty | FlagIO)
	if !l.Dirty() || !l.IO() || l.Consumed() || l.Inclusive() {
		t.Errorf("flag set/test broken: %+v", l.Flags)
	}
	l.Set(FlagConsumed | FlagInclusive)
	l.Clear(FlagDirty)
	if l.Dirty() || !l.Consumed() || !l.Inclusive() {
		t.Errorf("flag clear broken: %+v", l.Flags)
	}
}

func TestOccupancyAndCount(t *testing.T) {
	c := New(4, 4)
	all := MaskAll(4)
	for a := uint64(0); a < 8; a++ {
		c.Insert(a, all, int16(a%2), -1, 0)
	}
	if n := c.CountValid(all); n != 8 {
		t.Errorf("CountValid = %d, want 8", n)
	}
	occ := map[int16]int{}
	c.OccupancyByOwner(all, occ)
	if occ[0]+occ[1] != 8 || occ[0] != 4 {
		t.Errorf("occupancy wrong: %v", occ)
	}
	c.InvalidateAll()
	if n := c.CountValid(all); n != 0 {
		t.Errorf("CountValid after InvalidateAll = %d", n)
	}
}

func TestCacheNeverExceedsAssociativity(t *testing.T) {
	// Property: after arbitrary inserts, each set holds at most `ways`
	// valid lines and Lookup finds exactly the lines most recently present.
	c := New(8, 3)
	all := MaskAll(3)
	f := func(addrs []uint16) bool {
		for _, a := range addrs {
			c.Insert(uint64(a), all, -1, -1, 0)
		}
		counts := make(map[int]int)
		c.ForEach(func(set, way int, l *Line) { counts[set]++ })
		for _, n := range counts {
			if n > 3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestRandomVictimStaysInMask(t *testing.T) {
	c := New(1, 8)
	c.SetVictimRandomness(100, 42)
	all := MaskAll(8)
	for a := uint64(0); a < 8; a++ {
		c.Insert(a, all, -1, -1, 0)
	}
	for i := 0; i < 200; i++ {
		way := c.victimWay(0, MaskRange(2, 4))
		if way < 2 || way > 4 {
			t.Fatalf("random victim way %d escaped mask [2:4]", way)
		}
	}
}

func TestVictimPrefersInvalid(t *testing.T) {
	c := New(1, 4)
	c.SetVictimRandomness(100, 7)
	all := MaskAll(4)
	c.Insert(1, all, -1, -1, 0)
	// Ways 1-3 are invalid; victim must be one of them even with full
	// randomness, because invalid slots take priority.
	for i := 0; i < 50; i++ {
		if w := c.victimWay(2, all); c.valid[0]&(1<<uint(w)) != 0 {
			t.Fatalf("victim should prefer an invalid slot")
		}
	}
}
