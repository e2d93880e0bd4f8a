package directory

import (
	"math/bits"
	"testing"
	"testing/quick"
)

// tracked counts the directory's tracked lines by walking its bitmaps.
func tracked(d *Directory) int {
	n := 0
	for _, u := range d.used {
		n += bits.OnesCount32(u)
	}
	return n
}

func TestTrackLookupUntrack(t *testing.T) {
	d := New(4, 3)
	if core := d.Lookup(10); core != -1 {
		t.Fatalf("empty directory lookup = %d, want -1", core)
	}
	if _, ev := d.Track(10, 2); ev {
		t.Fatalf("tracking into empty set should not evict")
	}
	if core := d.Lookup(10); core != 2 {
		t.Fatalf("lookup = %d, want 2", core)
	}
	// Ownership transfer.
	if _, ev := d.Track(10, 3); ev {
		t.Fatalf("re-tracking should not evict")
	}
	if core := d.Lookup(10); core != 3 {
		t.Fatalf("after transfer lookup = %d, want 3", core)
	}
	d.Untrack(10)
	if core := d.Lookup(10); core != -1 {
		t.Fatalf("after untrack lookup = %d, want -1", core)
	}
	// Untracking a missing address is a no-op.
	d.Untrack(12345)
}

func TestBackInvalidationOnOverflow(t *testing.T) {
	d := New(1, 2) // one set, two entries
	d.Track(1, 0)
	d.Track(2, 1)
	victim, evicted := d.Track(3, 2)
	if !evicted {
		t.Fatalf("third entry must evict")
	}
	if victim.Addr != 1 || victim.Core != 0 {
		t.Errorf("expected LRU victim addr=1 core=0, got %+v", victim)
	}
	if d.BackInvalidations != 1 {
		t.Errorf("BackInvalidations = %d, want 1", d.BackInvalidations)
	}
	// The evicted address is gone; the others remain.
	if d.Lookup(1) != -1 || d.Lookup(2) != 1 || d.Lookup(3) != 2 {
		t.Errorf("post-eviction state wrong")
	}
}

func TestResetAndCount(t *testing.T) {
	d := New(8, 4)
	for a := uint64(0); a < 20; a++ {
		d.Track(a, int16(a%4))
	}
	if tracked(d) == 0 {
		t.Fatalf("expected tracked entries")
	}
	d.Reset()
	if tracked(d) != 0 || d.BackInvalidations != 0 {
		t.Errorf("reset incomplete")
	}
}

func TestDirectoryCapacityProperty(t *testing.T) {
	// Property: the directory never holds more than sets*ways entries, and
	// every tracked address is findable immediately after Track.
	d := New(4, 3)
	f := func(addrs []uint16, cores []uint8) bool {
		if len(cores) == 0 {
			return true
		}
		for i, a := range addrs {
			c := int16(cores[i%len(cores)] % 8)
			d.Track(uint64(a), c)
			if d.Lookup(uint64(a)) != int(c) {
				return false
			}
		}
		return tracked(d) <= 4*3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestNewValidation(t *testing.T) {
	for _, bad := range []struct{ sets, ways int }{{0, 2}, {3, 2}, {4, 0}} {
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
