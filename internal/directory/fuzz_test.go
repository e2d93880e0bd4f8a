package directory

import (
	"bytes"
	"testing"

	"a4sim/internal/cache"
	"a4sim/internal/codec"
	"a4sim/internal/llc"
)

// churnedLLC fills an LLC-test-geometry array with a deterministic mix of
// owners, moves and invalidations, as the fuzz corpus's cache seed.
func churnedLLC(sets, ways int) *cache.Cache {
	c := cache.New(sets, ways)
	x := uint64(5)
	for i := 0; i < 3000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		addr := x % 2000
		switch {
		case x>>61 == 0:
			c.Invalidate(addr)
		case x>>61 == 1:
			c.MoveToWay(addr, cache.MaskRange(0, 1))
		case c.ProbeWay(addr) < 0:
			c.Insert(addr, cache.MaskAll(ways), int16(x>>40%4), -1, 0)
		}
	}
	return c
}

// FuzzDecodeSets feeds arbitrary bytes to the sparse set-array decoders of
// the LLC array and the extended directory, at the test geometry the
// hierarchy uses (256 sets; 11 LLC ways, 12 directory ways). Whatever the
// bytes, decoding must not panic, and a decode that succeeds must yield a
// consistent array:
//
//   - re-encoding it reproduces exactly the bytes the decoder consumed, so
//     the stream was in canonical form and nothing was silently dropped;
//   - its occupancy counts (CountValid, OccupancyByOwner) agree with a
//     walk of its lines, and the directory's bitmaps with its slot words;
//   - it keeps working: inserts, moves and tracks on it neither panic nor
//     break that agreement.
//
// Run with `go test -fuzz FuzzDecodeSets ./internal/directory`.
func FuzzDecodeSets(f *testing.F) {
	g := llc.TestGeometry()
	for _, c := range []*cache.Cache{cache.New(g.Sets, g.Ways), churnedLLC(g.Sets, g.Ways)} {
		w := &codec.Writer{}
		c.EncodeState(w)
		f.Add(w.Bytes())
	}
	f.Add(encodeDir(New(testSets, testWays)))
	f.Add(encodeDir(churnedDir()))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		c := cache.New(g.Sets, g.Ways)
		r := codec.NewReader(data)
		c.DecodeState(r)
		if r.Err() == nil {
			consumed := data[:len(data)-r.Remaining()]
			w := &codec.Writer{}
			c.EncodeState(w)
			if !bytes.Equal(w.Bytes(), consumed) {
				t.Fatal("cache: decoded array re-encodes to different bytes")
			}
			checkCounters(t, c, g.Ways)
			x := uint64(len(data)) | 1
			for i := 0; i < 64; i++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				addr := x % (8 * uint64(g.Sets))
				c.Insert(addr, cache.WayMask(x>>32)&cache.MaskAll(g.Ways), int16(x>>48%3), -1, 0)
				c.MoveToWay(addr^1, cache.MaskRange(0, 1))
				c.Invalidate(addr ^ 2)
			}
			checkCounters(t, c, g.Ways)
		}

		d := New(g.Sets, testWays)
		r = codec.NewReader(data)
		d.DecodeState(r)
		if r.Err() == nil {
			consumed := data[:len(data)-r.Remaining()]
			if !bytes.Equal(encodeDir(d), consumed) {
				t.Fatal("directory: decoded array re-encodes to different bytes")
			}
			checkDir(t, d)
			for addr := uint64(0); addr < 64; addr++ {
				d.Track(addr*7, int16(addr%4))
				d.Untrack(addr * 3)
			}
			checkDir(t, d)
		}
	})
}

// checkCounters compares the cache's occupancy counts, way by way, with a
// reference count taken from a walk of its valid lines.
func checkCounters(t *testing.T, c *cache.Cache, ways int) {
	t.Helper()
	byWay := make([]int, ways)
	byOwner := make([]map[int16]int, ways)
	for w := range byOwner {
		byOwner[w] = map[int16]int{}
	}
	total := 0
	c.ForEach(func(set, way int, l *cache.Line) {
		total++
		byWay[way]++
		if l.Owner >= 0 {
			byOwner[way][l.Owner]++
		}
	})
	if got := c.CountValid(cache.MaskAll(ways)); got != total {
		t.Fatalf("CountValid %d, walk finds %d lines", got, total)
	}
	for w := 0; w < ways; w++ {
		m := cache.WayMask(1) << uint(w)
		if got := c.CountValid(m); got != byWay[w] {
			t.Fatalf("way %d: CountValid %d, walk %d", w, got, byWay[w])
		}
		seen := map[int16]int{}
		c.OccupancyByOwner(m, seen)
		if len(seen) != len(byOwner[w]) {
			t.Fatalf("way %d: OccupancyByOwner %v, walk %v", w, seen, byOwner[w])
		}
		for o, n := range byOwner[w] {
			if seen[o] != n {
				t.Fatalf("way %d owner %d: OccupancyByOwner %d, walk %d", w, o, seen[o], n)
			}
		}
	}
}

// checkDir compares the directory's bitmaps with its slot words.
func checkDir(t *testing.T, d *Directory) {
	t.Helper()
	for set, u := range d.used {
		for w := 0; w < d.ways; w++ {
			inUse := u&(1<<uint(w)) != 0
			if inUse != (uint32(d.slots[set*d.ways+w]) != invalidTag) {
				t.Fatalf("set %d way %d: bitmap says %v, slot word %#x", set, w, inUse, d.slots[set*d.ways+w])
			}
		}
	}
}
