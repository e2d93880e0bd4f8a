package cache

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"a4sim/internal/codec"
)

// churned returns an LLC-test-geometry array (256 sets x 11 ways) after a
// deterministic mix of inserts, touches, moves and invalidations, so some
// sets are full, some partial and some empty.
func churned() *Cache {
	c := New(256, 11)
	c.SetVictimRandomness(10, 7)
	x := uint64(1)
	for i := 0; i < 4000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		addr := x % 1800
		switch x >> 60 {
		case 0:
			c.Invalidate(addr)
		case 1:
			c.MoveToWay(addr, MaskRange(9, 10))
		case 2:
			if w := c.ProbeWay(addr); w >= 0 {
				c.Touch(addr, w)
			}
		default:
			if c.ProbeWay(addr) < 0 {
				c.Insert(addr, MaskAll(11), int16(x>>40%5)-1, -1, FlagIO)
			}
		}
	}
	return c
}

func encodeState(c *Cache) []byte {
	w := &codec.Writer{}
	c.EncodeState(w)
	return w.Bytes()
}

// countersOf returns the array's occupancy counts way by way: valid lines
// and valid lines per owner, as CountValid and OccupancyByOwner report them.
func countersOf(c *Cache) (byWay []int, byOwner []map[int16]int) {
	for w := 0; w < c.ways; w++ {
		m := WayMask(1) << uint(w)
		occ := map[int16]int{}
		c.OccupancyByOwner(m, occ)
		byWay = append(byWay, c.CountValid(m))
		byOwner = append(byOwner, occ)
	}
	return byWay, byOwner
}

// TestSparseStateRoundTrip pins the v3 array codec: decoding restores the
// slots, orders, bitmaps and randomness stream exactly, so the occupancy
// counts the stream does not carry read the same, re-encodes to the same
// bytes, and writes only the valid slot words.
func TestSparseStateRoundTrip(t *testing.T) {
	c := churned()
	data := encodeState(c)
	got := New(256, 11)
	r := codec.NewReader(data)
	got.DecodeState(r)
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if r.Remaining() != 0 {
		t.Fatalf("%d bytes left over", r.Remaining())
	}
	if !reflect.DeepEqual(got.slots, c.slots) || !reflect.DeepEqual(got.order, c.order) ||
		!reflect.DeepEqual(got.valid, c.valid) || got.rngs != c.rngs {
		t.Fatal("decoded array differs from the encoded one")
	}
	wantWay, wantOwner := countersOf(c)
	gotWay, gotOwner := countersOf(got)
	if !reflect.DeepEqual(gotWay, wantWay) || !reflect.DeepEqual(gotOwner, wantOwner) {
		t.Fatalf("decoded occupancy counts differ:\nway   %v vs %v\nowner %v vs %v", gotWay, wantWay, gotOwner, wantOwner)
	}
	if again := encodeState(got); !bytes.Equal(again, data) {
		t.Fatal("re-encoding the decoded array changed its bytes")
	}
	valid := c.CountValid(MaskAll(11))
	if valid == 0 || valid == len(c.slots) {
		t.Fatalf("churn left %d of %d slots valid; the test needs a partial array", valid, len(c.slots))
	}
	// ways + two counted per-set slices + word count + words + rng.
	if want := 4 + (4 + 4*256) + (4 + 8*256) + 4 + 8*valid + 8; len(data) != want {
		t.Fatalf("encoded %d bytes, want %d for %d valid slots", len(data), want, valid)
	}

	// An empty array decodes onto a dirty one as empty.
	dirty := churned()
	r = codec.NewReader(encodeState(New(256, 11)))
	dirty.DecodeState(r)
	if r.Err() != nil || dirty.CountValid(MaskAll(11)) != 0 || !reflect.DeepEqual(dirty.slots, New(256, 11).slots) {
		t.Fatalf("empty state did not restore an empty array (err %v)", r.Err())
	}
}

// setStream is a set array's wire form, taken apart so test cases can
// corrupt one field at a time.
type setStream struct {
	ways  uint32
	valid []uint32
	order []uint64
	n     uint32 // the word count as written, normally len(words)
	words []uint64
	tail  []byte // what follows the array (the randomness stream)
}

func parseSetStream(t *testing.T, data []byte) setStream {
	t.Helper()
	r := codec.NewReader(data)
	s := setStream{ways: r.U32(), valid: r.U32s(), order: r.U64s(), n: r.U32()}
	for i := uint32(0); i < s.n; i++ {
		s.words = append(s.words, r.U64())
	}
	s.tail = r.Raw(r.Remaining())
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	return s
}

func (s setStream) bytes() []byte {
	w := &codec.Writer{}
	w.U32(s.ways)
	w.U32s(s.valid)
	w.U64s(s.order)
	w.U32(s.n)
	for _, x := range s.words {
		w.U64(x)
	}
	w.Raw(s.tail)
	return w.Bytes()
}

// firstValid returns the first set holding a line; words[0] is its first
// line.
func (s setStream) firstValid() int {
	for set, v := range s.valid {
		if v != 0 {
			return set
		}
	}
	return -1
}

// sparseRejections is the decoder's rejection table: each case corrupts
// one field of a valid stream and names the error it must produce.
var sparseRejections = []struct {
	name    string
	corrupt func(s *setStream)
	want    string
}{
	{"fewer ways", func(s *setStream) { s.ways-- }, "geometry"},
	{"more sets", func(s *setStream) {
		s.valid = append(s.valid, 0)
		s.order = append(s.order, IdentityOrder)
	}, "geometry"},
	{"fewer orders", func(s *setStream) { s.order = s.order[1:] }, "geometry"},
	{"bitmap bit at ways", func(s *setStream) {
		s.valid[s.firstValid()] |= 1 << s.ways
		s.words = append(s.words, s.words[0])
		s.n++
	}, "beyond"},
	{"bitmap bit at bit 31", func(s *setStream) { s.valid[0] |= 1 << 31 }, "beyond"},
	{"valid bit over an empty slot word", func(s *setStream) {
		s.words[0] = uint64(^uint32(0))
	}, "empty slot"},
	{"line filed under another set", func(s *setStream) {
		s.words[0]++
	}, "another set"},
	{"LRU order repeats a way", func(s *setStream) { s.order[5] = IdentityOrder &^ 0xF0 }, "permutation"},
	{"LRU order names a way beyond", func(s *setStream) { s.order[5] = 0xEDCBA9876543210F }, "permutation"},
	{"missing word", func(s *setStream) {
		s.words = s.words[:len(s.words)-1]
		s.n--
	}, "slot words"},
	{"surplus word", func(s *setStream) {
		s.words = append(s.words, s.words[0])
		s.n++
	}, "slot words"},
	{"stream ends inside the words", func(s *setStream) {
		s.words = s.words[:len(s.words)-1]
		s.tail = nil
	}, "truncated"},
}

// TestDecodeSetsRejects runs the rejection table against the cache: every
// corruption fails with its error and leaves the receiver untouched.
func TestDecodeSetsRejects(t *testing.T) {
	intact := parseSetStream(t, encodeState(churned()))
	if !bytes.Equal(intact.bytes(), encodeState(churned())) {
		t.Fatal("setStream does not reproduce the encoding")
	}
	for _, tc := range sparseRejections {
		t.Run(tc.name, func(t *testing.T) {
			s := parseSetStream(t, encodeState(churned()))
			tc.corrupt(&s)
			c := New(256, 11)
			before := encodeState(c)
			r := codec.NewReader(s.bytes())
			c.DecodeState(r)
			if r.Err() == nil || !strings.Contains(r.Err().Error(), tc.want) {
				t.Fatalf("err %v, want one mentioning %q", r.Err(), tc.want)
			}
			if !bytes.Equal(encodeState(c), before) || c.CountValid(MaskAll(11)) != 0 {
				t.Fatal("a rejected decode modified the receiver")
			}
		})
	}
}
