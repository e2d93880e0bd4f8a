package directory

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"slices"
	"strings"
	"testing"

	"a4sim/internal/codec"
)

// The hierarchy's test geometry tracks MLC lines in a 256-set, 12-way
// extended directory.
const testSets, testWays = 256, 12

// churnedDir tracks, moves and untracks a deterministic address stream so
// the directory holds full, partial and empty sets and has back-invalidated.
func churnedDir() *Directory {
	d := New(testSets, testWays)
	x := uint64(3)
	for i := 0; i < 5000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		addr := x % 3500
		if x>>61 == 0 {
			d.Untrack(addr)
		} else {
			d.Track(addr, int16(x>>40%8))
		}
	}
	return d
}

func encodeDir(d *Directory) []byte {
	w := &codec.Writer{}
	d.EncodeState(w)
	return w.Bytes()
}

// TestSparseStateRoundTrip pins the directory's v3 codec: the decoded
// directory equals the encoded one and re-encodes to the same bytes.
func TestSparseStateRoundTrip(t *testing.T) {
	d := churnedDir()
	if d.BackInvalidations == 0 || tracked(d) == 0 || tracked(d) == testSets*testWays {
		t.Fatalf("churn left %d tracked lines and %d back-invalidations; the test needs a partial directory",
			tracked(d), d.BackInvalidations)
	}
	data := encodeDir(d)
	got := New(testSets, testWays)
	r := codec.NewReader(data)
	got.DecodeState(r)
	if r.Err() != nil || r.Remaining() != 0 {
		t.Fatalf("decode: err %v, %d bytes left", r.Err(), r.Remaining())
	}
	if !reflect.DeepEqual(got, d) {
		t.Fatal("decoded directory differs from the encoded one")
	}
	if !bytes.Equal(encodeDir(got), data) {
		t.Fatal("re-encoding the decoded directory changed its bytes")
	}
}

// Offsets into an encoded directory: associativity, counted bitmaps,
// counted orders, then the word count and the words.
func bitmapOff(set int) int { return 4 + 4 + 4*set }
func orderOff(set int) int  { return bitmapOff(testSets) + 4 + 8*set }

var wordsOff = orderOff(testSets) + 4

// TestDecodeSetsRejects corrupts one field of an encoded directory per
// case: each must fail with its error and leave the receiver untouched.
func TestDecodeSetsRejects(t *testing.T) {
	d := churnedDir()
	first := slices.IndexFunc(d.used, func(u uint32) bool { return u != 0 })
	put32 := func(b []byte, off int, v uint32) { binary.LittleEndian.PutUint32(b[off:], v) }
	get32 := func(b []byte, off int) uint32 { return binary.LittleEndian.Uint32(b[off:]) }
	cases := []struct {
		name    string
		sets    int
		ways    int
		corrupt func(b []byte) []byte
		want    string
	}{
		{"fewer sets", testSets / 2, testWays, nil, "geometry"},
		{"fewer ways", testSets, testWays - 1, nil, "geometry"},
		{"bitmap bit at ways", testSets, testWays, func(b []byte) []byte {
			put32(b, bitmapOff(first), get32(b, bitmapOff(first))|1<<testWays)
			return b
		}, "beyond"},
		{"LRU order repeats a way", testSets, testWays, func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[orderOff(7):], 0xFEDCBA9876543200)
			return b
		}, "permutation"},
		{"valid bit over an empty slot word", testSets, testWays, func(b []byte) []byte {
			put32(b, wordsOff, ^uint32(0))
			return b
		}, "empty slot"},
		{"line filed under another set", testSets, testWays, func(b []byte) []byte {
			put32(b, wordsOff, get32(b, wordsOff)+1)
			return b
		}, "another set"},
		{"missing word", testSets, testWays, func(b []byte) []byte {
			put32(b, wordsOff-4, get32(b, wordsOff-4)-1)
			return slices.Delete(b, wordsOff, wordsOff+8)
		}, "slot words"},
		{"surplus word", testSets, testWays, func(b []byte) []byte {
			put32(b, wordsOff-4, get32(b, wordsOff-4)+1)
			return slices.Insert(b, wordsOff, b[wordsOff:wordsOff+8]...)
		}, "slot words"},
		{"stream ends inside the words", testSets, testWays, func(b []byte) []byte {
			return b[:len(b)-8-4]
		}, "truncated"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := encodeDir(d)
			if tc.corrupt != nil {
				data = tc.corrupt(data)
			}
			got := New(tc.sets, tc.ways)
			before := encodeDir(got)
			r := codec.NewReader(data)
			got.DecodeState(r)
			if r.Err() == nil || !strings.Contains(r.Err().Error(), tc.want) {
				t.Fatalf("err %v, want one mentioning %q", r.Err(), tc.want)
			}
			if !bytes.Equal(encodeDir(got), before) || tracked(got) != 0 {
				t.Fatal("a rejected decode modified the receiver")
			}
		})
	}
}
