package cache

import (
	"encoding/binary"
	"math/bits"

	"a4sim/internal/codec"
)

// EncodeState appends the array's dynamic state: the sparse set array
// (EncodeSets) and the victim-randomness stream. Geometry (sets, ways,
// randPct) is structural: a decoder rebuilds the array from configuration
// and only restores this state on top.
func (c *Cache) EncodeState(w *codec.Writer) {
	EncodeSets(w, c.slots, c.order, c.valid)
	w.U64(c.rngs)
}

// DecodeState restores state written by EncodeState, rejecting snapshots
// whose geometry or slot contents disagree with the receiver's. On error
// the receiver is left untouched.
func (c *Cache) DecodeState(r *codec.Reader) {
	sets := ReadSets(r, len(c.order), c.ways)
	rngs := r.U64()
	if r.Err() != nil {
		return
	}
	sets.Restore(c.slots, c.order, c.valid)
	c.rngs = rngs
}

// EncodeSets appends a set array sparsely: its associativity, the per-set
// valid bitmaps and LRU permutations (both dense), then a count and the
// slot words of the valid ways only, in set-major, way-ascending order.
// Empty slots are implied by the bitmaps, so a mostly empty array costs its
// per-set words, not its capacity. Shared with internal/directory, whose
// storage mirrors this package's.
func EncodeSets(w *codec.Writer, slots, order []uint64, valid []uint32) {
	n := 0
	for _, v := range valid {
		n += bits.OnesCount32(v)
	}
	ways := len(slots) / len(valid)
	w.Grow(4 + 4 + 4*len(valid) + 4 + 8*len(order) + 4 + 8*n)
	w.U32(uint32(ways))
	w.U32s(valid)
	w.U64s(order)
	w.U32(uint32(n))
	for set, v := range valid {
		base := set * ways
		for bm := v; bm != 0; bm &= bm - 1 {
			w.U64(slots[base+bits.TrailingZeros32(bm)])
		}
	}
}

// SetArray is a set array read and validated by ReadSets but not yet
// applied: views of the stream's bitmaps, LRU words and valid slot words.
// The split lets a caller finish reading its own fields before it touches
// the receiver, so a rejected stream leaves the receiver unchanged.
type SetArray struct {
	ways  int
	valid []byte // numSets little-endian uint32 bitmaps
	order []byte // numSets little-endian uint64 LRU words
	words []byte // little-endian uint64 slot words, one per valid bit
}

// ReadSets reads a set array written by EncodeSets for an array of numSets
// sets of ways ways. It rejects a geometry that disagrees with the
// receiver's, bitmap bits at or beyond ways, an LRU word that is not a
// permutation PromoteMRU can reach, a word count that differs from the
// bitmaps' population, and a valid slot whose word carries the invalid tag
// or an address that does not index its set. After a failure (recorded on
// r) the result is empty.
func ReadSets(r *codec.Reader, numSets, ways int) SetArray {
	gotWays := int(r.U32())
	nValid := int(r.U32())
	valid := r.Raw(4 * nValid)
	nOrder := int(r.U32())
	order := r.Raw(8 * nOrder)
	n := int(r.U32())
	if r.Err() != nil {
		return SetArray{}
	}
	if gotWays != ways || nValid != numSets || nOrder != numSets {
		r.Failf("set array: snapshot geometry %d ways, %d bitmaps, %d orders; array has %d sets of %d ways",
			gotWays, nValid, nOrder, numSets, ways)
		return SetArray{}
	}
	wayBits := uint32(1)<<uint(ways) - 1
	total := 0
	for set := 0; set < numSets; set++ {
		v := binary.LittleEndian.Uint32(valid[4*set:])
		if v&^wayBits != 0 {
			r.Failf("set array: set %d bitmap %#x marks ways beyond %d", set, v, ways)
			return SetArray{}
		}
		if o := binary.LittleEndian.Uint64(order[8*set:]); !reachableOrder(o, ways) {
			r.Failf("set array: set %d LRU order %#x is not a %d-way permutation", set, o, ways)
			return SetArray{}
		}
		total += bits.OnesCount32(v)
	}
	if n != total {
		r.Failf("set array: snapshot carries %d slot words, bitmaps mark %d valid", n, total)
		return SetArray{}
	}
	words := r.Raw(8 * n)
	if r.Err() != nil {
		return SetArray{}
	}
	setMask := uint32(numSets - 1)
	k := 0
	for set := 0; set < numSets; set++ {
		for bm := binary.LittleEndian.Uint32(valid[4*set:]); bm != 0; bm &= bm - 1 {
			switch tag := uint32(binary.LittleEndian.Uint64(words[8*k:])); {
			case tag == invalidTag:
				r.Failf("set array: set %d way %d is marked valid but holds an empty slot", set, bits.TrailingZeros32(bm))
				return SetArray{}
			case tag&setMask != uint32(set):
				r.Failf("set array: set %d way %d holds line %#x of another set", set, bits.TrailingZeros32(bm), tag)
				return SetArray{}
			}
			k++
		}
	}
	return SetArray{ways: ways, valid: valid, order: order, words: words}
}

// Restore overwrites a receiver of the geometry ReadSets checked: every
// slot, LRU word and bitmap. Slots without a valid bit become empty. A set
// whose receiver bitmap is zero holds only empty slots already, so
// restoring onto a freshly built array only scatters the valid words.
func (a SetArray) Restore(slots, order []uint64, valid []uint32) {
	k := 0
	for set := range valid {
		s := slots[set*a.ways : (set+1)*a.ways]
		if valid[set] != 0 {
			for w := range s {
				s[w] = invalidSlot
			}
		}
		v := binary.LittleEndian.Uint32(a.valid[4*set:])
		valid[set] = v
		order[set] = binary.LittleEndian.Uint64(a.order[8*set:])
		for bm := v; bm != 0; bm &= bm - 1 {
			s[bits.TrailingZeros32(bm)] = binary.LittleEndian.Uint64(a.words[8*k:])
			k++
		}
	}
}

// reachableOrder reports whether order is a packed LRU permutation a
// ways-way set can hold: its low ways nibbles name every way exactly once,
// and the nibbles above keep IdentityOrder's values, which PromoteMRU never
// moves.
func reachableOrder(order uint64, ways int) bool {
	if order == IdentityOrder {
		return true // every set that was never touched
	}
	hi := uint(4 * ways)
	if order>>hi != IdentityOrder>>hi {
		return false
	}
	var seen uint32
	for x, p := order, 0; p < ways; x, p = x>>4, p+1 {
		seen |= 1 << uint(x&0xF)
	}
	return seen == uint32(1)<<uint(ways)-1
}
