package directory

import (
	"a4sim/internal/cache"
	"a4sim/internal/codec"
)

// EncodeState appends the directory's dynamic state: the sparse set array
// (cache.EncodeSets) and the back-invalidation diagnostic. Geometry is
// structural.
func (d *Directory) EncodeState(w *codec.Writer) {
	cache.EncodeSets(w, d.slots, d.order, d.used)
	w.I64(d.BackInvalidations)
}

// DecodeState restores state written by EncodeState, rejecting snapshots
// whose geometry or slot contents disagree with the receiver's. On error
// the receiver is left untouched.
func (d *Directory) DecodeState(r *codec.Reader) {
	sets := cache.ReadSets(r, len(d.order), d.ways)
	backInv := r.I64()
	if r.Err() != nil {
		return
	}
	sets.Restore(d.slots, d.order, d.used)
	d.BackInvalidations = backInv
}
