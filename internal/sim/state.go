package sim

import "a4sim/internal/codec"

// State returns the generator's raw state word, for snapshot encoding.
func (r *RNG) State() uint64 { return r.state }

// SetState overwrites the generator's state word, restoring a snapshot. The
// zero-seed remapping of NewRNG is deliberately not applied: a snapshot
// restores whatever state the stream had, including states that pass
// through zero.
func (r *RNG) SetState(s uint64) { r.state = s }

// EncodeState appends the engine's dynamic state: simulated time, the root
// RNG stream position, and the per-actor fractional budget carries. The
// actor and observer sets are structural — a decoder rebuilds them from the
// scenario spec and only restores this dynamic state on top.
func (e *Engine) EncodeState(w *codec.Writer) {
	w.I64(int64(e.now))
	w.U64(e.rng.state)
	w.F64s(e.carry)
	w.I64(int64(e.ffSkipped))
}

// DecodeState restores state written by EncodeState. The carry count must
// match the engine's registered actor count (budget carries are matched by
// position); a mismatch means the snapshot was taken
// from a structurally different scenario and fails the read.
func (e *Engine) DecodeState(r *codec.Reader) {
	now := r.I64()
	rngState := r.U64()
	carry := r.F64s()
	ffSkipped := r.I64()
	if r.Err() != nil {
		return
	}
	if len(carry) != len(e.actors) {
		r.Failf("sim: snapshot has %d budget carries, engine has %d actors", len(carry), len(e.actors))
		return
	}
	e.now = Tick(now)
	e.rng.state = rngState
	copy(e.carry, carry)
	e.ffSkipped = Tick(ffSkipped)
	e.stopped = false
}
