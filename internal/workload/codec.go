package workload

import (
	"a4sim/internal/codec"
	"a4sim/internal/ssd"
)

// encodeState appends a stream's dynamic state: the RNG position and the
// sequential cursor. Working-set geometry is structural.
func (s *Stream) encodeState(w *codec.Writer) {
	w.U64(s.rng.State())
	w.U64(s.pos)
}

func (s *Stream) decodeState(r *codec.Reader) {
	s.rng.SetState(r.U64())
	pos := r.U64()
	if r.Err() != nil {
		return
	}
	if pos >= s.Lines {
		r.Failf("workload: snapshot stream cursor %d exceeds %d lines", pos, s.Lines)
		return
	}
	s.pos = pos
}

// encodeState appends the shared bookkeeping's dynamic state: the progress
// counter. Everything else in Base is structural.
func (b *Base) encodeState(w *codec.Writer) { w.I64(b.progress) }

func (b *Base) decodeState(r *codec.Reader) { b.progress = r.I64() }

// EncodeState appends the workload's dynamic state. Stream aliasing is
// encoded explicitly — per-slot indices into a unique-stream table — so a
// SharedWS workload round-trips with its sharing intact.
func (s *Synthetic) EncodeState(w *codec.Writer) {
	s.Base.encodeState(w)
	w.Int(s.rr)
	w.F64(s.instAcc)
	w.I64(s.obsAcc)
	w.I64(s.obsCyc)
	w.F64(s.ffAcc)
	w.U64(s.rng.State())
	unique, slotIdx := s.streamTable()
	w.Int(len(slotIdx))
	for _, i := range slotIdx {
		w.Int(i)
	}
	w.Int(len(unique))
	for _, st := range unique {
		st.encodeState(w)
	}
}

// streamTable returns the distinct streams in first-appearance order and
// each slot's index into that table.
func (s *Synthetic) streamTable() (unique []*Stream, slotIdx []int) {
	index := make(map[*Stream]int, len(s.streams))
	slotIdx = make([]int, len(s.streams))
	for i, st := range s.streams {
		idx, ok := index[st]
		if !ok {
			idx = len(unique)
			index[st] = idx
			unique = append(unique, st)
		}
		slotIdx[i] = idx
	}
	return unique, slotIdx
}

// DecodeState restores state written by EncodeState, rejecting snapshots
// whose slot count or aliasing pattern disagrees with the receiver's (the
// pattern is fixed by SharedWS at construction).
func (s *Synthetic) DecodeState(r *codec.Reader) {
	s.Base.decodeState(r)
	rr := r.Int()
	instAcc := r.F64()
	obsAcc := r.I64()
	obsCyc := r.I64()
	ffAcc := r.F64()
	rngState := r.U64()
	nSlots := r.Int()
	if r.Err() != nil {
		return
	}
	unique, slotIdx := s.streamTable()
	if nSlots != len(slotIdx) {
		r.Failf("workload: snapshot has %d stream slots, workload has %d", nSlots, len(slotIdx))
		return
	}
	for i := 0; i < nSlots; i++ {
		if idx := r.Int(); r.Err() == nil && idx != slotIdx[i] {
			r.Failf("workload: snapshot stream aliasing differs at slot %d", i)
		}
	}
	nUnique := r.Int()
	if r.Err() != nil {
		return
	}
	if nUnique != len(unique) {
		r.Failf("workload: snapshot has %d distinct streams, workload has %d", nUnique, len(unique))
		return
	}
	for _, st := range unique {
		st.decodeState(r)
	}
	if r.Err() != nil {
		return
	}
	s.rr = rr
	s.instAcc = instAcc
	s.obsAcc = obsAcc
	s.obsCyc = obsCyc
	s.ffAcc = ffAcc
	s.rng.SetState(rngState)
}

// EncodeState appends the workload's dynamic state: poll cursor,
// instruction accumulator, and the latency reservoirs (including their
// sampling RNG streams).
func (d *DPDK) EncodeState(w *codec.Writer) {
	d.Base.encodeState(w)
	w.Int(d.rr)
	w.F64(d.instAcc)
	d.lat.EncodeState(w)
	d.waitLat.EncodeState(w)
	d.descLat.EncodeState(w)
	d.procLat.EncodeState(w)
}

// DecodeState restores state written by EncodeState.
func (d *DPDK) DecodeState(r *codec.Reader) {
	d.Base.decodeState(r)
	d.rr = r.Int()
	d.instAcc = r.F64()
	d.lat.DecodeState(r)
	d.waitLat.DecodeState(r)
	d.descLat.DecodeState(r)
	d.procLat.DecodeState(r)
}

// EncodeState appends the workload's dynamic state: the submission RNG,
// latency reservoirs, poll cursor, startup flag, instruction accumulator,
// and the per-thread processing state (queued completions and the command
// being scanned). Buffer pools are structural.
func (f *FIO) EncodeState(w *codec.Writer) {
	f.Base.encodeState(w)
	w.U64(f.rng.State())
	f.readLat.EncodeState(w)
	f.procLat.EncodeState(w)
	w.Int(f.rr)
	w.Bool(f.started)
	w.F64(f.instAcc)
	w.Int(len(f.cores))
	for t := range f.cores {
		w.Int(f.curLine[t])
		w.F64(f.curStarted[t])
		w.Int(len(f.completed[t]))
		for _, c := range f.completed[t] {
			c.EncodeState(w)
		}
		w.Bool(f.curCmd[t] != nil)
		if f.curCmd[t] != nil {
			f.curCmd[t].EncodeState(w)
		}
	}
}

// DecodeState restores state written by EncodeState, rejecting snapshots
// whose thread count disagrees with the receiver's.
func (f *FIO) DecodeState(r *codec.Reader) {
	f.Base.decodeState(r)
	rngState := r.U64()
	f.readLat.DecodeState(r)
	f.procLat.DecodeState(r)
	rr := r.Int()
	started := r.Bool()
	instAcc := r.F64()
	nThreads := r.Int()
	if r.Err() != nil {
		return
	}
	if nThreads != len(f.cores) {
		r.Failf("workload: snapshot has %d FIO threads, workload has %d", nThreads, len(f.cores))
		return
	}
	curLine := make([]int, nThreads)
	curStarted := make([]float64, nThreads)
	completed := make([][]*ssd.Command, nThreads)
	curCmd := make([]*ssd.Command, nThreads)
	for t := 0; t < nThreads; t++ {
		curLine[t] = r.Int()
		curStarted[t] = r.F64()
		nq := r.Int()
		if r.Err() != nil {
			return
		}
		if nq < 0 || nq > r.Remaining() {
			r.Failf("workload: snapshot claims %d queued completions", nq)
			return
		}
		for i := 0; i < nq; i++ {
			c := ssd.DecodeCommand(r)
			if r.Err() != nil {
				return
			}
			completed[t] = append(completed[t], c)
		}
		if r.Bool() {
			curCmd[t] = ssd.DecodeCommand(r)
		}
		if r.Err() != nil {
			return
		}
	}
	f.rng.SetState(rngState)
	f.rr = rr
	f.started = started
	f.instAcc = instAcc
	f.curLine = curLine
	f.curStarted = curStarted
	f.completed = completed
	f.curCmd = curCmd
}
