package stats

import "a4sim/internal/codec"

// EncodeState appends the counter's lifetime total and delta watermark.
func (c *Counter) EncodeState(w *codec.Writer) {
	w.I64(c.total)
	w.I64(c.last)
}

// DecodeState restores state written by EncodeState.
func (c *Counter) DecodeState(r *codec.Reader) {
	c.total = r.I64()
	c.last = r.I64()
}

// EncodeState appends the reservoir's retained samples, offered-sample
// count, and replacement RNG state. Capacity is structural (fixed by the
// workload constructors) and is validated, not restored, on decode.
func (r *Reservoir) EncodeState(w *codec.Writer) {
	w.F64s(r.samples)
	w.I64(r.seen)
	w.U64(r.rngs)
}

// DecodeState restores state written by EncodeState, rejecting sample sets
// that exceed the receiver's capacity (a snapshot from a differently-sized
// reservoir).
func (r *Reservoir) DecodeState(rd *codec.Reader) {
	samples := rd.F64s()
	seen := rd.I64()
	rngs := rd.U64()
	if rd.Err() != nil {
		return
	}
	if len(samples) > r.capN {
		rd.Failf("stats: snapshot reservoir has %d samples, capacity %d", len(samples), r.capN)
		return
	}
	r.samples = samples
	r.seen = seen
	r.rngs = rngs
}

// EncodeState appends the series in binary form: column names, then each
// column's values. Unlike Encode (canonical JSON), the binary form is
// infallible and round-trips every float64 bit pattern.
func (s *Series) EncodeState(w *codec.Writer) {
	w.U32(uint32(len(s.names)))
	for _, n := range s.names {
		w.String(n)
	}
	w.Int(s.rows)
	for _, c := range s.cols {
		w.F64s(c)
	}
}

// DecodeSeriesState reads a series written by EncodeState.
func DecodeSeriesState(r *codec.Reader) *Series {
	n := int(r.U32())
	if r.Err() != nil {
		return nil
	}
	if n > r.Remaining() {
		r.Failf("stats: snapshot series claims %d columns", n)
		return nil
	}
	names := make([]string, n)
	seen := make(map[string]bool, n)
	for i := range names {
		names[i] = r.String()
		if seen[names[i]] {
			r.Failf("stats: snapshot series has duplicate column %q", names[i])
			return nil
		}
		seen[names[i]] = true
	}
	rows := r.Int()
	if r.Err() != nil {
		return nil
	}
	s := NewSeries(names...)
	s.rows = rows
	for i := range s.cols {
		c := r.F64s()
		if len(c) != rows {
			r.Failf("stats: snapshot series column %q has %d rows, header says %d", names[i], len(c), rows)
			return nil
		}
		s.cols[i] = c
	}
	if r.Err() != nil {
		return nil
	}
	return s
}
