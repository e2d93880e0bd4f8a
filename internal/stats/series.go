package stats

import (
	"encoding/json"
	"fmt"
)

// Series is a fixed-cadence (1 Hz) columnar time series: a set of named
// float64 columns that all advance together, one row per simulated second.
// It is the storage type of the telemetry plane — harness.Monitor appends
// one row per measured second, measurement-window aggregates are reductions
// over the columns, and reports carry the canonical encoding.
//
// Series is append-only, which is what makes run extension cheap: a forked
// simulation decodes the series and keeps appending, so an extended run's
// series is byte-identical to a fresh longer run's (the fork contract,
// pinned by internal/service's tests).
type Series struct {
	names []string
	index map[string]int
	cols  [][]float64
	rows  int
}

// NewSeries returns an empty series with the given columns, in order. The
// column set is fixed at creation so that every row has full arity and the
// canonical encoding is a pure function of the appended values.
func NewSeries(names ...string) *Series {
	s := &Series{
		names: append([]string(nil), names...),
		index: make(map[string]int, len(names)),
		cols:  make([][]float64, len(names)),
	}
	for i, n := range names {
		if _, dup := s.index[n]; dup {
			panic(fmt.Sprintf("stats: duplicate series column %q", n))
		}
		s.index[n] = i
	}
	return s
}

// Len returns the number of rows (seconds).
func (s *Series) Len() int { return s.rows }

// Names returns the column names in declaration order (a copy).
func (s *Series) Names() []string { return append([]string(nil), s.names...) }

// Append adds one row. The value count must match the column count; the
// telemetry plane records whole rows at second boundaries, never partial
// columns, so an arity mismatch is a programming error and panics.
func (s *Series) Append(row ...float64) {
	if len(row) != len(s.names) {
		panic(fmt.Sprintf("stats: series row has %d values, want %d", len(row), len(s.names)))
	}
	for i, v := range row {
		s.cols[i] = append(s.cols[i], v)
	}
	s.rows++
}

// Column returns the values of one column in time order, or nil if the
// column does not exist. The slice aliases the series' storage; callers
// must not mutate it.
func (s *Series) Column(name string) []float64 {
	i, ok := s.index[name]
	if !ok {
		return nil
	}
	return s.cols[i]
}

// Row copies row i (0-based) into dst, growing it if needed, and returns
// the filled slice with one value per column in declaration order. It is
// how the streaming plane replays a series row-by-row without transposing
// the columnar storage per subscriber. Out-of-range rows return nil.
func (s *Series) Row(i int, dst []float64) []float64 {
	if i < 0 || i >= s.rows {
		return nil
	}
	if cap(dst) < len(s.cols) {
		dst = make([]float64, len(s.cols))
	}
	dst = dst[:len(s.cols)]
	for c, col := range s.cols {
		dst[c] = col[i]
	}
	return dst
}

// Sum reduces one column by left-to-right addition — the same order an
// incremental per-second accumulator would have used, so aggregates reduced
// from a series are bit-identical to aggregates summed during the run.
func (s *Series) Sum(name string) float64 {
	var sum float64
	for _, v := range s.Column(name) {
		sum += v
	}
	return sum
}

// SumInt reduces one column of integer-valued samples with exact int64
// addition (per-second event-count deltas are integers stored in float64;
// each is exactly representable, so the conversion cannot round).
func (s *Series) SumInt(name string) int64 {
	var sum int64
	for _, v := range s.Column(name) {
		sum += int64(v)
	}
	return sum
}

// wireSeries is the canonical JSON shape of a series.
type wireSeries struct {
	Hz      int          `json:"hz"`
	Len     int          `json:"len"`
	Columns []wireColumn `json:"columns"`
}

type wireColumn struct {
	Name   string    `json:"name"`
	Values []float64 `json:"values"`
}

// MarshalJSON emits the canonical encoding: columns in declaration order
// (the telemetry plane declares them deterministically), values as Go's
// shortest-round-trip floats. Equal series encode to equal bytes.
func (s *Series) MarshalJSON() ([]byte, error) {
	w := wireSeries{Hz: 1, Len: s.rows, Columns: make([]wireColumn, len(s.names))}
	for i, n := range s.names {
		vals := s.cols[i]
		if vals == nil {
			vals = []float64{}
		}
		w.Columns[i] = wireColumn{Name: n, Values: vals}
	}
	return json.Marshal(w)
}

// UnmarshalJSON parses bytes produced by MarshalJSON.
func (s *Series) UnmarshalJSON(data []byte) error {
	var w wireSeries
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	n := NewSeries()
	for _, c := range w.Columns {
		if _, dup := n.index[c.Name]; dup {
			return fmt.Errorf("stats: duplicate series column %q", c.Name)
		}
		if len(c.Values) != w.Len {
			return fmt.Errorf("stats: series column %q has %d values, header says %d", c.Name, len(c.Values), w.Len)
		}
		n.index[c.Name] = len(n.names)
		n.names = append(n.names, c.Name)
		n.cols = append(n.cols, c.Values)
	}
	n.rows = w.Len
	*s = *n
	return nil
}

// Encode returns the canonical JSON bytes.
func (s *Series) Encode() ([]byte, error) { return json.Marshal(s) }

// DecodeSeries parses bytes produced by Encode.
func DecodeSeries(data []byte) (*Series, error) {
	var s Series
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("stats: decode series: %w", err)
	}
	return &s, nil
}

// Tail returns the last n rows of one column (all rows if n >= Len, none
// if n <= 0).
func (s *Series) Tail(name string, n int) []float64 {
	c := s.Column(name)
	if n <= 0 {
		return nil
	}
	if n < len(c) {
		return c[len(c)-n:]
	}
	return c
}
