// Package stats provides the small statistical toolkit used throughout the
// simulator: streaming percentile reservoirs for latency distributions,
// exponential moving averages for the A4 control loop, simple rate meters,
// labeled curves for figure generation, and fixed-cadence columnar time
// series for the per-second telemetry plane.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Reservoir collects float64 samples and reports order statistics. It keeps
// up to cap samples using uniform reservoir sampling so that memory stays
// bounded while percentiles remain representative.
type Reservoir struct {
	samples []float64
	seen    int64
	capN    int
	rngs    uint64
}

// NewReservoir returns a reservoir bounded to capN samples.
func NewReservoir(capN int) *Reservoir {
	if capN <= 0 {
		capN = 4096
	}
	return &Reservoir{capN: capN, rngs: 0x2545F4914F6CDD1D}
}

func (r *Reservoir) nextRand() uint64 {
	r.rngs ^= r.rngs << 13
	r.rngs ^= r.rngs >> 7
	r.rngs ^= r.rngs << 17
	return r.rngs
}

// Add inserts one sample.
func (r *Reservoir) Add(v float64) {
	r.seen++
	if len(r.samples) < r.capN {
		r.samples = append(r.samples, v)
		return
	}
	// Uniform replacement: keep each of the seen samples with equal odds.
	if idx := r.nextRand() % uint64(r.seen); idx < uint64(r.capN) {
		r.samples[idx] = v
	}
}

// Count returns how many samples have been offered (not retained).
func (r *Reservoir) Count() int64 { return r.seen }

// Reset discards all samples.
func (r *Reservoir) Reset() {
	r.samples = r.samples[:0]
	r.seen = 0
}

// Quantile returns the q-quantile (0 <= q <= 1) of retained samples, or 0 if
// empty.
func (r *Reservoir) Quantile(q float64) float64 {
	if len(r.samples) == 0 {
		return 0
	}
	tmp := make([]float64, len(r.samples))
	copy(tmp, r.samples)
	sort.Float64s(tmp)
	if q <= 0 {
		return tmp[0]
	}
	if q >= 1 {
		return tmp[len(tmp)-1]
	}
	pos := q * float64(len(tmp)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(tmp) {
		return tmp[len(tmp)-1]
	}
	return tmp[lo]*(1-frac) + tmp[lo+1]*frac
}

// Mean returns the mean of retained samples, or 0 if empty.
func (r *Reservoir) Mean() float64 {
	if len(r.samples) == 0 {
		return 0
	}
	var s float64
	for _, v := range r.samples {
		s += v
	}
	return s / float64(len(r.samples))
}

// P50 is shorthand for the median.
func (r *Reservoir) P50() float64 { return r.Quantile(0.50) }

// P99 is shorthand for the 99th percentile.
func (r *Reservoir) P99() float64 { return r.Quantile(0.99) }

// EMA is an exponential moving average with configurable smoothing.
type EMA struct {
	alpha float64
	value float64
	init  bool
}

// NewEMA returns an EMA with smoothing factor alpha in (0, 1].
func NewEMA(alpha float64) *EMA {
	if alpha <= 0 || alpha > 1 {
		alpha = 0.3
	}
	return &EMA{alpha: alpha}
}

// Update folds in a new observation and returns the current average.
func (e *EMA) Update(v float64) float64 {
	if !e.init {
		e.value = v
		e.init = true
		return v
	}
	e.value = e.alpha*v + (1-e.alpha)*e.value
	return e.value
}

// Value returns the current average (0 before any update).
func (e *EMA) Value() float64 { return e.value }

// Valid reports whether at least one observation has been folded in.
func (e *EMA) Valid() bool { return e.init }

// Counter is a monotonically increasing event counter supporting deltas.
type Counter struct {
	total int64
	last  int64
}

// Add increments the counter.
func (c *Counter) Add(n int64) { c.total += n }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.total++ }

// Total returns the lifetime count.
func (c *Counter) Total() int64 { return c.total }

// Delta returns the count accumulated since the previous Delta call.
func (c *Counter) Delta() int64 {
	d := c.total - c.last
	c.last = c.total
	return d
}

// Peek returns the count accumulated since the previous Delta call without
// consuming it.
func (c *Counter) Peek() int64 { return c.total - c.last }

// Ratio safely divides hits by (hits + misses), returning 0 when empty.
func Ratio(hits, misses int64) float64 {
	t := hits + misses
	if t == 0 {
		return 0
	}
	return float64(hits) / float64(t)
}

// Fluctuation returns |a-b| relative to max(|a|,|b|); 0 when both are ~0.
// The A4 stability checks use it for "fluctuations greater than 10%".
func Fluctuation(a, b float64) float64 {
	m := math.Max(math.Abs(a), math.Abs(b))
	if m < 1e-12 {
		return 0
	}
	return math.Abs(a-b) / m
}

// Point is one (x, y) sample of a figure curve.
type Point struct {
	X float64
	Y float64
	// Label optionally names the x position (e.g. an LLC way range).
	Label string
}

// Curve is a named sequence of points, one line in a reproduced figure.
// (The time-resolved, fixed-cadence counterpart is Series in series.go.)
type Curve struct {
	Name   string
	Points []Point
}

// Add appends a labeled point.
func (s *Curve) Add(label string, x, y float64) {
	s.Points = append(s.Points, Point{X: x, Y: y, Label: label})
}

// String renders the curve as aligned text rows.
func (s *Curve) String() string {
	out := s.Name + ":\n"
	for _, p := range s.Points {
		lbl := p.Label
		if lbl == "" {
			lbl = fmt.Sprintf("%g", p.X)
		}
		out += fmt.Sprintf("  %-14s %12.4f\n", lbl, p.Y)
	}
	return out
}
