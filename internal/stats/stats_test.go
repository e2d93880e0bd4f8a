package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestReservoirQuantiles(t *testing.T) {
	r := NewReservoir(1000)
	for i := 1; i <= 100; i++ {
		r.Add(float64(i))
	}
	if got := r.Quantile(0); got != 1 {
		t.Errorf("min = %v", got)
	}
	if got := r.Quantile(1); got != 100 {
		t.Errorf("max = %v", got)
	}
	if got := r.P50(); math.Abs(got-50.5) > 1 {
		t.Errorf("p50 = %v", got)
	}
	if got := r.P99(); got < 98 || got > 100 {
		t.Errorf("p99 = %v", got)
	}
	if got := r.Mean(); math.Abs(got-50.5) > 0.01 {
		t.Errorf("mean = %v", got)
	}
	if r.Count() != 100 {
		t.Errorf("count = %d", r.Count())
	}
	r.Reset()
	if r.Quantile(0.5) != 0 || r.Mean() != 0 || r.Count() != 0 {
		t.Errorf("reset incomplete")
	}
}

func TestReservoirSampling(t *testing.T) {
	// With more samples than capacity, the reservoir keeps a bounded,
	// representative subset.
	r := NewReservoir(128)
	for i := 0; i < 100000; i++ {
		r.Add(float64(i % 1000))
	}
	if r.Count() != 100000 {
		t.Fatalf("count = %d", r.Count())
	}
	med := r.P50()
	if med < 250 || med > 750 {
		t.Errorf("median %v far from 500 despite uniform input", med)
	}
}

func TestReservoirQuantileMonotoneQuick(t *testing.T) {
	r := NewReservoir(256)
	f := func(vs []float64) bool {
		r.Reset()
		for _, v := range vs {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			r.Add(v)
		}
		return r.Quantile(0.1) <= r.Quantile(0.5) && r.Quantile(0.5) <= r.Quantile(0.9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	c.Add(5)
	c.Inc()
	if c.Total() != 6 {
		t.Fatalf("total = %d", c.Total())
	}
	if c.Peek() != 6 {
		t.Fatalf("peek = %d", c.Peek())
	}
	if d := c.Delta(); d != 6 {
		t.Fatalf("delta = %d", d)
	}
	if d := c.Delta(); d != 0 {
		t.Fatalf("second delta = %d", d)
	}
	c.Add(3)
	if c.Peek() != 3 {
		t.Fatalf("peek after delta = %d", c.Peek())
	}
}

func TestRatioAndFluctuation(t *testing.T) {
	if Ratio(0, 0) != 0 {
		t.Errorf("Ratio(0,0) should be 0")
	}
	if got := Ratio(3, 1); got != 0.75 {
		t.Errorf("Ratio = %v", got)
	}
	if Fluctuation(0, 0) != 0 {
		t.Errorf("Fluctuation(0,0) should be 0")
	}
	if got := Fluctuation(90, 100); math.Abs(got-0.1) > 1e-9 {
		t.Errorf("Fluctuation = %v, want 0.1", got)
	}
	if got := Fluctuation(100, 90); math.Abs(got-0.1) > 1e-9 {
		t.Errorf("Fluctuation should be symmetric: %v", got)
	}
}

func TestCurve(t *testing.T) {
	var s Curve
	s.Name = "test"
	s.Add("a", 1, 10)
	s.Add("", 2, 20)
	if len(s.Points) != 2 || s.Points[0].Label != "a" {
		t.Fatalf("points wrong: %+v", s.Points)
	}
	out := s.String()
	if out == "" || len(out) < len("test:") {
		t.Errorf("String too short: %q", out)
	}
}
