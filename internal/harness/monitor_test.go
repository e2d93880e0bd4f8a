package harness

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"a4sim/internal/core"
	"a4sim/internal/workload"
)

// monitorTestScenario builds a small, fast scenario exercising the NIC,
// the SSD, and a compute workload.
func monitorTestScenario(mgr ManagerSpec, opts SeriesOpts) *Scenario {
	p := DefaultParams()
	p.RateScale = 8192
	s := NewScenario(p)
	s.AddDPDK("dpdk-t", []int{0, 1}, true, workload.HPW)
	s.AddFIO("fio", []int{2, 3}, 128<<10, 16, workload.LPW)
	s.AddXMem("xmem", []int{4}, 4<<20, workload.Random, false, workload.LPW)
	s.Start(mgr)
	s.Monitor.EnableSeries(opts)
	return s
}

// A zero-length measurement window (BeginMeasure immediately followed by
// EndMeasure) must produce a well-formed zero Result and an empty series —
// no NaNs, no divide-by-zero, no phantom port entries.
func TestZeroLengthMeasurementWindow(t *testing.T) {
	s := monitorTestScenario(Default(), SeriesOpts{Devices: true, Occupancy: true, Export: true})
	s.Warm(1)
	s.BeginMeasure()
	res := s.EndMeasure()

	if res.Seconds != 1 {
		t.Errorf("Seconds = %g, want the 1 s clamp", res.Seconds)
	}
	if len(res.Ports) != 0 {
		t.Errorf("zero window should leave ports empty, got %v", res.Ports)
	}
	if res.MemReadGBps != 0 || res.MemWriteGBps != 0 {
		t.Errorf("zero window memory BW = %g/%g, want 0", res.MemReadGBps, res.MemWriteGBps)
	}
	if len(res.Workloads) != 3 {
		t.Fatalf("zero window should still report all %d workloads, got %d", 3, len(res.Workloads))
	}
	for _, wr := range res.Workloads {
		name := wr.Name
		v := reflect.ValueOf(wr)
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			if f.Kind() == reflect.Float64 && math.IsNaN(f.Float()) {
				t.Errorf("workload %s field %s is NaN", name, v.Type().Field(i).Name)
			}
		}
		if wr.IPC != 0 || wr.LLCHitRate != 0 {
			t.Errorf("workload %s has nonzero rates in a zero window: %+v", name, wr)
		}
	}
	if res.Series == nil {
		t.Fatal("exporting monitor returned no series")
	}
	if res.Series.Len() != 0 {
		t.Errorf("zero window series has %d rows, want 0", res.Series.Len())
	}
	if _, err := res.Series.Encode(); err != nil {
		t.Errorf("empty series does not encode: %v", err)
	}
}

// The aggregates of a measured window must be exact reductions of the
// per-second series: means are column sums over the row count, counts are
// exact integer sums.
func TestResultIsSeriesReduction(t *testing.T) {
	s := monitorTestScenario(A4(core.VariantD), SeriesOpts{Devices: true, Occupancy: true, Controller: true, Export: true})
	s.Warm(1)
	s.BeginMeasure()
	s.Measure(3)
	res := s.EndMeasure()

	ser := res.Series
	if ser == nil || ser.Len() != 3 {
		t.Fatalf("series rows = %v, want 3", ser)
	}
	if got := ser.Sum("mem.rd_gbps") / 3; got != res.MemReadGBps {
		t.Errorf("mem read reduction %v != result %v", got, res.MemReadGBps)
	}
	for _, wr := range res.Workloads {
		name := wr.Name
		if got := ser.Sum("wl."+name+".ipc") / 3; got != wr.IPC {
			t.Errorf("%s ipc reduction %v != result %v", name, got, wr.IPC)
		}
		if got := ser.SumInt("wl." + name + ".dma_leaks"); got != wr.DMALeaks {
			t.Errorf("%s dma_leaks reduction %d != result %d", name, got, wr.DMALeaks)
		}
	}
	for _, p := range res.Ports {
		if got := ser.Sum("port."+p.Name+".in_gbps") / 3; got != p.InGBps {
			t.Errorf("port %s reduction %v != result %v", p.Name, got, p.InGBps)
		}
	}
	// Extended groups are present and plausible.
	if ser.Column("nic.ring_depth") == nil || ser.Column("ssd.queue_depth") == nil {
		t.Error("devices group missing")
	}
	if ser.Column("wl.dpdk-t.llc_lines") == nil {
		t.Error("occupancy group missing")
	}
	if st := ser.Column("a4.state"); len(st) != 3 {
		t.Errorf("controller group missing or short: %v", st)
	} else {
		for _, v := range st {
			if v < 0 || v > 3 {
				t.Errorf("a4.state out of range: %v", st)
			}
		}
	}
	var lines float64
	for _, v := range ser.Column("wl.xmem.llc_lines") {
		lines += v
	}
	if lines <= 0 {
		t.Error("xmem held no LLC lines over 3 measured seconds")
	}
}

// A window split by a fork must close on the fork with a series
// byte-identical to an uninterrupted run's: the fork clones the open
// window's rows and delta baselines, and appended seconds line up exactly.
func TestForkedWindowSeriesByteIdentical(t *testing.T) {
	opts := SeriesOpts{Devices: true, Occupancy: true, Controller: true, Export: true}

	whole := monitorTestScenario(A4(core.VariantD), opts)
	whole.Warm(2)
	whole.BeginMeasure()
	whole.Measure(4)
	wholeRes := whole.EndMeasure()

	split := monitorTestScenario(A4(core.VariantD), opts)
	split.Warm(2)
	split.BeginMeasure()
	split.Measure(2)
	forked := split.Fork()
	forked.Measure(2)
	forkRes := forked.EndMeasure()

	a, err := wholeRes.Series.Encode()
	if err != nil {
		t.Fatal(err)
	}
	b, err := forkRes.Series.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("forked-window series differs from uninterrupted run\nwhole: %.200s\nfork:  %.200s", a, b)
	}
	// The original keeps its own window open and unaffected by the fork.
	split.Measure(2)
	origRes := split.EndMeasure()
	c, err := origRes.Series.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, c) {
		t.Errorf("fork corrupted the original's window series")
	}
}
