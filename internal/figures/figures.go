// Package figures regenerates every figure of the paper's motivation (§3),
// mitigation (§4), and evaluation (§7) sections on the simulated testbed.
// Every figure, ablation and point is a scenario.Spec: a Fig* function
// lists its points (runner.go), runs them on the sweep pool, and reduces
// the results to a Report whose named series mirror the lines/bars of the
// figure. cmd/a4bench prints these reports; perfbench's figures workload
// and this package's determinism tests pin them.
package figures

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"a4sim/internal/scenario"
	"a4sim/internal/stats"
)

// Options tune a figure run.
type Options struct {
	// RateScale overrides the figures' rate scale; zero keeps the default.
	RateScale float64
	// Sampling, when set, runs every measurement window sampled on this
	// schedule (zero fields take the default schedule).
	Sampling *scenario.SamplingSpec
	// Warmup and Measure override the per-figure run windows (simulated
	// seconds); zero keeps the figure's default.
	Warmup, Measure float64
	// Quick trims sweep points and schemes for fast benchmarking.
	Quick bool
	// Verbose adds controller event notes to reports.
	Verbose bool
	// Workers caps the sweep worker pool: independent scenario points of a
	// figure run concurrently on up to this many goroutines. Zero means
	// GOMAXPROCS; 1 forces serial execution. Each point owns its engine and
	// seeded RNGs, so reports are identical at any worker count.
	Workers int
}

func (o Options) windows(defWarm, defMeas float64) (float64, float64) {
	w, m := defWarm, defMeas
	if o.Warmup > 0 {
		w = o.Warmup
	}
	if o.Measure > 0 {
		m = o.Measure
	}
	if o.Quick {
		w, m = max(1, w*0.6), max(1, m*0.6)
	}
	if o.Sampling != nil {
		// A sampled spec runs whole seconds, the unit its schedule tiles
		// (Spec.Validate), so the Quick windows round to them.
		w, m = max(1, math.Round(w)), max(1, math.Round(m))
	}
	return w, m
}

// spec returns the default-manager scenario over wls at o's rate scale and
// sampling schedule, run for the figure's windows.
func (o Options) spec(defWarm, defMeas float64, wls ...scenario.WorkloadSpec) *scenario.Spec {
	warm, meas := o.windows(defWarm, defMeas)
	sp := &scenario.Spec{
		Manager:    "default",
		Params:     scenario.ParamSpec{RateScale: o.RateScale},
		Workloads:  slices.Clone(wls),
		WarmupSec:  warm,
		MeasureSec: meas,
	}
	if o.Sampling != nil {
		s := *o.Sampling
		sp.Sampling = &s
	}
	return sp
}

// mix returns an embedded mix's workloads as a figure spec.
func (o Options) mix(name string, defWarm, defMeas float64) *scenario.Spec {
	sp, err := scenario.BuiltinMix(name)
	if err != nil {
		panic(err)
	}
	return o.spec(defWarm, defMeas, sp.Workloads...)
}

// FIO's two core sets: alone or beside X-Mem, and beside DPDK.
var (
	fioLow  = []int{0, 1, 2, 3}
	fioHigh = []int{4, 5, 6, 7}
)

// dpdk, xmem and fio are the §3/§4 testbed's workloads on the cores the
// paper's scripts use. A trailing lo, hi pins the workload to way[lo:hi].
func dpdk(name string, touch bool, ways ...int) scenario.WorkloadSpec {
	return scenario.WorkloadSpec{Kind: "dpdk", Name: name, Cores: []int{0, 1, 2, 3}, Priority: "hpw", Touch: touch, Ways: ways}
}

func xmem(wsKB int64, ways ...int) scenario.WorkloadSpec {
	return scenario.WorkloadSpec{Kind: "xmem", Name: "xmem", Cores: []int{4, 5}, Priority: "hpw", WSKB: wsKB, Pattern: "sequential", Ways: ways}
}

func fio(cores []int, blockKB int, ways ...int) scenario.WorkloadSpec {
	return scenario.WorkloadSpec{Kind: "fio", Name: "fio", Cores: cores, Priority: "lpw", BlockKB: blockKB, QueueDepth: 32, Ways: ways}
}

// defaultXMemKB is the 4 MB working set of X-Mem 1/2 (Table 3).
const defaultXMemKB = 4 << 10

// withWays returns sp with workload i pinned to way[lo:hi].
func withWays(sp *scenario.Spec, i, lo, hi int) *scenario.Spec {
	c := sp.Clone()
	c.Workloads[i].Ways = []int{lo, hi}
	return c
}

// withDCA returns sp with the given DCA setting (scenario.DCAOff, ...).
func withDCA(sp *scenario.Spec, dca string) *scenario.Spec {
	c := sp.Clone()
	c.Params.DCA = dca
	return c
}

// withManager returns sp under the named LLC manager.
func withManager(sp *scenario.Spec, manager string) *scenario.Spec {
	c := sp.Clone()
	c.Manager = manager
	return c
}

// Report is one regenerated figure: a set of named series over shared
// x-axis labels.
type Report struct {
	ID     string
	Title  string
	Series []*stats.Curve
	Notes  []string
}

// AddSeries appends a named series and returns a pointer for Add calls.
func (r *Report) AddSeries(name string) *stats.Curve {
	s := &stats.Curve{Name: name}
	r.Series = append(r.Series, s)
	return s
}

// Get returns the series with the given name, or nil.
func (r *Report) Get(name string) *stats.Curve {
	for _, s := range r.Series {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// Value returns the y value of series name at x label, or (0, false).
func (r *Report) Value(name, label string) (float64, bool) {
	s := r.Get(name)
	if s == nil {
		return 0, false
	}
	for _, p := range s.Points {
		if p.Label == label {
			return p.Y, true
		}
	}
	return 0, false
}

// String renders the report as an aligned text table: one row per x label,
// one column per series.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	if len(r.Series) == 0 {
		return b.String()
	}
	// Collect x labels from the longest series, preserving order.
	var labels []string
	seen := map[string]bool{}
	for _, s := range r.Series {
		for _, p := range s.Points {
			if !seen[p.Label] {
				seen[p.Label] = true
				labels = append(labels, p.Label)
			}
		}
	}
	fmt.Fprintf(&b, "%-14s", "x")
	for _, s := range r.Series {
		fmt.Fprintf(&b, " %16s", trunc(s.Name, 16))
	}
	b.WriteByte('\n')
	for _, lbl := range labels {
		fmt.Fprintf(&b, "%-14s", lbl)
		for _, s := range r.Series {
			v, ok := findPoint(s, lbl)
			if ok {
				fmt.Fprintf(&b, " %16.4f", v)
			} else {
				fmt.Fprintf(&b, " %16s", "-")
			}
		}
		b.WriteByte('\n')
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

func findPoint(s *stats.Curve, label string) (float64, bool) {
	for _, p := range s.Points {
		if p.Label == label {
			return p.Y, true
		}
	}
	return 0, false
}

func trunc(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n]
}

// wayLabel formats an LLC way range like the paper's x axes.
func wayLabel(lo, hi int) string { return fmt.Sprintf("[%d:%d]", lo, hi) }

// kbLabel formats a block size.
func kbLabel(kb int) string {
	if kb >= 1024 {
		return fmt.Sprintf("%dMB", kb/1024)
	}
	return fmt.Sprintf("%dKB", kb)
}

// Registry maps figure IDs to their generator functions.
var Registry = map[string]func(Options) *Report{
	"3a":  Fig3a,
	"3b":  Fig3b,
	"4":   Fig4,
	"5":   Fig5,
	"6":   Fig6,
	"7":   Fig7,
	"8a":  Fig8a,
	"8b":  Fig8b,
	"11":  Fig11,
	"12":  Fig12,
	"13a": Fig13a,
	"13b": Fig13b,
	"14":  Fig14,
	"15a": Fig15a,
	"15b": Fig15b,
	"15c": Fig15c,
	// transient is not a paper figure: it is the telemetry plane's
	// time-resolved demonstration (slowdown vs. time, fig_transient.go).
	"transient": FigTransient,
}

// IDs returns the registry keys in presentation order.
func IDs() []string {
	return []string{"3a", "3b", "4", "5", "6", "7", "8a", "8b", "11", "12", "13a", "13b", "14", "15a", "15b", "15c", "transient"}
}
