package figures

import (
	"fmt"

	"a4sim/internal/scenario"
	"a4sim/internal/service"
)

// FigTransient is the telemetry plane's time-resolved figure (id
// "transient"; not in the paper, which only reports window aggregates). It
// plots per-second HPW slowdown across the colocation phase change: the
// measurement window opens right after a minimal warm-up, so the first
// seconds capture the I/O LPWs spinning up — FIO's queue ramp and a
// 10 MB random-access X-Mem antagonist flooding the LLC — and, under A4, the controller's init →
// searching → settled transitions as it discovers an allocation. The HPW
// is the cache-sensitive X-Mem (4 MB working set): its per-second progress
// is what LLC contention squeezes, where a throughput-capped network
// workload would hide interference in latency instead. Aggregate figures
// average this transient away; the per-second series is what shows when
// the A4 variant recovers the HPW and what the default manager costs it
// second by second.
//
// Slowdown at second t is soloProgress[t] / colocatedProgress[t], both
// from the report series of specs run through RunSpecs — so the figure
// exercises the full serving path (specs, cache, series plane) rather than
// driving scenarios by hand.
func FigTransient(o Options) *Report {
	// 30 s captures the controller's whole arc: ~17 s of searching, the
	// settle (slowdown drops), and the first revert probe (a visible
	// spike) — the quick window shows just the early search transient.
	meas := 30.0
	if o.Quick {
		meas = 8
	}
	if o.Measure > 0 {
		meas = o.Measure
	}
	warm := 2.0
	if o.Warmup > 0 {
		warm = o.Warmup
	}
	// Scale 1024 (not the determinism tests' 4096): the transient exists
	// only once the antagonist's working set actually floods the LLC, and
	// at 4096 the fill alone outlasts any reasonable window.
	scale := 1024.0
	if o.RateScale > 0 {
		scale = o.RateScale
	}

	base := func(name, manager string, colocated bool) *scenario.Spec {
		sp := &scenario.Spec{
			Name:       name,
			Manager:    manager,
			Params:     scenario.ParamSpec{RateScale: scale},
			WarmupSec:  warm,
			MeasureSec: meas,
			Series:     &scenario.SeriesSpec{}, // all groups
			Workloads: []scenario.WorkloadSpec{
				{Kind: "xmem", Name: "xmem", Cores: []int{0}, Priority: "hpw", WSKB: 4 << 10, Pattern: "sequential"},
			},
		}
		if o.Sampling != nil {
			s := *o.Sampling
			sp.Sampling = &s
		}
		if colocated {
			sp.Workloads = append(sp.Workloads,
				// The antagonist set of the paper's micro mix: a storage
				// stream plus a 10 MB random-access X-Mem — the workloads
				// whose spin-up squeezes the HPW out of the standard ways.
				scenario.WorkloadSpec{Kind: "fio", Name: "fio", Cores: []int{1, 2}, Priority: "lpw", BlockKB: 128, QueueDepth: 16},
				scenario.WorkloadSpec{Kind: "xmem", Name: "ant", Cores: []int{3, 4}, Priority: "lpw", WSKB: 10 << 10, Pattern: "random"},
			)
		}
		return sp
	}
	specs := []*scenario.Spec{
		base("transient-solo", "default", false),
		base("transient-default", "default", true),
		base("transient-a4d", "a4-d", true),
	}

	svc := service.New(service.Config{Workers: o.Workers})
	defer svc.Close()
	reports, err := RunSpecs(svc, specs)
	if err != nil {
		panic(fmt.Sprintf("figures: transient: %v", err))
	}
	solo := reports[0].Series.Column("wl.xmem.progress")

	rep := &Report{ID: "transient", Title: "HPW slowdown vs. time across the colocation phase change (per-second series)"}
	for i, label := range []string{"default", "a4-d"} {
		colo := reports[i+1].Series.Column("wl.xmem.progress")
		s := rep.AddSeries("slowdown-" + label)
		for t := 0; t < len(colo) && t < len(solo); t++ {
			slow := 0.0
			if colo[t] > 0 {
				slow = solo[t] / colo[t]
			}
			s.Add(fmt.Sprintf("t=%ds", t+1), float64(t+1), slow)
		}
	}
	// The controller's per-second state (0 init, 1 searching, 2 settled,
	// 3 reverting) aligned with the slowdown rows: the figure's whole point
	// is seeing the settle transition land in the timeline.
	if st := reports[2].Series.Column("a4.state"); st != nil {
		s := rep.AddSeries("a4-state")
		for t, v := range st {
			s.Add(fmt.Sprintf("t=%ds", t+1), float64(t+1), v)
		}
	}
	if o.Verbose {
		rep.Notes = append(rep.Notes,
			fmt.Sprintf("windows: warm %gs + measure %gs at rate scale %g; slowdown = solo/colocated per-second xmem progress", warm, meas, scale))
	}
	return rep
}
