package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"time"

	"a4sim/internal/figures"
	"a4sim/internal/scenario"
)

// quickFigures are the paper figures the figures workload regenerates:
// the §3 contention figures and the §4 way-allocation figure, which
// between them run detailed simulation of hand-built scenarios with
// prefix forks and no serving code.
var quickFigures = []string{"3a", "3b", "4", "8b"}

// figureDigests are the SHA-256 digests of the quick reports' text. The
// simulation is deterministic, so any other digest is a wrong output.
var figureDigests = map[string]string{
	"3a": "790f60487353e04dc513f0625eaa5399064389516ec9edda23cf8772804d823e",
	"3b": "132512b060ee7f24f1635d220c7db205c21a2963ab231e242748065c6c2f6068",
	"4":  "d9fa92557fa4e2a41692ff883bf8d9a58740589282b036f77e065f034fa44752",
	"8b": "14567c40438cc3ae5836146e61fb6067d1bbfaa7e10fb70369046ba4fb6969fe",
}

var figureOpts = figures.Options{Quick: true, Workers: 2}

// regenerate runs one quick figure and checks its report digest.
func regenerate(id string) error {
	rep := figures.Registry[id](figureOpts)
	sum := sha256.Sum256([]byte(rep.String()))
	if got := hex.EncodeToString(sum[:]); got != figureDigests[id] {
		return fmt.Errorf("figure %s: report digest %s, want %s", id, got, figureDigests[id])
	}
	return nil
}

// figureOrder is the seed's permutation of the quick figures: the figures
// themselves use the paper's fixed seeds, so the workload seed only
// reorders them.
func figureOrder(seed uint64) []string {
	order := append([]string(nil), quickFigures...)
	rng := rand.New(rand.NewSource(int64(seedStream(seed, 1))))
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return order
}

// runFigures regenerates the quick figures pass after pass for the window.
// Its operation is one pass over all four figures.
func runFigures(r *run) error {
	// Set-up is what every figure point pays before its measured window:
	// building, starting and warming the micro mix's Skylake machine.
	teardown, err := r.setupMedian("build, start and warm the micro mix for 0.5 simulated s", func() (func(), error) {
		sp, err := scenario.BuiltinMix("micro")
		if err != nil {
			return nil, err
		}
		s, err := sp.Start()
		if err != nil {
			return nil, err
		}
		s.Warm(0.5)
		return func() {}, nil
	})
	if err != nil {
		return err
	}
	defer teardown()

	order := figureOrder(r.seed)
	wall, cpu := map[string]samples{}, map[string]samples{}
	var passes samples
	start := time.Now()
	// At least three passes, so each figure's median rests on three
	// samples; another only when the last pass fits the window again.
	for len(passes) < 3 || time.Since(start)+passes[len(passes)-1] <= r.window {
		t0 := time.Now()
		for _, id := range order {
			c0, f0 := cpuTime(), time.Now()
			r.op(regenerate(id))
			wall[id] = append(wall[id], time.Since(f0))
			cpu[id] = append(cpu[id], cpuTime()-c0)
		}
		passes = append(passes, time.Since(t0))
	}
	// A pass's time is the sum of each figure's median, so a burst of CPU
	// lost to other tenants while one figure ran moves one sample only.
	var pass, passCPU time.Duration
	for _, id := range order {
		pass += wall[id].median()
		passCPU += cpu[id].median()
	}
	r.recordCommon(pass, fmt.Sprintf("pass over %v: sum of per-figure medians of %d passes (raw passes %s)", order, len(passes), passes.summarize()),
		passCPU, "process CPU per pass: sum of per-figure medians")
	r.set("ops_per_s", float64(time.Second)/float64(pass), "1/s", "passes per second at the median pass time")
	note("figures_s", pass.Seconds(), "s", "= op_p50_ms")
	return nil
}
