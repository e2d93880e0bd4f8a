package figures

import (
	"testing"

	"a4sim/internal/harness"
)

// detOpts builds fast figure options at the given worker-pool degree: a
// high rate scale keeps per-point simulation cheap while still exercising
// every scenario-construction and report-assembly path.
func detOpts(workers int) Options {
	p := harness.DefaultParams()
	p.RateScale = 4096
	return Options{Params: p, Quick: true, Warmup: 1, Measure: 1, Workers: workers}
}

// TestParallelSweepDeterminism asserts the tentpole guarantee of the sweep
// runner: every figure point owns its engine and seeded RNGs, so running
// the sweep on a multi-goroutine pool produces a byte-identical Report to
// serial execution. It covers every figure, so each one executes in the
// tier-1 suite.
func TestParallelSweepDeterminism(t *testing.T) {
	for _, id := range IDs() {
		fn, ok := Registry[id]
		if !ok {
			t.Fatalf("unknown figure %s", id)
		}
		serial := fn(detOpts(1)).String()
		parallel := fn(detOpts(4)).String()
		if serial != parallel {
			t.Errorf("figure %s: parallel report differs from serial\n--- serial ---\n%s\n--- parallel ---\n%s", id, serial, parallel)
		}
		// A second parallel run must also be self-consistent (no hidden
		// shared state between pool runs).
		if again := fn(detOpts(4)).String(); again != parallel {
			t.Errorf("figure %s: repeated parallel runs differ", id)
		}
	}
}

// TestParallelAblationDeterminism covers every ablation's sweep.
func TestParallelAblationDeterminism(t *testing.T) {
	for _, id := range AblationIDs() {
		fn := AblationRegistry[id]
		serial := fn(detOpts(1)).String()
		parallel := fn(detOpts(3)).String()
		if serial != parallel {
			t.Errorf("%s: parallel report differs from serial\n--- serial ---\n%s\n--- parallel ---\n%s", id, serial, parallel)
		}
	}
}
