package scenario

import (
	"bytes"
	"testing"

	"a4sim/internal/harness"
)

// forkMixSpec loads a builtin mix trimmed for test speed: high rate scale,
// 2 s warm-up, 2 s measurement. The manager stays whatever the mix declares
// (a4-d for the real-world mixes), so the controller state machine is part
// of the forked state under test.
func forkMixSpec(t *testing.T, mix string) *Spec {
	t.Helper()
	sp, err := BuiltinMix(mix)
	if err != nil {
		t.Fatal(err)
	}
	sp.Params.RateScale = 8192
	sp.WarmupSec = 2
	sp.MeasureSec = 2
	return sp
}

// runForkedAt executes sp but forks the whole simulation at second boundary
// k (1 <= k < warmup+measure), abandons the original, and finishes on the
// fork, returning the encoded report.
func runForkedAt(t *testing.T, sp *Spec, k int) []byte {
	t.Helper()
	run := sp.Clone()
	if err := run.Normalize(); err != nil {
		t.Fatal(err)
	}
	hash, err := run.Hash()
	if err != nil {
		t.Fatal(err)
	}
	_, res := forkedAt(t, run, k)
	data, err := FromResult(run, hash, res).Encode()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// forkedAt starts run, forks it at second boundary k, abandons the
// original, and finishes the run on the fork, returning the fork and its
// result.
func forkedAt(t *testing.T, run *Spec, k int) (*harness.Scenario, *harness.Result) {
	t.Helper()
	s, err := run.Start()
	if err != nil {
		t.Fatal(err)
	}
	warm, meas := int(run.WarmupSec), int(run.MeasureSec)
	var f *harness.Scenario
	if k <= warm {
		s.Warm(float64(k))
		f = s.Fork()
		f.Warm(float64(warm - k))
		f.BeginMeasure()
		f.Measure(float64(meas))
	} else {
		s.Warm(float64(warm))
		s.BeginMeasure()
		s.Measure(float64(k - warm))
		f = s.Fork()
		f.Measure(float64(warm + meas - k))
	}
	return f, f.EndMeasure()
}

// TestForkAtEverySecondMatchesFreshRun is the fork-determinism property of
// the PR: for every builtin mix and every second boundary of the run,
// forking mid-flight and finishing on the fork renders a Report
// byte-identical to the uninterrupted fresh run. Runs under -race in CI, so
// it also proves forks share no mutable state with their abandoned
// originals.
func TestForkAtEverySecondMatchesFreshRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every builtin mix several times")
	}
	for _, mix := range BuiltinMixes() {
		mix := mix
		t.Run(mix, func(t *testing.T) {
			t.Parallel()
			sp := forkMixSpec(t, mix)
			rep, err := sp.Run()
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := rep.Encode()
			if err != nil {
				t.Fatal(err)
			}
			total := int(sp.WarmupSec + sp.MeasureSec)
			for k := 1; k < total; k++ {
				if got := runForkedAt(t, sp, k); !bytes.Equal(got, fresh) {
					t.Errorf("fork at t=%ds diverged from fresh run\nfresh: %s\nfork:  %s", k, fresh, got)
				}
			}
		})
	}
}

// TestPrefixHashGroupsWindows pins PrefixHash semantics: specs differing
// only in measure_sec share a prefix; any other difference splits it.
func TestPrefixHashGroupsWindows(t *testing.T) {
	base := forkMixSpec(t, "tiny")
	p1, err := base.PrefixHash()
	if err != nil {
		t.Fatal(err)
	}
	longer := base.Clone()
	longer.MeasureSec = 30
	p2, err := longer.PrefixHash()
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("measure_sec must not affect the prefix hash")
	}
	h1, _ := base.Hash()
	h2, _ := longer.Hash()
	if h1 == h2 {
		t.Error("measure_sec must affect the full hash")
	}
	warmed := base.Clone()
	warmed.WarmupSec = 7
	p3, err := warmed.PrefixHash()
	if err != nil {
		t.Fatal(err)
	}
	if p3 == p1 {
		t.Error("warmup_sec is part of the prefix and must change its hash")
	}
	reseeded := base.Clone()
	reseeded.Params.Seed = 999
	if p4, _ := reseeded.PrefixHash(); p4 == p1 {
		t.Error("seed is part of the prefix and must change its hash")
	}
}
