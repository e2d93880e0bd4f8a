package figures

import (
	"bytes"
	"testing"

	"a4sim/internal/scenario"
	"a4sim/internal/service"
)

// TestRunSpecsMatchesSerial pins the spec fan-out contract: reports come
// back in input order and byte-identical to running each spec serially,
// with same-prefix specs grouped so the executor's snapshot chaining kicks
// in (visible as snapshot forks, invisible in the bytes).
func TestRunSpecsMatchesSerial(t *testing.T) {
	spec := func(seed uint64, measure float64) *scenario.Spec {
		return &scenario.Spec{
			Name:       "figures-specs",
			Manager:    "a4-d",
			Params:     scenario.ParamSpec{RateScale: 8192, Seed: seed},
			WarmupSec:  1,
			MeasureSec: measure,
			Workloads: []scenario.WorkloadSpec{
				{Kind: "dpdk", Name: "dpdk-t", Cores: []int{0, 1}, Priority: "hpw", Touch: true},
				{Kind: "xmem", Name: "xmem", Cores: []int{2}, Priority: "lpw", WSKB: 1024, Pattern: "random"},
			},
		}
	}
	specs := []*scenario.Spec{spec(1, 2), spec(2, 1), spec(1, 1)}

	svc := service.New(service.Config{Workers: 4})
	defer svc.Close()
	got, err := RunSpecs(svc, specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(specs) {
		t.Fatalf("got %d reports, want %d", len(got), len(specs))
	}
	for i, sp := range specs {
		rep, err := sp.Run()
		if err != nil {
			t.Fatal(err)
		}
		want, err := rep.Encode()
		if err != nil {
			t.Fatal(err)
		}
		have, err := got[i].Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(have, want) {
			t.Errorf("spec %d: fanned-out report differs from serial run", i)
		}
	}
	// specs[2] shares specs[0]'s prefix with a shorter window, so the group
	// ran shortest-first and the longer row forked the deposited snapshot.
	if st := svc.Stats(); st.SnapshotForks < 1 {
		t.Errorf("snapshot_forks = %d, want >= 1 (prefix grouping inactive)", st.SnapshotForks)
	}

	// A failing point surfaces as an indexed error, not a partial result.
	bad := spec(3, 1)
	bad.Manager = "bogus"
	if _, err := RunSpecs(svc, []*scenario.Spec{spec(1, 1), bad}); err == nil {
		t.Error("invalid spec point did not fail the fan-out")
	}
}
