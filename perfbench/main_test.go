package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"
)

// TestShortRunExitsClean runs the sweep-cluster workload, the one with
// the most servers and the only one with stores, for one second and checks
// that every listener, service and temporary store is gone afterwards.
func TestShortRunExitsClean(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	r := &run{workload: "sweep-cluster", seed: 7, window: time.Second, metrics: map[string]metric{}}
	if err := r.execute(runSweepCluster); err != nil {
		t.Fatal(err)
	}
	if len(r.wrong) > 0 {
		t.Fatalf("run failed its checks: %v", r.wrong)
	}
	if err := r.checkComplete(endToEnd); err != nil {
		t.Fatal(err)
	}
	if left := leftovers(r.tmp); left != "" {
		t.Fatal(left)
	}
	entries, err := os.ReadDir(".bench_build/tmp")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) > 0 {
		t.Fatalf("temporary files left: %v", entries)
	}
}

// TestMetricsMatchBenchmarkJSON pins the metric lists the runs print to
// the ones BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	declared := func(list []struct{ Name string }) []string {
		var out []string
		for _, m := range list {
			out = append(out, m.Name)
		}
		sort.Strings(out)
		return out
	}
	sorted := func(list []string) []string {
		out := append([]string(nil), list...)
		sort.Strings(out)
		return out
	}
	for _, c := range []struct {
		what       string
		json, code []string
	}{
		{"workloads", declared(b.Workloads), names()},
		{"end_to_end", declared(b.EndToEnd), sorted(endToEnd)},
		{"per_layer", declared(b.PerLayer), sorted(perLayer())},
	} {
		if !reflect.DeepEqual(c.json, c.code) {
			t.Errorf("%s: BENCHMARK.json has %v, the code prints %v", c.what, c.json, c.code)
		}
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	var s samples
	for i := 1; i <= 999; i++ {
		s = append(s, time.Duration(i)*time.Millisecond)
	}
	if _, err := s.tailAt(0.99); err == nil {
		t.Fatal("p99 of 999 samples has 9 beyond it, want an error")
	}
	s = append(s, time.Second)
	if got, err := s.tailAt(0.99); err != nil || got != 990*time.Millisecond {
		t.Fatalf("p99 of 1000 samples = %v, %v; want 990ms", got, err)
	}
	if sm := s[:15].summarize(); sm.tailQ != 0 {
		t.Fatalf("15 samples got tail p%g, want none", sm.tailQ*100)
	}
}
