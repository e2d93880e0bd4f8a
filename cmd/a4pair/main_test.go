package main

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
)

var (
	lower  = metricDef{Name: "op_p50_ms", Better: "lower", Bound: 0.25}
	higher = metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.25}
)

func TestSummarizeNearestRank(t *testing.T) {
	// Ten values, shuffled: p25 is the 3rd, the median the 5th and p75 the
	// 8th smallest.
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := summarize(xs), (spread{3, 5, 8}); got != want {
		t.Fatalf("summarize = %+v, want %+v", got, want)
	}
	if got, want := summarize([]float64{4, 2, 3, 1, 5}), (spread{2, 3, 4}); got != want {
		t.Fatalf("summarize of five = %+v, want %+v", got, want)
	}
	if xs[0] != 10 {
		t.Fatal("summarize reordered its input")
	}
	if got := summarize([]float64{7}); got != (spread{7, 7, 7}) {
		t.Fatalf("summarize of one = %+v", got)
	}
}

func TestWinsTiesCountForNeither(t *testing.T) {
	parent := []float64{10, 10, 10, 10}
	change := []float64{9, 10, 11, 8}
	if c, p := wins(lower, parent, change); c != 2 || p != 1 {
		t.Fatalf("lower-better wins = %d–%d, want 2–1", c, p)
	}
	if c, p := wins(higher, parent, change); c != 1 || p != 2 {
		t.Fatalf("higher-better wins = %d–%d, want 1–2", c, p)
	}
}

func TestMannWhitneyExact(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{6, 7, 8, 9, 10}
	want := 2.0 / 252 // C(10,5) = 252 orderings; the two extremes
	for _, pair := range [][2][]float64{{x, y}, {y, x}} {
		if got := mannWhitneyP(pair[0], pair[1]); math.Abs(got-want) > 1e-12 {
			t.Fatalf("p = %v, want %v", got, want)
		}
	}
	// Interleaved samples are indistinguishable.
	if got := mannWhitneyP([]float64{1, 4, 5, 8}, []float64{2, 3, 6, 7}); got != 1 {
		t.Fatalf("interleaved p = %v, want 1", got)
	}
	// U = 1 of 25: P(U ≤ 1) = 2/252, so two-sided 4/252.
	if got := mannWhitneyP([]float64{1, 2, 3, 4, 6}, []float64{5, 7, 8, 9, 10}); math.Abs(got-4.0/252) > 1e-12 {
		t.Fatalf("near-separated p = %v, want %v", got, 4.0/252)
	}
}

func TestMannWhitneyTies(t *testing.T) {
	same := []float64{3, 3, 3, 3, 3}
	if got := mannWhitneyP(same, same); got != 1 {
		t.Fatalf("fully tied p = %v, want 1", got)
	}
	got := mannWhitneyP([]float64{1, 1, 1, 1, 2}, []float64{2, 2, 2, 2, 2})
	if math.IsNaN(got) || got <= 0 || got >= 0.05 {
		t.Fatalf("heavily tied but separated p = %v, want in (0, 0.05)", got)
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	wide := []float64{50, 150, 60, 140, 100, 70, 130, 100, 80, 120}
	cases := []struct {
		m              metricDef
		parent, change []float64
		want           string
	}{
		{lower, base, scaled(0.9), "gain"},
		{higher, base, scaled(1.1), "gain"},
		{lower, base, scaled(1.3), "regressed"},
		{higher, base, scaled(0.7), "regressed"},
		{lower, base, wide, "unresolved"},
		{higher, wide, base, "unresolved"},
		{lower, base, scaled(1.01), "flat"},
		{higher, base, scaled(0.99), "flat"},
		// A change slower by less than the bound is not a regression.
		{lower, base, scaled(1.2), "flat"},
		// A small win on 10 of 10 pairs is not a gain within the IQR.
		{higher, base, scaled(1.001), "flat"},
		// A wide spread with every change run better is not unresolved.
		{higher, wide, scaled(2), "gain"},
	}
	for i, c := range cases {
		if got := verdict(c.m, c.parent, c.change); got != c.want {
			t.Errorf("case %d (%s better): verdict %q, want %q", i, c.m.Better, got, c.want)
		}
	}
}

func TestParseResult(t *testing.T) {
	ok := "figures_s 1.2 s\n{\"correct\":true,\"attempted\":4,\"failed\":1,\"metrics\":{\"ops_per_s\":{\"value\":2.5,\"unit\":\"1/s\"}}}\n"
	r, err := parseResult([]byte(ok))
	if err != nil {
		t.Fatal(err)
	}
	if r.attempted != 4 || r.failed != 1 || r.metrics["ops_per_s"] != 2.5 {
		t.Fatalf("parsed %+v", r)
	}
	for name, out := range map[string]string{
		"incorrect":      `{"correct":false,"attempted":4,"failed":0,"metrics":{}}`,
		"no JSON":        "figures_s 1.2 s\n",
		"empty":          "",
		"JSON not last":  "{\"correct\":true,\"metrics\":{}}\ntrailing words\n",
		"no correct key": `{"attempted":4,"failed":0,"metrics":{}}`,
	} {
		if _, err := parseResult([]byte(out)); err == nil {
			t.Errorf("%s: parseResult accepted %q", name, out)
		}
	}
}

func TestPairsAlternateAndStopOnError(t *testing.T) {
	var order []string
	fake := func(side int, workload string, seed int) (result, error) {
		order = append(order, sideNames[side])
		return result{metrics: map[string]float64{"seed": float64(seed)}}, nil
	}
	res, err := pairs(fake, "w", 3)
	if err != nil {
		t.Fatal(err)
	}
	wantOrder := []string{"parent", "change", "change", "parent", "parent", "change"}
	if !reflect.DeepEqual(order, wantOrder) {
		t.Fatalf("order %v, want %v", order, wantOrder)
	}
	for side := range res {
		if got := values(res[side], "seed"); !reflect.DeepEqual(got, []float64{101, 102, 103}) {
			t.Fatalf("%s seeds %v", sideNames[side], got)
		}
	}
	failing := func(side int, _ string, seed int) (result, error) {
		if side == 1 && seed == 102 {
			return result{}, errors.New("exit status 1")
		}
		return result{}, nil
	}
	if _, err := pairs(failing, "w", 3); err == nil || !strings.Contains(err.Error(), "seed 102 change") {
		t.Fatalf("pairs error = %v, want the failing run named", err)
	}
}

func TestGateRunsServingFirst(t *testing.T) {
	var order []string
	fake := func(pass string) runFunc {
		return func(side int, _ string, seed int) (result, error) {
			order = append(order, pass)
			return result{metrics: map[string]float64{pass: float64(10*side + seed)}}, nil
		}
	}
	res, err := gateRuns(fake("serve"), fake("bench"))
	if err != nil {
		t.Fatal(err)
	}
	for i, pass := range order {
		want := "bench"
		if i < 2*gatePairs {
			want = "serve"
		}
		if pass != want {
			t.Fatalf("run %d was %s, want every serve run before any bench run: %v", i, pass, order)
		}
	}
	for side := range res {
		for i, r := range res[side] {
			want := float64(10*side + firstSeed + i)
			if r.metrics["serve"] != want || r.metrics["bench"] != want {
				t.Fatalf("%s pair %d metrics %v, want serve and bench both %g", sideNames[side], i, r.metrics, want)
			}
		}
	}
}

func TestBenchLine(t *testing.T) {
	out := "goos: linux\n" +
		"BenchmarkScenarioSecond-2   \t       1\t 512345678 ns/op\n" +
		"BenchmarkSweepFork/fresh-2  \t       1\t2.5e+10 ns/op\t 6.000 points\n" +
		"BenchmarkSweepFork/forked   \t       1\t9000000000 ns/op\n" +
		"PASS\n"
	got := map[string]string{}
	for _, m := range benchLine.FindAllStringSubmatch(out, -1) {
		got[m[1]] = m[3]
	}
	want := map[string]string{
		"BenchmarkScenarioSecond":   "512345678",
		"BenchmarkSweepFork/fresh":  "2.5e+10",
		"BenchmarkSweepFork/forked": "9000000000",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("benchLine matched %v, want %v", got, want)
	}
}

func TestGateBounds(t *testing.T) {
	for _, c := range []struct {
		metric         string
		parent, change float64
		ok             bool
	}{
		{"scenario_second_ms", 500, 625, true},
		{"scenario_second_ms", 500, 626, false},
		{"sweep_fork_speedup", 9, 1.5, true},
		{"sweep_fork_speedup", 9, 1.49, false},
		{"sampled_speedup", 0, 1.8, true},
		{"sampled_speedup", 0, 1.79, false},
		{"loadgen_sustained_rps", 100, 75, true},
		{"loadgen_sustained_rps", 100, 74, false},
		{"loadgen_sustained_rps", 0, 0, true},
	} {
		for _, b := range gateBounds {
			if b.metric == c.metric && b.ok(c.parent, c.change) != c.ok {
				t.Errorf("%s parent %g change %g: pass %v, want %v", c.metric, c.parent, c.change, !c.ok, c.ok)
			}
		}
	}
}
