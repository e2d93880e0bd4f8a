package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"time"
)

// gatePairs is how many pairs the gate runs. Each side runs an a4load
// saturation search against its own a4serve, and the hot-path, fork and
// sampled-execution benchmarks.
const gatePairs = 5

// gateBounds judge the change's median c of each metric, given the
// parent's median p.
var gateBounds = []struct {
	metric, bound string
	ok            func(p, c float64) bool
}{
	{"scenario_second_ms", "≤ 1.25× parent", func(p, c float64) bool { return c <= 1.25*p }},
	{"sweep_fork_speedup", "≥ 1.5", func(_, c float64) bool { return c >= 1.5 }},
	{"sampled_speedup", "≥ 1.8", func(_, c float64) bool { return c >= 1.8 }},
	{"loadgen_sustained_rps", "≥ 0.75× parent", func(p, c float64) bool { return c >= 0.75*p }},
}

// gate builds each side's a4serve and a4load, runs the pairs, prints each
// metric's medians and returns an error when a bound fails.
func gate(ctx context.Context, dirs [2]string) error {
	for _, dir := range dirs {
		if _, err := command(ctx, dir, "go", "build", "-o", ".bench_build/", "./cmd/a4serve", "./cmd/a4load"); err != nil {
			return err
		}
	}
	res, err := gateRuns(func(side int, _ string, _ int) (result, error) {
		rps, err := sustainedRPS(ctx, filepath.Join(dirs[side], ".bench_build"))
		return result{metrics: map[string]float64{"loadgen_sustained_rps": rps}}, err
	}, func(side int, _ string, _ int) (result, error) {
		return benchSide(ctx, dirs[side])
	})
	if err != nil {
		return err
	}
	fmt.Println("| metric | parent | change | bound | verdict |")
	fmt.Println("|---|---|---|---|---|")
	var failed []string
	for _, b := range gateBounds {
		p, c := summarize(values(res[0], b.metric)), summarize(values(res[1], b.metric))
		status := "pass"
		if !b.ok(p.med, c.med) {
			status = "FAIL"
			failed = append(failed, b.metric)
		}
		fmt.Printf("| %s | %v | %v | %s | %s |\n", b.metric, p, c, b.bound, status)
	}
	if len(failed) > 0 {
		return fmt.Errorf("gate failed on %s", strings.Join(failed, ", "))
	}
	return nil
}

// gateRuns runs the serving pass of every pair, then the compute pass of
// every pair, and returns each run's metrics of both passes together. Every
// saturation search runs before any benchmark: on a shared VM, minutes of
// pinned compute can depress the serving rate measured right after them.
func gateRuns(serve, bench runFunc) ([2][]result, error) {
	serving, err := pairs(serve, "gate serving", gatePairs)
	if err != nil {
		return serving, err
	}
	res, err := pairs(bench, "gate compute", gatePairs)
	if err != nil {
		return res, err
	}
	for side := range res {
		for i, r := range res[side] {
			for name, v := range serving[side][i].metrics {
				r.metrics[name] = v
			}
		}
	}
	return res, nil
}

var (
	benchLine     = regexp.MustCompile(`(?m)^(Benchmark\S+?)(-\d+)?\s+\d+\s+(\S+) ns/op`)
	sustainedLine = regexp.MustCompile(`(?m)^loadgen_sustained_rps=(\S+)$`)
)

// benchSide runs one side's gate benchmarks in its worktree dir.
func benchSide(ctx context.Context, dir string) (result, error) {
	ns := map[string]float64{}
	for _, b := range [][2]string{
		{"^(BenchmarkScenarioSecond|BenchmarkSweepFork)$", "1x"},
		{"^BenchmarkScenarioSecondSampled$", "4x"},
	} {
		out, err := command(ctx, dir, "go", "test", "-run=^$", "-bench="+b[0], "-benchtime="+b[1], "-timeout=30m", ".")
		if err != nil {
			return result{}, err
		}
		for _, m := range benchLine.FindAllStringSubmatch(string(out), -1) {
			ns[m[1]], _ = strconv.ParseFloat(m[3], 64)
		}
	}
	m := map[string]float64{
		"scenario_second_ms": ns["BenchmarkScenarioSecond"] / 1e6,
		"sweep_fork_speedup": ns["BenchmarkSweepFork/fresh"] / ns["BenchmarkSweepFork/forked"],
		"sampled_speedup":    ns["BenchmarkScenarioSecondSampled/detailed"] / ns["BenchmarkScenarioSecondSampled/sampled"],
	}
	for name, v := range m {
		if !(v > 0) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("%s not measured", name)
		}
	}
	return result{metrics: m}, nil
}

// sustainedRPS starts a4serve on a free loopback port, runs a4load's
// saturation search against it and returns loadgen_sustained_rps.
func sustainedRPS(ctx context.Context, bin string) (float64, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	addr := l.Addr().String()
	l.Close()
	srv := exec.CommandContext(ctx, filepath.Join(bin, "a4serve"), "-addr", addr, "-workers", "4")
	srv.Stderr = os.Stderr
	if err := srv.Start(); err != nil {
		return 0, err
	}
	defer func() {
		srv.Process.Kill()
		srv.Wait()
	}()
	for i := 0; ; i++ {
		resp, err := http.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		if i == 50 {
			return 0, fmt.Errorf("a4serve never answered /healthz: %w", err)
		}
		time.Sleep(200 * time.Millisecond)
	}
	// a4load exits 1 but still prints a rate of 0 when even -min-rate
	// misses the SLO; that is a measurement, not a failed run.
	out, err := command(ctx, bin, filepath.Join(bin, "a4load"), "-url", "http://"+addr, "-search",
		"-slo-p99-ms", "100", "-seed", "1", "-min-rate", "8", "-max-rate", "1024", "-probe", "3s", "-tol", "0.25")
	if m := sustainedLine.FindSubmatch(out); m != nil {
		return strconv.ParseFloat(string(m[1]), 64)
	}
	if err == nil {
		err = errors.New("a4load printed no loadgen_sustained_rps")
	}
	return 0, err
}
