// Command a4pair compares the repository benchmark of a base revision
// against HEAD in alternating pairs and prints the table PERF.md records:
//
//	a4pair <base-rev> [workload…]
//
// It checks out <base-rev> and HEAD as git worktrees under
// .bench_build/pair/ and removes them when it exits. The benchmark command,
// its run length, the workload names and the end-to-end metrics, each with
// its direction and bound, come from BENCHMARK.json; with no workload
// named, every declared workload runs. Each workload runs 10 pairs on fixed
// seeds, and the side that runs first alternates from pair to pair.
//
// Each row gives parent and change as median [p25–p75] (nearest rank), the
// change's wins against the parent's (ties count for neither), the
// two-sided Mann–Whitney U p-value and a verdict:
//
//	gain        the change wins at least 9 of 10 pairs and its median beats
//	            the parent's by more than the parent's IQR
//	regressed   the change's median is worse than the parent's by more
//	            than the metric's bound
//	unresolved  a side's IQR exceeds the bound relative to its median, and
//	            not every change run beats every parent run
//	flat        anything else
//
// This is the benchstat method (golang.org/x/perf/cmd/benchstat), written
// with the standard library. The reserved workload name gate runs the CI
// performance gate instead (gate.go). A run that exits non-zero, prints no
// JSON result line or reports "correct": false fails the comparison, and
// a4pair exits non-zero.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
)

const (
	benchPairs = 10
	firstSeed  = 101
	pairDir    = ".bench_build/pair"
)

var sideNames = [2]string{"parent", "change"}

// metricDef is one end-to-end metric as BENCHMARK.json declares it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`  // tolerated relative worsening
}

// benchmarkDef is the part of BENCHMARK.json the comparator reads.
type benchmarkDef struct {
	Command    []string `json:"command"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
}

// result is one run of one side: its metrics and its operation counts.
type result struct {
	metrics           map[string]float64
	attempted, failed int
}

// runFunc runs one side (0 parent, 1 change) of one workload on one seed.
type runFunc func(side int, workload string, seed int) (result, error)

func main() {
	if len(os.Args) < 2 || strings.HasPrefix(os.Args[1], "-") {
		fmt.Fprintln(os.Stderr, "usage: a4pair <base-rev> [workload…]")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := compare(ctx, os.Args[1], os.Args[2:])
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "a4pair:", err)
		os.Exit(1)
	}
}

func compare(ctx context.Context, base string, workloads []string) error {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var def benchmarkDef
	if err := json.Unmarshal(data, &def); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if len(def.Command) == 0 || def.RunSeconds <= 0 {
		return errors.New("BENCHMARK.json declares no command or run_seconds")
	}
	if len(workloads) == 0 {
		for _, w := range def.Workloads {
			workloads = append(workloads, w.Name)
		}
	}
	dirs, err := checkout(ctx, base)
	defer removeWorktrees()
	if err != nil {
		return err
	}
	var rows strings.Builder
	for _, w := range workloads {
		if w == "gate" {
			if err := gate(ctx, dirs); err != nil {
				return err
			}
			continue
		}
		res, err := pairs(perfRun(ctx, def, dirs), w, benchPairs)
		if err != nil {
			return err
		}
		for _, m := range def.EndToEnd {
			rows.WriteString(row(w, m, values(res[0], m.Name), values(res[1], m.Name)))
		}
		var failed [2]string
		for side, rs := range res {
			var f, a int
			for _, r := range rs {
				f, a = f+r.failed, a+r.attempted
			}
			failed[side] = fmt.Sprintf("%d of %d", f, a)
		}
		fmt.Fprintf(&rows, "| %s | failed of attempted | %s | %s | | | |\n", w, failed[0], failed[1])
	}
	if rows.Len() > 0 {
		fmt.Println("| workload | metric | parent | change | wins | p | verdict |")
		fmt.Println("|---|---|---|---|---|---|---|")
		fmt.Print(rows.String())
	}
	return nil
}

// pairs runs n pairs of one workload on seeds firstSeed…, alternating
// which side runs first, and returns each side's results in seed order.
func pairs(runSide runFunc, workload string, n int) ([2][]result, error) {
	var res [2][]result
	for i := 0; i < n; i++ {
		for k := 0; k < 2; k++ {
			side := (i + k) % 2
			r, err := runSide(side, workload, firstSeed+i)
			if err != nil {
				return res, fmt.Errorf("%s seed %d %s: %w", workload, firstSeed+i, sideNames[side], err)
			}
			fmt.Fprintf(os.Stderr, "a4pair: %s seed %d %s %v\n", workload, firstSeed+i, sideNames[side], r.metrics)
			res[side] = append(res[side], r)
		}
	}
	return res, nil
}

// perfRun runs the declared benchmark command in a side's worktree.
func perfRun(ctx context.Context, def benchmarkDef, dirs [2]string) runFunc {
	return func(side int, workload string, seed int) (result, error) {
		args := append(def.Command[1:len(def.Command):len(def.Command)], "--workload", workload,
			"--seed", strconv.Itoa(seed), "--seconds", strconv.Itoa(def.RunSeconds))
		out, err := command(ctx, dirs[side], def.Command[0], args...)
		if err != nil {
			return result{}, err
		}
		return parseResult(out)
	}
}

// parseResult reads the benchmark's last output line: one JSON object
// with correct, attempted, failed and metrics.
func parseResult(out []byte) (result, error) {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var line struct {
		Correct   *bool `json:"correct"`
		Attempted int   `json:"attempted"`
		Failed    int   `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil || line.Correct == nil {
		return result{}, errors.New("no JSON result line in the output")
	}
	if !*line.Correct {
		return result{}, errors.New(`the run reports "correct": false`)
	}
	r := result{metrics: map[string]float64{}, attempted: line.Attempted, failed: line.Failed}
	for name, m := range line.Metrics {
		r.metrics[name] = m.Value
	}
	return r, nil
}

// command runs name in dir and returns its standard output; its standard
// error passes through. Cancelling ctx kills the whole process group.
func command(ctx context.Context, dir, name string, args ...string) ([]byte, error) {
	cmd := exec.CommandContext(ctx, name, args...)
	cmd.Dir, cmd.Stderr = dir, os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.Cancel = func() error { return syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) }
	out, err := cmd.Output()
	if err != nil {
		return out, fmt.Errorf("%s %s: %w", name, strings.Join(args, " "), err)
	}
	return out, nil
}

// checkout adds the base and HEAD worktrees, replacing any that a killed
// run left behind, and returns their absolute paths.
func checkout(ctx context.Context, base string) ([2]string, error) {
	removeWorktrees()
	var dirs [2]string
	for side, rev := range [2]string{base, "HEAD"} {
		dir, err := filepath.Abs(filepath.Join(pairDir, sideNames[side]))
		if err != nil {
			return dirs, err
		}
		if _, err := command(ctx, ".", "git", "worktree", "add", "--quiet", "--detach", dir, rev); err != nil {
			return dirs, err
		}
		dirs[side] = dir
	}
	return dirs, nil
}

// removeWorktrees deletes the worktrees and prunes their records; it is
// best effort, as the next run repeats it.
func removeWorktrees() {
	os.RemoveAll(pairDir)
	exec.Command("git", "worktree", "prune").Run()
}

func values(rs []result, metric string) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.metrics[metric]
	}
	return out
}
