// Command perfbench is the repository's benchmark. It runs one workload
// per invocation entirely inside this process: simulation calls go
// straight to the simulator packages, and every server is an httptest
// instance built from service.New, service.NewMux and cluster.New with its
// store in a temporary directory, so no daemon is spawned and nothing
// outlives the run.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it measures the workload and prints the end-to-end
// metrics; with --trace 1 it prints the per-layer metrics instead (see
// layers.go). Human-readable lines come first; the last line of standard
// output is one JSON object with the keys correct, attempted, failed and
// metrics. Every output is checked; a wrong output fails the run's
// correctness, it never just slows it down.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// endToEnd are the metrics every untraced run reports, whatever the
// workload. Each workload defines its operation and what ops_per_s counts:
//
//	figures        a pass over the quick figures; passes per second
//	serve-mixed    a fresh-run request (op_p50_ms) and an executed point
//	               (cpu_ms_per_op); goodput, requests within sloMs per second
//	sweep-cluster  a sweep; sweep points per second
//
// Each workload also prints its own metrics under their own names
// (figures_s, p99_ms.hi, points_per_s, ...) for reading, not for the
// result.
var endToEnd = []string{"setup_s", "max_rss_mb", "op_p50_ms", "ops_per_s", "cpu_ms_per_op"}

// workloads maps each workload name to its untraced measurement.
var workloads = map[string]func(*run) error{
	"figures":       runFigures,
	"serve-mixed":   runServeMixed,
	"sweep-cluster": runSweepCluster,
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run is one invocation's state: its inputs, the metrics it measured and
// the operations it attempted.
type run struct {
	workload string
	seed     uint64
	window   time.Duration
	tmp      string // private temp root inside the working directory

	metrics   map[string]metric
	attempted int
	failed    int
	wrong     []string // correctness failures, reported at the end
}

// set records a metric and prints it.
func (r *run) set(name string, v float64, unit, how string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	note(name, v, unit, how)
}

// note prints a measured value with its unit and how it was taken.
func note(name string, v float64, unit, how string) {
	fmt.Printf("%-34s %14.6g %-9s %s\n", name, v, unit, how)
}

// op counts one attempted operation; a non-nil error marks it failed.
func (r *run) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.wrongf("%v", err)
	}
}

// wrongf records a correctness failure. Only the first few are printed.
func (r *run) wrongf(format string, args ...any) {
	if len(r.wrong) < 8 {
		fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	}
	r.wrong = append(r.wrong, fmt.Sprintf(format, args...))
}

func main() {
	os.Exit(mainCode())
}

func mainCode() int {
	workload := flag.String("workload", "", "workload name")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 30, "measurement window in seconds")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run")
	flag.Parse()
	measure, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload %s --seed N --seconds S --trace 0|1\n", strings.Join(names(), "|"))
		return 2
	}
	r := &run{
		workload: *workload,
		seed:     *seed,
		window:   time.Duration(*seconds) * time.Second,
		metrics:  map[string]metric{},
	}
	want := endToEnd
	if *trace == 1 {
		measure, want = (*run).traceLayers, perLayer()
	}
	if err := r.execute(measure); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := r.checkComplete(want); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	out, err := json.Marshal(map[string]any{
		"correct":   len(r.wrong) == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   r.metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// execute runs the workload inside a private temp root, removes the root
// afterwards and then checks that nothing the run started survives it.
func (r *run) execute(measure func(*run) error) error {
	root, err := filepath.Abs(filepath.Join(".bench_build", "tmp"))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return err
	}
	if r.tmp, err = os.MkdirTemp(root, "run-"); err != nil {
		return err
	}
	err = measure(r)
	if rmErr := os.RemoveAll(r.tmp); rmErr != nil && err == nil {
		err = rmErr
	}
	if err != nil {
		return err
	}
	note("error_share", float64(r.failed)/float64(max(r.attempted, 1)), "fraction", fmt.Sprintf("%d of %d operations failed or answered wrong", r.failed, r.attempted))
	if leftover := leftovers(r.tmp); leftover != "" {
		r.wrongf("clean exit: %s", leftover)
	}
	return nil
}

// checkComplete fails a run that did not measure exactly the metrics it
// owes, or attempted nothing.
func (r *run) checkComplete(want []string) error {
	var missing []string
	for _, name := range want {
		if _, ok := r.metrics[name]; !ok {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 || len(r.metrics) != len(want) {
		return fmt.Errorf("measured %d metrics, want %d; missing: %s", len(r.metrics), len(want), strings.Join(missing, ", "))
	}
	if r.attempted == 0 {
		return fmt.Errorf("no operation attempted")
	}
	return nil
}

func names() []string {
	out := make([]string, 0, len(workloads))
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the process's peak resident set size in MB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// setups is how many times a run sets its workload up. The median leaves
// out the first set-up's one-time process costs (heap growth, code
// paging) and a set-up slowed by a burst of CPU lost to other tenants.
const setups = 5

// setupMedian runs setup setups times, tearing down all but the last, and
// records the median as setup_s.
func (r *run) setupMedian(how string, setup func() (teardown func(), err error)) (func(), error) {
	var times samples
	var teardown func()
	for i := 0; i < setups; i++ {
		if teardown != nil {
			teardown()
		}
		t0 := time.Now()
		td, err := setup()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0))
		teardown = td
	}
	r.set("setup_s", times.median().Seconds(), "s", fmt.Sprintf("median of %d set-ups: %s", len(times), how))
	return teardown, nil
}

// recordCommon prints the metrics every workload reports except
// ops_per_s, whose count each workload defines: the operation's median
// latency, its CPU cost and the run's peak memory.
func (r *run) recordCommon(p50 time.Duration, p50How string, cpuPerOp time.Duration, cpuHow string) {
	r.set("op_p50_ms", ms(p50), "ms", p50How)
	r.set("cpu_ms_per_op", ms(cpuPerOp), "ms", cpuHow)
	r.set("max_rss_mb", maxRSSMB(), "MB", "peak resident set of the whole run")
}

// seedStream derives independent, nonzero 64-bit values from the run's
// seed (splitmix64), so every generated input is a pure function of it.
func seedStream(seed, stream uint64) uint64 {
	z := seed*0x9e3779b97f4a7c15 + stream*0xbf58476d1ce4e5b9 + 0x94d049bb133111eb
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}
