// Command a4top is a PCM-style counter viewer for the simulated testbed,
// built on the telemetry plane: instead of ad-hoc sampling, it reads the
// same per-second series the measurement path records (harness.Monitor) —
// either live, from a scenario it runs itself, or remotely, from a served
// run's GET /series/<hash> endpoint on an a4serve daemon.
//
// Usage:
//
//	a4top -secs 12 -block 128 -every 2 -last 8        # live scenario
//	a4top -url http://localhost:8044 -hash <hash>      # served run's series
//	a4top -url http://localhost:8044 -hash <hash> -follow   # stream live
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"a4sim/internal/scenario"
	"a4sim/internal/service"
	"a4sim/internal/stats"
)

func main() {
	secs := flag.Int("secs", 12, "live: simulated seconds to run")
	every := flag.Int("every", 2, "live: print interval in simulated seconds")
	block := flag.Int("block", 128, "live: FIO block size in KB")
	last := flag.Int("last", 8, "seconds of history per rendering")
	url := flag.String("url", "", "remote: a4serve base URL (with -hash)")
	hash := flag.String("hash", "", "remote: content address of a served run")
	followFlag := flag.Bool("follow", false, "remote: attach to GET /series/<hash>/stream and render rows as they record")
	flag.Parse()

	if (*url == "") != (*hash == "") {
		fmt.Fprintln(os.Stderr, "a4top: -url and -hash go together")
		os.Exit(2)
	}
	if *url != "" {
		if *followFlag {
			os.Exit(follow(*url, *hash, *last, *every))
		}
		os.Exit(remote(*url, *hash, *last))
	}
	os.Exit(live(*secs, *every, *block, *last))
}

// live runs the demo mix with the full telemetry plane enabled and renders
// the tail of the monitor's series at every interval.
func live(secs, every, block, last int) int {
	sp := &scenario.Spec{
		Name:    "a4top",
		Manager: "default",
		Series:  &scenario.SeriesSpec{}, // all column groups
		// One long measurement window: a4top wants the series, and windows
		// are what the plane records.
		WarmupSec:  0.001,
		MeasureSec: float64(secs),
		Workloads: []scenario.WorkloadSpec{
			{Kind: "dpdk", Name: "dpdk-t", Cores: []int{0, 1, 2, 3}, Priority: "hpw", Touch: true},
			{Kind: "fio", Name: "fio", Cores: []int{4, 5, 6, 7}, Priority: "lpw", BlockKB: block, QueueDepth: 32},
			{Kind: "xmem", Name: "xmem", Cores: []int{8, 9}, Priority: "hpw", WSKB: 4 << 10, Pattern: "sequential"},
		},
	}
	s, err := sp.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "a4top:", err)
		return 2
	}
	if every <= 0 {
		every = 1
	}
	s.BeginMeasure()
	// Walk the window in print intervals, shortening the last step so the
	// full -secs always simulates even when it is not a multiple of -every.
	for done := 0; done < secs; {
		step := every
		if secs-done < step {
			step = secs - done
		}
		s.Measure(float64(step))
		done += step
		render(os.Stdout, s.Monitor.Series(), last)
	}
	res := s.EndMeasure()
	fmt.Printf("window aggregate: %.0fs  mem rd=%.2f wr=%.2f GB/s\n",
		res.Seconds, res.MemReadGBps, res.MemWriteGBps)
	return 0
}

// remote fetches a served run's series by content address and renders its
// tail once. Server errors surface through the client's typed taxonomy —
// an unknown hash reads as such, not as an opaque status line.
func remote(url, hash string, last int) int {
	data, err := service.NewClient(url, nil).Series(hash)
	if err != nil {
		fmt.Fprintf(os.Stderr, "a4top: series %s: %v\n", hash, err)
		return 1
	}
	ser, err := stats.DecodeSeries(data)
	if err != nil {
		fmt.Fprintln(os.Stderr, "a4top:", err)
		return 1
	}
	render(os.Stdout, ser, last)
	return 0
}

// follow attaches to a run's SSE stream and renders the growing series
// every -every rows, then once more from the terminal event: a final series
// for completed runs (rendered from the stored encoding, so what follow
// shows last is exactly what GET /series serves), or an error for aborted
// ones. Returns non-zero if the stream ends without a terminal event.
func follow(url, hash string, last, every int) int {
	body, err := service.NewClient(url, nil).SeriesStream(context.Background(), hash)
	if err != nil {
		fmt.Fprintf(os.Stderr, "a4top: stream %s: %v\n", hash, err)
		return 1
	}
	defer body.Close()
	if every <= 0 {
		every = 1
	}
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var (
		event string
		ser   *stats.Series
	)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := []byte(strings.TrimPrefix(line, "data: "))
			switch event {
			case "hello":
				var h struct {
					Columns []string `json:"columns"`
				}
				if err := json.Unmarshal(data, &h); err != nil {
					fmt.Fprintln(os.Stderr, "a4top: bad hello:", err)
					return 1
				}
				ser = stats.NewSeries(h.Columns...)
			case "row":
				var r struct {
					Values []float64 `json:"values"`
				}
				if err := json.Unmarshal(data, &r); err != nil || ser == nil {
					fmt.Fprintln(os.Stderr, "a4top: bad row event")
					return 1
				}
				ser.Append(r.Values...)
				if ser.Len()%every == 0 {
					render(os.Stdout, ser, last)
				}
			case "series":
				final, err := stats.DecodeSeries(data)
				if err != nil {
					fmt.Fprintln(os.Stderr, "a4top: bad final series:", err)
					return 1
				}
				fmt.Printf("stream complete: %d rows\n", final.Len())
				render(os.Stdout, final, last)
				return 0
			case "error":
				var e struct {
					Error string `json:"error"`
				}
				json.Unmarshal(data, &e)
				fmt.Fprintln(os.Stderr, "a4top: stream error:", e.Error)
				return 1
			}
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "a4top: reading stream:", err)
	} else {
		fmt.Fprintln(os.Stderr, "a4top: stream ended without a terminal event")
	}
	return 1
}

// workloadNames derives the per-workload column blocks from the series'
// deterministic column names (wl.<name>.ipc), preserving scenario order.
func workloadNames(ser *stats.Series) []string {
	var names []string
	for _, c := range ser.Names() {
		if strings.HasPrefix(c, "wl.") && strings.HasSuffix(c, ".ipc") {
			names = append(names, strings.TrimSuffix(strings.TrimPrefix(c, "wl."), ".ipc"))
		}
	}
	return names
}

// render prints the last n seconds of the series: an IPC history per
// workload plus the latest counters, memory bandwidth, and — when the run
// carried the controller group — the A4 state timeline.
func render(w io.Writer, ser *stats.Series, n int) {
	if ser == nil || ser.Len() == 0 {
		fmt.Fprintln(w, "a4top: no series rows yet")
		return
	}
	rows := ser.Len()
	from := rows - n
	if from < 0 {
		from = 0
	}
	fmt.Fprintf(w, "--- t=%ds  memBW=%.2f GB/s  (showing s%d..s%d) ---\n",
		rows, latest(ser, "mem.rd_gbps")+latest(ser, "mem.wr_gbps"), from+1, rows)
	fmt.Fprintf(w, "%-10s %8s %8s %8s %8s %10s  %s\n",
		"workload", "llcHit", "dcaMiss", "ipc", "ioGB/s", "prog/s", fmt.Sprintf("ipc[last %d]", rows-from))
	for _, name := range workloadNames(ser) {
		col := func(metric string) string { return "wl." + name + "." + metric }
		hist := ser.Tail(col("ipc"), n)
		parts := make([]string, len(hist))
		for i, v := range hist {
			parts[i] = fmt.Sprintf("%.2f", v)
		}
		fmt.Fprintf(w, "%-10s %8.3f %8.3f %8.3f %8.2f %10.0f  %s\n",
			name,
			latest(ser, col("llc_hit")),
			latest(ser, col("dca_miss")),
			latest(ser, col("ipc")),
			latest(ser, col("io_rd_gbps")),
			latest(ser, col("progress")),
			strings.Join(parts, " "))
	}
	if depth := ser.Column("nic.ring_depth"); depth != nil {
		fmt.Fprintf(w, "%-10s depth=%.0f drops/s=%.0f", "nic", latest(ser, "nic.ring_depth"), latest(ser, "nic.drops"))
		if ser.Column("ssd.queue_depth") != nil {
			fmt.Fprintf(w, "   ssd depth=%.0f", latest(ser, "ssd.queue_depth"))
		}
		fmt.Fprintln(w)
	}
	if st := ser.Column("a4.state"); st != nil {
		states := ser.Tail("a4.state", n)
		parts := make([]string, len(states))
		for i, v := range states {
			parts[i] = [4]string{"init", "search", "settled", "revert"}[int(v)&3]
		}
		fmt.Fprintf(w, "%-10s lp=[%.0f:%.0f]  %s\n", "a4",
			latest(ser, "a4.lp_left"), latest(ser, "a4.lp_right"), strings.Join(parts, " "))
	}
}

// latest returns the newest value of a column, or 0 if absent/empty.
func latest(ser *stats.Series, name string) float64 {
	c := ser.Column(name)
	if len(c) == 0 {
		return 0
	}
	return c[len(c)-1]
}
