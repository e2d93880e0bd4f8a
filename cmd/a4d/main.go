// Command a4d runs a co-location scenario under a chosen LLC manager and
// streams per-second metrics, like running the real A4 daemon next to a
// workload mix. Mixes are declarative scenario specs (internal/scenario):
// either a builtin name or a path to a spec JSON file.
//
// Usage:
//
//	a4d -mix micro -mgr a4-d -secs 30
//	a4d -mix hpw-heavy -mgr default -secs 20
//	a4d -mix my-scenario.json
//
// Managers: default, isolate, a4-a, a4-b, a4-c, a4-d.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"a4sim/internal/scenario"
	"a4sim/internal/sim"
)

// loadMix resolves a builtin mix name, falling back to reading the
// argument as a spec file path.
func loadMix(mix string) (*scenario.Spec, error) {
	sp, builtinErr := scenario.BuiltinMix(mix)
	if builtinErr == nil {
		return sp, nil
	}
	data, fileErr := os.ReadFile(mix)
	if fileErr != nil {
		// A file that exists but cannot be read (permissions, directory)
		// deserves its own diagnosis; only a plain name with no file behind
		// it reads as a builtin-mix typo.
		if strings.ContainsAny(mix, "./") || !errors.Is(fileErr, os.ErrNotExist) {
			return nil, fileErr
		}
		return nil, builtinErr
	}
	return scenario.Parse(data)
}

func main() {
	mix := flag.String("mix", "micro", "builtin mix ("+strings.Join(scenario.BuiltinMixes(), ", ")+") or spec file path")
	mgr := flag.String("mgr", "", "LLC manager override: "+strings.Join(scenario.ManagerNames(), ", "))
	secs := flag.Int("secs", 0, "simulated seconds to run (0 = spec windows)")
	flag.Parse()

	sp, err := loadMix(*mix)
	if err != nil {
		fmt.Fprintln(os.Stderr, "a4d:", err)
		os.Exit(2)
	}
	if *mgr != "" {
		sp.Manager = *mgr
	}
	if *secs > 0 {
		// Matches the pre-spec behavior: measure the last 3 seconds, warm up
		// for the rest. Zero would mean "default window" to Normalize, so a
		// no-warmup run asks for a millisecond instead.
		sp.WarmupSec = float64(*secs) - 3
		if sp.WarmupSec <= 0 {
			sp.WarmupSec = 0.001
		}
		sp.MeasureSec = 3
	}
	// Start normalizes (and validates) the spec before building.
	s, err := sp.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "a4d:", err)
		os.Exit(2)
	}

	fmt.Printf("a4d: mix=%s manager=%s cores=%d llc=%d ways x %d sets\n",
		sp.Name, sp.Manager, s.P.Hierarchy.NumCores, s.P.Hierarchy.LLC.Ways, s.P.Hierarchy.LLC.Sets)

	// Stream one status line per simulated second.
	lastEvents := 0
	s.Engine.AddObserver(sim.FuncObserver(func(now sim.Tick) {
		fmt.Printf("t=%2.0fs memBW=%6.2fGB/s", now.Seconds(), s.Monitor.LastMemBW())
		for _, smp := range s.Monitor.Last() {
			fmt.Printf("  %s[hit=%.2f ipc=%.2f io=%.1f]", smp.Name, smp.LLCHitRate, smp.IPC, smp.IOReadGBps)
		}
		fmt.Println()
		if s.Controller != nil {
			for _, ev := range s.Controller.Events[lastEvents:] {
				fmt.Println("  a4:", ev)
			}
			lastEvents = len(s.Controller.Events)
		}
	}))
	res := s.Run(sp.WarmupSec, sp.MeasureSec)

	fmt.Println("\nfinal window:")
	for _, w := range s.Workloads {
		wr := res.W(w.Name())
		fmt.Printf("  %-10s hit=%.3f ipc=%.3f io=%.2fGB/s lat=%.1f/%.1fus prog=%.0f/s\n",
			wr.Name, wr.LLCHitRate, wr.IPC, wr.IOReadGBps, wr.AvgLatUs, wr.P99LatUs, wr.ProgressRate)
	}
	fmt.Printf("  system mem rd=%.2f wr=%.2f GB/s\n", res.MemReadGBps, res.MemWriteGBps)
}
