// Command a4bench regenerates the paper's figures on the simulated testbed.
//
// Usage:
//
//	a4bench -fig 3a            # one figure
//	a4bench -fig all           # every figure (slow)
//	a4bench -fig 13a -quick    # trimmed sweep for a fast look
//	a4bench -list              # available figure IDs
//	a4bench -fig 3a -quick -sampled  # sampled windows, rounded to whole seconds
//
// Output is a text table per figure with one row per x position and one
// column per series, mirroring the lines/bars of the paper's plots.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"a4sim/internal/figures"
	"a4sim/internal/scenario"
)

func main() {
	fig := flag.String("fig", "", "figure ID to regenerate (e.g. 3a, 13a, or 'all')")
	quick := flag.Bool("quick", false, "trim sweeps and shorten runs")
	verbose := flag.Bool("v", false, "include controller event notes")
	list := flag.Bool("list", false, "list available figure IDs")
	workers := flag.Int("workers", 0, "sweep worker pool size (0 = GOMAXPROCS, 1 = serial)")
	sampled := flag.Bool("sampled", false,
		"run measurement windows sampled (200 ms detail per second; ~5x fewer detailed epochs)")
	flag.Parse()

	if *list || *fig == "" {
		fmt.Println("available figures:", strings.Join(figures.IDs(), " "))
		fmt.Println("available ablations:", strings.Join(figures.AblationIDs(), " "))
		if !*list {
			os.Exit(2) // no figure asked for: a usage error
		}
		return
	}

	opts := figures.Options{Quick: *quick, Verbose: *verbose, Workers: *workers}
	if *sampled {
		opts.Sampling = &scenario.SamplingSpec{} // the default schedule
	}
	ids := []string{*fig}
	switch *fig {
	case "all":
		ids = figures.IDs()
	case "ablations":
		ids = figures.AblationIDs()
	}
	for _, id := range ids {
		fn, ok := figures.Registry[id]
		if !ok {
			fn, ok = figures.AblationRegistry[id]
		}
		if !ok {
			fmt.Fprintf(os.Stderr, "a4bench: unknown figure %q (try -list)\n", id)
			os.Exit(2)
		}
		start := time.Now()
		rep := fn(opts)
		fmt.Print(rep.String())
		fmt.Printf("(generated in %.1fs)\n\n", time.Since(start).Seconds())
	}
}
