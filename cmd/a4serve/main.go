// Command a4serve serves scenario runs over HTTP: the simulation as a
// service. Clients POST declarative scenario specs (internal/scenario) and
// get deterministic reports back; identical specs are served from a
// content-addressed result cache, and concurrent duplicates coalesce onto
// one execution, so a fleet of clients asking popular questions is mostly
// served without simulating anything.
//
// Endpoints (identical in single-node and cluster mode):
//
//	POST /run          spec JSON -> {hash, cached, report}
//	POST /extend       {hash, measure_sec} -> {hash, cached, report}: re-run
//	                   a previously served spec with a longer measurement
//	                   window, continuing from its cached warm snapshot
//	                   instead of restarting (404 for unknown hashes)
//	POST /sweep        {spec, axes: [{param, values|managers}]} -> {points}
//	GET  /result/<hash>  cached report by content address (404 if evicted)
//	GET  /series/<hash>  the run's per-second telemetry series (404 for
//	                   unknown hashes and for runs whose spec carried no
//	                   series block); /extend's result serves its own,
//	                   longer series under the extended run's hash
//	GET  /healthz      liveness
//	GET  /stats        cache hit/miss, dedup, execution, snapshot counters;
//	                   in cluster mode the counters are summed across
//	                   backends with a per-backend breakdown attached
//
// Usage:
//
//	a4serve -addr :8044 -workers 8 -cache 512
//	a4serve -addr :8050 -cluster "http://n1:8044,http://n2:8044"
//
// With -cluster the process serves as a coordinator: it executes nothing
// itself, sharding requests over the listed backends by the spec's prefix
// hash (internal/cluster) so same-prefix runs reuse one backend's warm
// snapshots. Clients cannot tell the difference.
//
// The a4load command drives a running daemon or coordinator with open-loop
// load. cmd/a4pair's gate runs a4load's saturation search against a fresh
// a4serve built from each of the two revisions it compares.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	netpprof "net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"a4sim/internal/cluster"
	"a4sim/internal/scenario"
	"a4sim/internal/service"
	"a4sim/internal/store"
)

func main() {
	addr := flag.String("addr", ":8044", "listen address")
	workers := flag.Int("workers", 0, "execution pool size (0 = GOMAXPROCS)")
	cacheEntries := flag.Int("cache", 256, "result cache capacity in entries")
	storeDir := flag.String("store", "", "durable object store directory: spill results and warm snapshots to disk and rehydrate them on restart")
	clusterURLs := flag.String("cluster", "", "comma-separated backend URLs: serve as cluster coordinator instead of executing locally")
	revive := flag.Duration("revive", 0, "cluster: how long a down backend stays quarantined before revival probes (0 = default)")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (off by default: profiling endpoints expose heap contents)")
	flag.Parse()

	// healthy gates /healthz: flipped to false at the start of a graceful
	// shutdown so probes and coordinators stop routing here while in-flight
	// jobs drain.
	var healthy atomic.Bool
	healthy.Store(true)

	var mux *http.ServeMux
	var svc *service.Service
	if *clusterURLs != "" {
		backends := strings.Split(*clusterURLs, ",")
		coord, err := cluster.New(cluster.Config{Backends: backends, ReviveAfter: *revive})
		if err != nil {
			fmt.Fprintln(os.Stderr, "a4serve:", err)
			os.Exit(1)
		}
		mux = service.NewMux(coord, func() any { return coord.Stats() }, healthy.Load)
		fmt.Printf("a4serve: coordinating %d backends on %s (%s)\n",
			len(backends), *addr, strings.Join(backends, ", "))
	} else {
		cfg := service.Config{Workers: *workers, CacheEntries: *cacheEntries}
		if *storeDir != "" {
			st, err := store.Open(*storeDir)
			if err != nil {
				fmt.Fprintln(os.Stderr, "a4serve:", err)
				os.Exit(1)
			}
			cfg.Store = st
			fmt.Printf("a4serve: durable store %s (%d objects)\n", st.Dir(), st.Len())
		}
		svc = service.New(cfg)
		mux = service.NewMux(svc, func() any { return svc.Stats() }, healthy.Load)
		fmt.Printf("a4serve: listening on %s (workers=%d cache=%d mixes=%v)\n",
			*addr, svc.Stats().Workers, *cacheEntries, scenario.BuiltinMixes())
	}
	if *pprofOn {
		// Contention profiling is off by default in the runtime; sampling
		// 1-in-5 mutex events and >=100µs block events keeps the overhead
		// negligible while making /debug/pprof/{mutex,block} useful.
		runtime.SetMutexProfileFraction(5)
		runtime.SetBlockProfileRate(100_000)
		// Mounted on our mux, not http.DefaultServeMux, so the flag really
		// gates the endpoints.
		mux.HandleFunc("/debug/pprof/", netpprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", netpprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", netpprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", netpprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", netpprof.Trace)
		fmt.Println("a4serve: pprof enabled at /debug/pprof/")
	}
	srv := &http.Server{
		Addr:    *addr,
		Handler: mux,
		// Bound idle and slow-loris connections. No WriteTimeout: /run and
		// /sweep responses legitimately wait on multi-minute executions.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		IdleTimeout:       2 * time.Minute,
	}

	// Graceful shutdown: on SIGINT/SIGTERM flip /healthz to 503, then drain —
	// Shutdown waits for in-flight requests (and the executions behind them)
	// before closing the listener, so accepted work is answered and every
	// completed run has already been durably spilled by the worker that ran
	// it. A second signal aborts the wait for operators in a hurry.
	go func() {
		sig := make(chan os.Signal, 2)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		healthy.Store(false)
		fmt.Println("a4serve: draining (signal again to abort)")
		ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer cancel()
		srv.Shutdown(ctx)
	}()

	if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "a4serve:", err)
		os.Exit(1)
	}
	if svc != nil {
		// Let queued jobs finish so their results reach the store; nothing
		// else needs flushing — store writes are synced at Put time.
		svc.Close()
	}
	fmt.Println("a4serve: drained, exiting")
}
