package main

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"time"

	"a4sim/internal/cluster"
	"a4sim/internal/scenario"
	"a4sim/internal/service"
	"a4sim/internal/store"
)

// sweepSeeds and sweepWindows shape every sweep-cluster request: fresh
// simulation seeds crossed with two measurement windows, so each seed's
// second window forks the first one's warm snapshot. Rendezvous routing
// over the backends' ephemeral URLs splits a sweep's seeds unevenly, and
// the busier backend sets the sweep's time.
const sweepSeeds = 4

var sweepWindows = []float64{1, 2}

// verifyPointLimit caps how many sweep points a run re-runs through
// Spec.Run after its window: all of the first sweep, then one point of
// each later sweep until the cap.
const verifyPointLimit = 12

// clusterEnv is a coordinator over two single-worker backends, each with
// its own durable store.
type clusterEnv struct {
	backends []*node
	dirs     []string
	coord    *cluster.Coordinator
	front    *httptest.Server
	c        *client
}

func (e *clusterEnv) close() {
	e.c.close()
	if e.front != nil {
		e.front.Close()
	}
	for _, b := range e.backends {
		b.close()
	}
	for _, d := range e.dirs {
		os.RemoveAll(d)
	}
}

func startCluster(tmp string) (*clusterEnv, error) {
	e := &clusterEnv{c: newClient()}
	var urls []string
	for i := 0; i < 2; i++ {
		dir, err := os.MkdirTemp(tmp, "store-")
		if err != nil {
			e.close()
			return nil, err
		}
		e.dirs = append(e.dirs, dir)
		st, err := store.Open(dir)
		if err != nil {
			e.close()
			return nil, err
		}
		b := newNode(service.New(service.Config{Workers: 1, Store: st}))
		e.backends = append(e.backends, b)
		urls = append(urls, b.ts.URL)
	}
	coord, err := cluster.New(cluster.Config{Backends: urls})
	if err != nil {
		e.close()
		return nil, err
	}
	e.coord = coord
	e.front = httptest.NewServer(service.NewMux(coord, func() any { return coord.Stats() }, nil))
	return e, nil
}

// sweepRequest is the i-th sweep of a run: the detailed tiny mix over
// sweepSeeds seeds drawn from the run's seed, crossed with sweepWindows.
func sweepRequest(seed uint64, i int) (*service.SweepRequest, error) {
	tiny, err := scenario.BuiltinMix("tiny")
	if err != nil {
		return nil, err
	}
	seeds := make([]float64, sweepSeeds)
	for k := range seeds {
		seeds[k] = float64(seedStream(seed, uint64(1000+sweepSeeds*i+k))%1_000_000_000 + 1)
	}
	return &service.SweepRequest{Spec: *tiny, Axes: []service.Axis{
		{Param: "seed", Values: seeds},
		{Param: "measure_sec", Values: sweepWindows},
	}}, nil
}

// sweep sends one sweep through the coordinator and returns the answer's
// point reports.
func (e *clusterEnv) sweep(req *service.SweepRequest) ([]json.RawMessage, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	data, err := e.c.do("POST", e.front.URL+"/sweep", body, "")
	if err != nil {
		return nil, err
	}
	var got struct {
		Points []struct {
			Report json.RawMessage `json:"report"`
		} `json:"points"`
	}
	if err := json.Unmarshal(data, &got); err != nil {
		return nil, err
	}
	want := sweepSeeds * len(sweepWindows)
	if len(got.Points) != want {
		return nil, fmt.Errorf("sweep: %d points answered, %d requested", len(got.Points), want)
	}
	out := make([]json.RawMessage, len(got.Points))
	for i, p := range got.Points {
		out[i] = p.Report
	}
	return out, nil
}

// sweepResult is one closed-loop window of sweeps: per sweep, its latency,
// the process CPU it took, its request and its point reports.
type sweepResult struct {
	lat, cpu samples
	reqs     []*service.SweepRequest
	answers  [][]json.RawMessage
}

// sweepLoop is the closed loop: one client sends the next sweep as soon as
// the previous answer arrived, until the window closes.
func (r *run) sweepLoop(e *clusterEnv, first int, window time.Duration) (*sweepResult, error) {
	res := &sweepResult{}
	start := time.Now()
	for i := first; time.Since(start) < window; i++ {
		req, err := sweepRequest(r.seed, i)
		if err != nil {
			return nil, err
		}
		c0, t0 := cpuTime(), time.Now()
		points, err := e.sweep(req)
		res.lat = append(res.lat, time.Since(t0))
		res.cpu = append(res.cpu, cpuTime()-c0)
		r.op(err)
		res.reqs, res.answers = append(res.reqs, req), append(res.answers, points)
	}
	return res, nil
}

// verifySweeps re-runs a sample of the answered points through Spec.Run:
// the cluster's answer must equal a single node's.
func (r *run) verifySweeps(reqs []*service.SweepRequest, answers [][]json.RawMessage) error {
	checked := 0
	for i, req := range reqs {
		if answers[i] == nil {
			continue
		}
		specs, _, err := service.ExpandSweep(req)
		if err != nil {
			return err
		}
		for j, sp := range specs {
			if checked == verifyPointLimit || (i > 0 && j != i%len(specs)) {
				continue
			}
			checked++
			if err := checkReport(sp, answers[i][j]); err != nil {
				r.wrongf("sweep %d point %d: %v", i, j, err)
				r.failed++
			}
		}
	}
	return nil
}

// runSweepCluster measures sweeps through the coordinator: routing,
// detailed simulation, snapshot forks and encodes, and durable writes.
func runSweepCluster(r *run) error {
	var e *clusterEnv
	teardown, err := r.setupMedian("open two stores, start two backends and a coordinator, run one priming sweep", func() (func(), error) {
		var err error
		if e, err = startCluster(r.tmp); err != nil {
			return nil, err
		}
		// Priming warms both backends' code paths on a sweep the window
		// never repeats (index -1 draws seeds no measured sweep uses).
		req, err := sweepRequest(r.seed, -1)
		if err == nil {
			_, err = e.sweep(req)
		}
		if err != nil {
			e.close()
			return nil, err
		}
		return e.close, nil
	})
	if err != nil {
		return err
	}
	defer teardown()
	res, err := r.sweepLoop(e, 0, r.window)
	if err != nil {
		return err
	}
	points := sweepSeeds * len(sweepWindows)
	p50 := res.lat.median()
	var busy time.Duration
	for _, l := range res.lat {
		busy += l
	}
	rate := float64(points*len(res.lat)) / busy.Seconds()
	r.recordCommon(p50, "sweep: "+res.lat.summarize().String(), res.cpu.median(), fmt.Sprintf("process CPU per sweep, median of %d", len(res.cpu)))
	// Throughput over all sweeps, not the median one: it averages the
	// routing splits instead of jumping between them.
	r.set("ops_per_s", rate, "1/s", fmt.Sprintf("points per second over %d sweeps of %d points", len(res.lat), points))
	note("points_per_s", rate, "1/s", "= ops_per_s")
	note("sweep_p50_ms", ms(p50), "ms", "= op_p50_ms")
	return r.verifySweeps(res.reqs, res.answers)
}
