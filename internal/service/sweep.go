package service

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"

	"a4sim/internal/scenario"
)

// Axis is one swept parameter: a spec field name and the values the sweep
// takes for it. Supported params: rate_scale, seed, nic_gbps, packet_bytes,
// ring_entries, ssd_gbps, warmup_sec, measure_sec, and "manager" via
// Managers (strings) instead of Values.
type Axis struct {
	Param    string    `json:"param"`
	Values   []float64 `json:"values,omitempty"`
	Managers []string  `json:"managers,omitempty"`
}

// MaxSweepPoints caps one sweep's grid size.
const MaxSweepPoints = 4096

// SweepRequest is a base spec plus the grid to expand around it.
type SweepRequest struct {
	Spec scenario.Spec `json:"spec"`
	Axes []Axis        `json:"axes"`
}

// SweepPoint is one grid point's outcome, in grid order.
type SweepPoint struct {
	// Grid holds the axis values this point was run at, keyed by param.
	Grid   map[string]any `json:"grid"`
	Hash   string         `json:"hash"`
	Cached bool           `json:"cached"`
	Report []byte         `json:"-"`
}

func applyAxis(sp *scenario.Spec, param string, v float64, mgr string) error {
	// Zero means "use the default" everywhere in spec semantics, so a grid
	// point claiming value 0 would silently run the default and its label
	// would lie; reject it instead. Likewise a fractional value for an
	// integer param would silently truncate under its label.
	if param != "manager" {
		if v <= 0 {
			return fmt.Errorf("service: sweep axis %q: value %g not positive (omit the axis to use the default)", param, v)
		}
		switch param {
		case "seed", "packet_bytes", "ring_entries":
			if v != math.Trunc(v) {
				return fmt.Errorf("service: sweep axis %q: value %g is not an integer", param, v)
			}
			// Conversions from out-of-range floats are implementation-
			// defined (amd64 and arm64 disagree), which would break the
			// hash-determinism contract; 2^53 is where float64 stops
			// representing integers exactly anyway.
			if v > 1<<53 {
				return fmt.Errorf("service: sweep axis %q: value %g too large", param, v)
			}
		}
	}
	switch param {
	case "manager":
		sp.Manager = mgr
	case "rate_scale":
		sp.Params.RateScale = v
	case "seed":
		sp.Params.Seed = uint64(v)
	case "nic_gbps":
		sp.Params.NICGbps = v
	case "packet_bytes":
		sp.Params.PacketBytes = int(v)
	case "ring_entries":
		sp.Params.RingEntries = int(v)
	case "ssd_gbps":
		sp.Params.SSDGBps = v
	case "warmup_sec":
		sp.WarmupSec = v
	case "measure_sec":
		sp.MeasureSec = v
	default:
		return fmt.Errorf("service: unknown sweep param %q", param)
	}
	return nil
}

// ExpandSweep builds the cartesian product of req's axes over the base
// spec, one spec and grid label per point, then normalizes every point and
// checks it against the execution budget, so a bad corner of the grid fails
// the whole request before any point runs. The point order is row-major in
// axis order, so it is a pure function of the request — the worker count
// never reorders results. The cluster coordinator calls it directly to
// route individual points to backends.
func ExpandSweep(req *SweepRequest) ([]*scenario.Spec, []map[string]any, error) {
	if len(req.Axes) == 0 {
		return nil, nil, fmt.Errorf("service: sweep needs at least one axis")
	}
	seen := map[string]bool{}
	total := 1
	for _, ax := range req.Axes {
		if seen[ax.Param] {
			return nil, nil, fmt.Errorf("service: duplicate sweep axis %q", ax.Param)
		}
		seen[ax.Param] = true
		// An axis fills exactly one of values/managers; silently dropping
		// the other would run a sweep the client did not ask for.
		if ax.Param == "manager" && len(ax.Values) > 0 {
			return nil, nil, fmt.Errorf("service: sweep axis %q takes managers, not values", ax.Param)
		}
		if ax.Param != "manager" && len(ax.Managers) > 0 {
			return nil, nil, fmt.Errorf("service: sweep axis %q takes values, not managers", ax.Param)
		}
		n := len(ax.Values)
		if ax.Param == "manager" {
			n = len(ax.Managers)
		}
		if n > 0 {
			total *= n
		}
		// Checked before any allocation: a small request body can encode a
		// cartesian blowup, and the daemon must reject it, not OOM.
		if total > MaxSweepPoints {
			return nil, nil, fmt.Errorf("service: sweep grid exceeds %d points", MaxSweepPoints)
		}
	}
	specs := []*scenario.Spec{req.Spec.Clone()}
	grids := []map[string]any{{}}
	for _, ax := range req.Axes {
		n := len(ax.Values)
		isMgr := ax.Param == "manager"
		if isMgr {
			n = len(ax.Managers)
		}
		if n == 0 {
			return nil, nil, fmt.Errorf("service: sweep axis %q has no values", ax.Param)
		}
		next := make([]*scenario.Spec, 0, len(specs)*n)
		nextG := make([]map[string]any, 0, len(specs)*n)
		for i, base := range specs {
			for j := 0; j < n; j++ {
				sp := base.Clone()
				g := make(map[string]any, len(grids[i])+1)
				for k, v := range grids[i] {
					g[k] = v
				}
				var err error
				if isMgr {
					mgr := ax.Managers[j]
					// Fold aliases so the grid label matches the canonical
					// manager the point actually hashes as.
					if m, ok := scenario.ManagerByName(mgr); ok {
						mgr = m.Name()
					}
					err = applyAxis(sp, ax.Param, 0, mgr)
					g[ax.Param] = mgr
				} else {
					err = applyAxis(sp, ax.Param, ax.Values[j], "")
					g[ax.Param] = ax.Values[j]
				}
				if err != nil {
					return nil, nil, err
				}
				next = append(next, sp)
				nextG = append(nextG, g)
			}
		}
		specs, grids = next, nextG
	}
	for i, sp := range specs {
		err := sp.Normalize()
		if err == nil {
			err = sp.CheckBudget()
		}
		if err != nil {
			return nil, nil, fmt.Errorf("service: sweep point %d: %w", i, err)
		}
	}
	return specs, grids, nil
}

// Sweep expands the grid and runs every point on the worker pool,
// returning results in grid order. Points whose hash is already cached (or
// duplicated within the grid) are served without re-execution; each point's
// report is byte-identical at any worker count. Rows sharing a run prefix
// (e.g. a measure_sec axis) chain through RunGroups, so each later row
// forks the warm snapshot its predecessor deposited.
func (s *Service) Sweep(ctx context.Context, req *SweepRequest) ([]SweepPoint, error) {
	specs, grids, err := ExpandSweep(req)
	if err != nil {
		return nil, err
	}
	points := make([]SweepPoint, len(specs))
	err = RunGroups(GroupSpecsByPrefix(specs), "service: sweep point", func(_, i int) error {
		res, err := s.Submit(ctx, specs[i])
		points[i] = SweepPoint{Grid: grids[i], Hash: res.Hash, Cached: res.Cached, Report: res.Report}
		return err
	})
	if err != nil {
		return nil, err
	}
	return points, nil
}

// GroupSpecsByPrefix partitions spec indices by prefix hash (see
// Spec.PrefixHash), each group sorted by ascending measurement window
// (stably, so equal-window duplicates keep grid order and coalesce through
// the result cache), groups in order of first appearance. Running a
// group's points in order on one executor lets each later point fork the
// warm snapshot its predecessor deposited; the cluster coordinator uses the
// same grouping to keep a prefix on one backend, and figures to warm each
// prefix once. It normalizes a clone of each spec, so raw specs group as
// their normalized forms do. A spec that does not normalize gets a
// singleton group; submitting it surfaces the error.
func GroupSpecsByPrefix(specs []*scenario.Spec) [][]int {
	order := make([]string, 0, len(specs))
	byPrefix := make(map[string][]int, len(specs))
	measure := make([]float64, len(specs))
	for i, sp := range specs {
		key := fmt.Sprintf("!solo-%d", i)
		if n := sp.Clone(); n.Normalize() == nil {
			if p, err := n.PrefixHash(); err == nil {
				key = p
			}
			measure[i] = n.MeasureSec
		}
		if _, ok := byPrefix[key]; !ok {
			order = append(order, key)
		}
		byPrefix[key] = append(byPrefix[key], i)
	}
	groups := make([][]int, 0, len(order))
	for _, key := range order {
		idxs := byPrefix[key]
		sort.SliceStable(idxs, func(a, b int) bool { return measure[idxs[a]] < measure[idxs[b]] })
		groups = append(groups, idxs)
	}
	return groups
}

// RunGroups is the one grouped-submit loop, shared by Service.Sweep,
// the cluster coordinator's Sweep and figures.RunSpecs: it calls
// run(g, i) for each index i of groups[g] (the groups partition 0..n−1,
// as GroupSpecsByPrefix's do), in order within a group and
// concurrently across groups, so a group's later points can fork what its
// earlier points deposited. Each executor bounds its own concurrency, so
// the loop does not. Callers assemble results by index, so the grouping
// never reorders them. A failing point does not stop its group; the error
// of the lowest failing index is returned as "<what> <index>: <err>".
func RunGroups(groups [][]int, what string, run func(g, i int) error) error {
	n := 0
	for _, idxs := range groups {
		n += len(idxs)
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for g, idxs := range groups {
		wg.Add(1)
		go func(g int, idxs []int) {
			defer wg.Done()
			for _, i := range idxs {
				errs[i] = run(g, i)
			}
		}(g, idxs)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("%s %d: %w", what, i, err)
		}
	}
	return nil
}
