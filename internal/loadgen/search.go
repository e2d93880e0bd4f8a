package loadgen

import (
	"context"
	"encoding/json"
	"fmt"
	"time"
)

// SearchConfig parameterizes a saturation search: find the highest
// arrival rate the target sustains under a p99 latency SLO.
type SearchConfig struct {
	// Load is the probe template; its Rate and Duration are overridden
	// per probe, everything else (URL, arrival, mix, caps) carries over.
	Load Config
	// SLOP99Ms is the service-level objective: probes whose successful-
	// request p99 exceeds it are unsustainable.
	SLOP99Ms float64
	// MinRate seeds the search (default 4 rps). A deployment that cannot
	// sustain MinRate reports SustainedRPS 0.
	MinRate float64
	// MaxRate caps the upward bracket (default 4096 rps): a target still
	// sustainable there reports MaxRate rather than searching forever.
	MaxRate float64
	// ProbeDuration is each probe's measurement window (default 5s).
	ProbeDuration time.Duration
	// Tolerance ends the bisection when hi/lo <= 1+Tolerance (default
	// 0.1: the sustained rate is within 10% of the true knee).
	Tolerance float64
	// MaxErrorRate is the probe error budget (default 0.01): a probe
	// shedding or failing more than this fraction is unsustainable even
	// if the survivors' p99 looks good.
	MaxErrorRate float64
}

func (sc *SearchConfig) withDefaults() SearchConfig {
	c := *sc
	if c.MinRate <= 0 {
		c.MinRate = 4
	}
	if c.MaxRate <= 0 {
		c.MaxRate = 4096
	}
	if c.ProbeDuration <= 0 {
		c.ProbeDuration = 5 * time.Second
	}
	if c.Tolerance <= 0 {
		c.Tolerance = 0.1
	}
	if c.MaxErrorRate <= 0 {
		c.MaxErrorRate = 0.01
	}
	return c
}

// Probe records one rate trial within a search.
type Probe struct {
	Rate        float64 `json:"rate"`
	P99Ms       float64 `json:"p99_ms"`
	LagP99Ms    float64 `json:"lag_p99_ms"`
	ErrorRate   float64 `json:"error_rate"`
	Sustainable bool    `json:"sustainable"`
}

// SearchResult is a saturation search's verdict.
type SearchResult struct {
	// SustainedRPS is the highest probed rate that met the SLO, the
	// error budget, and the open-loop honesty condition; 0 if even
	// MinRate failed.
	SustainedRPS float64 `json:"sustained_rps"`
	// P99MsAtSLO is the successful-request p99 measured at SustainedRPS.
	P99MsAtSLO float64 `json:"p99_ms_at_slo"`
	// Probes lists every trial in the order taken.
	Probes []Probe `json:"probes"`
	// Converged is true when the bracket closed within Tolerance — false
	// means the search hit MaxRate still sustainable (or MinRate already
	// unsustainable) and SustainedRPS is a bound, not a knee.
	Converged bool `json:"converged"`
	// SLOP99Ms echoes the objective the search ran against.
	SLOP99Ms float64 `json:"slo_p99_ms"`
}

// Encode renders the search result as canonical JSON.
func (sr *SearchResult) Encode() ([]byte, error) {
	return json.Marshal(sr)
}

// Search finds the maximum sustainable arrival rate by geometric
// bracketing followed by bisection. A rate is sustainable iff its probe's
// successful-request p99 is within the SLO, the error rate is within
// budget, AND the probe honestly offered its rate (scheduling lag
// bounded, every event sent) — without the last condition an overloaded
// target that stalls the generator would grade as "meeting the SLO" on
// the trickle of requests that got through.
//
// Probe populations are re-derived per probe from seeds split off
// Load.Seed, so every probe offers fresh (never-cached) specs for its
// fresh share while the search as a whole stays reproducible.
func Search(ctx context.Context, sc SearchConfig) (*SearchResult, error) {
	sc = sc.withDefaults()
	if sc.SLOP99Ms <= 0 {
		return nil, fmt.Errorf("loadgen: search needs a positive p99 SLO, got %g ms", sc.SLOP99Ms)
	}
	res := &SearchResult{SLOP99Ms: sc.SLOP99Ms}
	// One tuned client for the whole search: probes at different rates reuse
	// the same keep-alive pool instead of re-dialing MaxInflight connections
	// per probe (Run would otherwise build a fresh client each time).
	shared := sc.Load.withDefaults()
	searchClient := shared.Client
	if searchClient == nil {
		searchClient = NewTunedClient(shared.URL, shared.Timeout, shared.MaxInflight)
	}
	probeIdx := uint64(0)
	probe := func(rate float64) (Probe, error) {
		cfg := sc.Load
		cfg.Client = searchClient
		cfg.Rate = rate
		cfg.Duration = sc.ProbeDuration
		cfg.Seed = mix64(sc.Load.Seed, 0x5ea2c4+probeIdx)
		// The first probe primes the cache; later ones re-offer the same
		// popular set and would only re-prime cache hits.
		cfg.SkipPriming = probeIdx > 0
		probeIdx++
		r, err := Run(ctx, cfg)
		if err != nil {
			return Probe{}, err
		}
		p := Probe{
			Rate:      rate,
			P99Ms:     r.P99Ms(),
			LagP99Ms:  r.LagP99Ms(),
			ErrorRate: r.ErrorRate(),
		}
		p.Sustainable = r.Honest() && p.P99Ms <= sc.SLOP99Ms && p.ErrorRate <= sc.MaxErrorRate
		res.Probes = append(res.Probes, p)
		return p, nil
	}

	// Bracket: double upward from MinRate until a probe fails or MaxRate
	// holds. lo tracks the best sustainable probe seen.
	lo, hi := 0.0, 0.0
	var loProbe Probe
	for rate := sc.MinRate; rate <= sc.MaxRate; rate *= 2 {
		p, err := probe(rate)
		if err != nil {
			return res, err
		}
		if !p.Sustainable {
			hi = rate
			break
		}
		lo, loProbe = rate, p
		if rate == sc.MaxRate {
			break
		}
		if rate*2 > sc.MaxRate {
			rate = sc.MaxRate / 2 // land exactly on MaxRate next iteration
		}
	}
	switch {
	case lo == 0:
		// Even MinRate was unsustainable: report zero, not converged.
		return res, nil
	case hi == 0:
		// MaxRate held: sustained rate is a lower bound on the knee.
		res.SustainedRPS, res.P99MsAtSLO = lo, loProbe.P99Ms
		return res, nil
	}

	// Bisect the (sustainable lo, unsustainable hi) bracket.
	for hi/lo > 1+sc.Tolerance {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		mid := (lo + hi) / 2
		p, err := probe(mid)
		if err != nil {
			return res, err
		}
		if p.Sustainable {
			lo, loProbe = mid, p
		} else {
			hi = mid
		}
	}
	res.SustainedRPS, res.P99MsAtSLO = lo, loProbe.P99Ms
	res.Converged = true
	return res, nil
}
