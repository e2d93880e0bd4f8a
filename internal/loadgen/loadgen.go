package loadgen

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"a4sim/internal/service"
	"a4sim/internal/stats"
)

// Outcome names latencies are tagged with. Kept separate — a 503 shed by
// an overloaded daemon, a 422 rejecting a malformed spec, and a transport
// failure are three different stories about a deployment, and folding
// them into one "failed" bucket hides all three.
const (
	OutcomeOK        = "2xx"
	OutcomeClient    = "4xx"      // caller mistakes: 400/404/413/422
	OutcomeRejected  = "rejected" // load shedding: 429 and 503
	OutcomeServer    = "5xx"      // execution failures
	OutcomeTransport = "transport"
)

// Defaults for Config's zero values.
const (
	DefaultMaxInflight = 256
	DefaultLagBoundMs  = 100
	DefaultTimeout     = 60 * time.Second
)

// Config describes one open-loop load run.
type Config struct {
	// URL targets the daemon or coordinator (e.g. http://localhost:8044).
	URL string
	// Rate is the average offered arrival rate in requests/second.
	Rate float64
	// Duration is the measurement window.
	Duration time.Duration
	// Arrival selects the arrival process (Arrivals); "" means constant.
	Arrival string
	// Seed drives every random choice: schedule, class draw, fresh-spec
	// population. Same seed, same offered load, byte for byte.
	Seed uint64
	// Mix weights the request classes; nil means DefaultMix.
	Mix map[string]float64
	// MaxInflight caps concurrent outstanding requests. The cap is what
	// makes the lag measurement honest: when the server falls behind by
	// more than MaxInflight requests, sends block past their scheduled
	// times and the slip is recorded instead of hidden in socket queues.
	// 0 means DefaultMaxInflight.
	MaxInflight int
	// LagBoundMs is the honesty threshold: a run whose p99 scheduling lag
	// exceeds it did not truly offer Rate, and Result.Honest reports so.
	// 0 means DefaultLagBoundMs.
	LagBoundMs float64
	// Timeout bounds each request; 0 means DefaultTimeout.
	Timeout time.Duration
	// SkipPriming skips the serial cache-priming pass — for reruns
	// against a daemon this generator already primed.
	SkipPriming bool
	// Client overrides the HTTP client (tests inject one); nil builds a
	// service.Client for URL with Timeout.
	Client *service.Client
}

func (cfg *Config) withDefaults() Config {
	c := *cfg
	if c.MaxInflight <= 0 {
		c.MaxInflight = DefaultMaxInflight
	}
	if c.LagBoundMs <= 0 {
		c.LagBoundMs = DefaultLagBoundMs
	}
	if c.Timeout <= 0 {
		c.Timeout = DefaultTimeout
	}
	if c.Arrival == "" {
		c.Arrival = ArrivalConstant
	}
	return c
}

// Result is what one load run measured: per-class, per-outcome latency
// histograms plus the scheduling-lag distribution that says whether the
// configured rate was honestly offered.
type Result struct {
	Seed        uint64
	Arrival     string
	Rate        float64
	DurationSec float64
	Offered     int     // events in the plan
	Sent        int     // events actually dispatched
	ElapsedSec  float64 // wall time of the measurement window
	LagBoundMs  float64
	// Classes maps request class -> outcome -> latency histogram (µs).
	Classes map[string]map[string]*stats.Histogram
	// Lag is the scheduling-lag distribution (µs): actual send time minus
	// scheduled send time, observed at every dispatch.
	Lag *stats.Histogram
}

// Honest reports the open-loop honesty condition: every planned event was
// sent and the p99 scheduling lag stayed under the bound. A dishonest run
// measured some lower, server-paced rate — its latencies must not be
// compared against the configured one.
func (r *Result) Honest() bool {
	return r.Sent == r.Offered && r.LagP99Ms() <= r.LagBoundMs
}

// LagP99Ms is the p99 scheduling lag in milliseconds.
func (r *Result) LagP99Ms() float64 {
	if r.Lag == nil || r.Lag.Count() == 0 {
		return 0
	}
	return r.Lag.Quantile(0.99) / 1000
}

// P99Ms is the p99 latency of successful requests across all classes, in
// milliseconds — the quantity SLOs are written against.
func (r *Result) P99Ms() float64 {
	merged := stats.NewHistogram()
	for _, outcomes := range r.Classes {
		if h := outcomes[OutcomeOK]; h != nil {
			merged.Merge(h)
		}
	}
	if merged.Count() == 0 {
		return 0
	}
	return merged.Quantile(0.99) / 1000
}

// Outcomes sums request counts per outcome across classes.
func (r *Result) Outcomes() map[string]uint64 {
	out := map[string]uint64{}
	for _, outcomes := range r.Classes {
		for name, h := range outcomes {
			out[name] += h.Count()
		}
	}
	return out
}

// ErrorRate is the fraction of sent requests that did not succeed.
func (r *Result) ErrorRate() float64 {
	if r.Sent == 0 {
		return 0
	}
	return 1 - float64(r.Outcomes()[OutcomeOK])/float64(r.Sent)
}

// resultJSON is the canonical serialized form: summary scalars up front,
// then class -> outcome -> {count, quantiles, full histogram}. Maps
// marshal with sorted keys, so equal results encode byte-identically.
type resultJSON struct {
	Seed        uint64                          `json:"seed"`
	Arrival     string                          `json:"arrival"`
	Rate        float64                         `json:"rate"`
	DurationSec float64                         `json:"duration_sec"`
	Offered     int                             `json:"offered"`
	Sent        int                             `json:"sent"`
	ElapsedSec  float64                         `json:"elapsed_sec"`
	Honest      bool                            `json:"honest"`
	LagBoundMs  float64                         `json:"lag_bound_ms"`
	P99Ms       float64                         `json:"p99_ms"`
	ErrorRate   float64                         `json:"error_rate"`
	Lag         *distJSON                       `json:"lag"`
	Classes     map[string]map[string]*distJSON `json:"classes"`
	Outcomes    map[string]uint64               `json:"outcomes"`
}

type distJSON struct {
	Count uint64           `json:"count"`
	P50Ms float64          `json:"p50_ms"`
	P99Ms float64          `json:"p99_ms"`
	Hist  *stats.Histogram `json:"hist"`
}

func newDistJSON(h *stats.Histogram) *distJSON {
	d := &distJSON{Count: h.Count(), Hist: h}
	if d.Count > 0 {
		d.P50Ms = h.Quantile(0.50) / 1000
		d.P99Ms = h.Quantile(0.99) / 1000
	}
	return d
}

// WriteJSON writes the result in its canonical JSON form.
func (r *Result) WriteJSON(w io.Writer) error {
	out := resultJSON{
		Seed:        r.Seed,
		Arrival:     r.Arrival,
		Rate:        r.Rate,
		DurationSec: r.DurationSec,
		Offered:     r.Offered,
		Sent:        r.Sent,
		ElapsedSec:  r.ElapsedSec,
		Honest:      r.Honest(),
		LagBoundMs:  r.LagBoundMs,
		P99Ms:       r.P99Ms(),
		ErrorRate:   r.ErrorRate(),
		Lag:         newDistJSON(r.Lag),
		Classes:     map[string]map[string]*distJSON{},
		Outcomes:    r.Outcomes(),
	}
	for class, outcomes := range r.Classes {
		m := map[string]*distJSON{}
		for name, h := range outcomes {
			m[name] = newDistJSON(h)
		}
		out.Classes[class] = m
	}
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	return enc.Encode(out)
}

// Run executes one open-loop load run against cfg.URL: build the plan from
// cfg, prime the cache serially, then offer every planned event at its
// scheduled time, capped at MaxInflight outstanding requests. The returned
// Result is complete even when ctx cancels the run early (Sent records how
// far it got, and the error is ctx's).
func Run(ctx context.Context, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	plan, err := BuildPlan(cfg)
	if err != nil {
		return nil, err
	}
	client := cfg.Client
	if client == nil {
		client = NewTunedClient(cfg.URL, cfg.Timeout, cfg.MaxInflight)
	}

	if !cfg.SkipPriming {
		for _, ev := range plan.Priming {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if err := issue(client, ev); err != nil {
				return nil, fmt.Errorf("loadgen: priming %s %s: %w", ev.Method, ev.Path, err)
			}
		}
	}

	res := &Result{
		Seed:        plan.Seed,
		Arrival:     plan.Arrival,
		Rate:        plan.Rate,
		DurationSec: plan.DurationSec,
		Offered:     len(plan.Events),
		LagBoundMs:  cfg.LagBoundMs,
		Classes:     map[string]map[string]*stats.Histogram{},
		Lag:         stats.NewHistogram(),
	}
	var mu sync.Mutex // guards res.Classes and res.Lag
	observe := func(class, outcome string, latUs int64) {
		mu.Lock()
		defer mu.Unlock()
		outcomes := res.Classes[class]
		if outcomes == nil {
			outcomes = map[string]*stats.Histogram{}
			res.Classes[class] = outcomes
		}
		h := outcomes[outcome]
		if h == nil {
			h = stats.NewHistogram()
			outcomes[outcome] = h
		}
		h.Observe(latUs)
	}

	sem := make(chan struct{}, cfg.MaxInflight)
	var wg sync.WaitGroup
	start := time.Now()
	var runErr error
dispatch:
	for _, ev := range plan.Events {
		scheduled := start.Add(time.Duration(ev.AtUs) * time.Microsecond)
		if wait := time.Until(scheduled); wait > 0 {
			timer := time.NewTimer(wait)
			select {
			case <-timer.C:
			case <-ctx.Done():
				timer.Stop()
				runErr = ctx.Err()
				break dispatch
			}
		}
		// Acquiring the in-flight slot may block; the time it blocks IS
		// the scheduling lag the honesty condition is about.
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			runErr = ctx.Err()
			break dispatch
		}
		lagUs := time.Since(scheduled).Microseconds()
		if lagUs < 0 {
			lagUs = 0
		}
		mu.Lock()
		res.Lag.Observe(lagUs)
		mu.Unlock()
		res.Sent++
		wg.Add(1)
		// Latency runs from the scheduled send time, not from slot
		// acquisition: a request that queued behind the in-flight cap
		// waited on the server's backlog, and timing it from the
		// acquisition would hide that wait (coordinated omission).
		go func(ev Event, scheduled time.Time) {
			defer wg.Done()
			defer func() { <-sem }()
			err := issue(client, ev)
			observe(ev.Class, outcomeForErr(err), time.Since(scheduled).Microseconds())
		}(ev, scheduled)
	}
	wg.Wait()
	res.ElapsedSec = time.Since(start).Seconds()
	return res, runErr
}

// NewTunedClient builds the generator's service client: per-request
// timeout plus a keep-alive transport whose idle pool is sized to the
// in-flight cap, so a saturated run reuses maxInflight connections instead
// of churning through dials (the stdlib default keeps only two idle per
// host).
func NewTunedClient(url string, timeout time.Duration, maxInflight int) *service.Client {
	return service.NewClient(url, &http.Client{
		Timeout:   timeout,
		Transport: service.NewTransport(maxInflight),
	})
}

// issue sends one planned event through the typed client's drain-only
// path — the harness measures, it does not read reports, and decoding
// every response would bill loadgen CPU against the server under test on
// a shared machine.
func issue(c *service.Client, ev Event) error {
	switch {
	case ev.Path == "/run" || ev.Path == "/extend" || ev.Path == "/sweep":
		return c.Issue(http.MethodPost, ev.Path, ev.Body)
	case strings.HasPrefix(ev.Path, "/series/"):
		return c.Issue(http.MethodGet, ev.Path, nil)
	default:
		return fmt.Errorf("loadgen: plan event with unknown path %q", ev.Path)
	}
}

// outcomeForErr folds a typed client error into its outcome bucket. The
// client's taxonomy is total over HTTP answers — anything untyped never
// reached the service (dial failure, timeout, canceled context).
func outcomeForErr(err error) string {
	if err == nil {
		return OutcomeOK
	}
	var ae *service.APIError
	var re *service.RunError
	switch {
	case errors.Is(err, service.ErrBusy), errors.Is(err, service.ErrUnavailable):
		return OutcomeRejected
	case errors.Is(err, service.ErrUnknownHash):
		return OutcomeClient
	case errors.As(err, &re):
		return OutcomeServer
	case errors.As(err, &ae):
		if ae.Status >= 500 {
			return OutcomeServer
		}
		return OutcomeClient
	default:
		return OutcomeTransport
	}
}

// ClassNames returns the result's class names, sorted — for printers
// that want deterministic output order.
func (r *Result) ClassNames() []string {
	names := make([]string, 0, len(r.Classes))
	for name := range r.Classes {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
