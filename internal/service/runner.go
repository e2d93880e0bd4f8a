package service

import (
	"context"
	"errors"
	"io"
	"net/http"

	"a4sim/internal/obs"
	"a4sim/internal/scenario"
)

// Runner is the execution surface a serving front-end needs: submit one
// spec, extend a served run by content address, expand-and-run a sweep
// grid, retrieve cached reports and their per-second telemetry, and serve
// the observability planes (controller events, metrics, live series) and
// the body of a traced request. The local Service implements it by running
// each execution in-process under a slot semaphore; internal/cluster's Coordinator implements it by
// sharding over remote a4serve backends. Because both sides honour the
// determinism contract (same spec hash, same report bytes, same series
// bytes), callers — cmd/a4serve's HTTP mux, figures.RunSpecs — cannot
// observe which one they are talking to except through latency and stats.
// Extend and Submit continue any measurement window, fractional ones
// included, from a warm snapshot of a shorter window of the same prefix
// when the executing node holds one; Sweep runs the grid's prefix groups
// through RunGroups on both sides.
//
// Submit, Extend and Sweep take the request's context first. The context
// carries the request's trace (obs.WithTrace); a Runner records its spans
// into obs.TraceFrom(ctx), which is nil, and free, for an untraced call.
// Cancellation is not honoured yet: an accepted submission runs to the end.
type Runner interface {
	Submit(ctx context.Context, sp *scenario.Spec) (Result, error)
	Extend(ctx context.Context, hash string, measureSec float64) (Result, error)
	Sweep(ctx context.Context, req *SweepRequest) ([]SweepPoint, error)
	Lookup(hash string) ([]byte, bool)
	// Series returns the canonical per-second series of a cached run, or
	// false when the hash is unknown or the run recorded no series.
	Series(hash string) ([]byte, bool)
	// TraceEvents returns a cached run's controller event log as
	// {"events":[...]}, trimmed to the last n events when n > 0, for
	// GET /trace/events/<hash>. The log is the run's own, from its first
	// second, whichever path executed it and whether it is served from
	// memory or the store; false means the hash is unknown here.
	TraceEvents(hash string, n int) ([]byte, bool)
	// TraceJSON serves the canonical body of t, a trace the mux retained,
	// for GET /trace/<id>; a coordinator merges in the spans of every
	// backend the trace touched.
	TraceJSON(t *obs.Trace) []byte
	// WriteMetrics writes the Runner's Prometheus families for
	// GET /metrics; the mux appends its trace ring's families and its
	// request-duration histograms.
	WriteMetrics(w io.Writer)
	// ServeSeriesStream serves GET /series/<hash>/stream: SSE rows from
	// row 0 from the run's admission on, stored-series replay after it
	// ends. It returns false, having written nothing, when no run under
	// hash has a series to stream, and the mux answers 404.
	ServeSeriesStream(w http.ResponseWriter, req *http.Request, hash string) bool
}

// ErrUnavailable means no execution capacity is reachable right now (every
// cluster backend down, for instance). The HTTP layer maps it to 503: the
// submission was not run and may be retried against a healthier fleet.
var ErrUnavailable = errors.New("service: no execution capacity available")

// Statically pin that the local pool satisfies the shared surface.
var _ Runner = (*Service)(nil)
