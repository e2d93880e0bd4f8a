package cluster

import (
	"io"
	"net/http"
	"sort"

	"a4sim/internal/obs"
	"a4sim/internal/service"
)

// The coordinator's observability surface: the same Runner methods the
// local service implements, by delegation. Traces merge the coordinator's
// routing spans with the owning backend's execution spans (joined over the
// wire by the X-A4-Trace header); events and streams proxy to the backend
// that ran the request; metrics expose the fleet sum next to a per-backend
// breakdown.

// TraceJSON assembles the full cross-host trace of t: the coordinator's
// own spans (queue, handoff, backend_call, reroute) plus the spans each
// contacted backend recorded under the same trace ID. Backend spans carry
// microsecond offsets from that backend's own request start, so within one
// backend_call they nest exactly; across hosts ordering is by each host's
// local clock. Backend fetches are best-effort over the probe client — a
// dead backend costs its spans, never the trace.
func (c *Coordinator) TraceJSON(t *obs.Trace) []byte {
	id := t.ID()
	spans := t.Snapshot()
	// One fetch per distinct backend this request touched, in first-contact
	// order.
	var hops []*backend
	seen := map[string]bool{}
	for _, sp := range spans {
		if sp.Name == "backend_call" && !seen[sp.Backend] {
			seen[sp.Backend] = true
			if b := c.backendAt(sp.Backend); b != nil {
				hops = append(hops, b)
			}
		}
	}
	for _, b := range hops {
		data, err := b.probe.Trace(id)
		if err != nil {
			continue
		}
		_, remote, err := obs.DecodeTrace(data)
		if err != nil {
			continue
		}
		for i := range remote {
			if remote[i].Backend == "" {
				remote[i].Backend = b.url
			}
		}
		spans = append(spans, remote...)
	}
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].StartUs < spans[j].StartUs })
	return obs.EncodeTrace(id, spans)
}

// TraceEvents proxies a cached run's simulator event log from the backend
// that executed it, routed on the bare hash like Series.
func (c *Coordinator) TraceEvents(hash string, n int) ([]byte, bool) {
	return c.fetchByHash(hash, func(cl *service.Client) ([]byte, error) { return cl.TraceEvents(hash, n) })
}

// ServeSeriesStream proxies the live (or replayed) series stream from the
// backend owning hash, routed like /series. The proxy request is bound to
// the subscriber's context, so a subscriber disconnecting tears down the
// backend leg too, and every read is flushed through immediately to
// preserve the 1 Hz cadence.
func (c *Coordinator) ServeSeriesStream(w http.ResponseWriter, req *http.Request, hash string) bool {
	ctx := req.Context()
	return c.byHash(hash, func(cl *service.Client) error {
		body, err := cl.SeriesStream(ctx, hash)
		if err != nil {
			if ctx.Err() != nil {
				return nil // the subscriber left: nobody waits on another backend
			}
			return err
		}
		defer body.Close()
		copyStream(w, body)
		return nil
	})
}

// copyStream relays SSE bytes, flushing after every read so frames are not
// pooled in the proxy's buffers.
func copyStream(w http.ResponseWriter, r io.Reader) {
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	f, _ := w.(http.Flusher)
	if f != nil {
		f.Flush()
	}
	buf := make([]byte, 4096)
	for {
		n, err := r.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if f != nil {
				f.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}

// WriteMetrics exposes the fleet in one scrape: every service family first
// as an unlabeled fleet sum (so dashboards built against a single node read
// a coordinator identically), then once per reachable backend with a
// backend label, followed by backend liveness and the coordinator's own
// routing counters.
func (c *Coordinator) WriteMetrics(w io.Writer) {
	st := c.Stats()
	labels, rows := []string{""}, []service.Stats{st.Stats}
	for _, bs := range st.Backends {
		if bs.Reachable {
			labels = append(labels, obs.Label("backend", bs.URL))
			rows = append(rows, bs.Stats)
		}
	}
	e := obs.NewExpo(w)
	obs.Stats(e, labels, rows)
	e.Family("a4_backend_up", "gauge")
	for _, bs := range st.Backends {
		up := 0.0
		if bs.Reachable {
			up = 1.0
		}
		e.Val("a4_backend_up", obs.Label("backend", bs.URL), up)
	}
	obs.Stats(e, []string{""}, []Routing{st.Routing})
}
