package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"a4sim/internal/obs"
	"a4sim/internal/scenario"
)

// The HTTP surface of a4serve, factored over Runner so the same mux fronts
// a local Service (single-node daemon) or a cluster coordinator — the
// API a client sees is identical either way, which is what lets -cluster
// slot in without touching clients.

// SnapshotStore is the optional warm-state transfer surface a Runner may
// implement (the local Service does; a coordinator does not — it moves
// snapshots, it never holds them). When present, the mux exposes
// GET/POST /snapshot/<prefix> for snapshot shipping between nodes.
type SnapshotStore interface {
	// SnapshotBytes exports the wrapped warm snapshot for a prefix hash.
	SnapshotBytes(prefix string) ([]byte, bool)
	// InstallSnapshot validates and imports a wrapped warm snapshot.
	InstallSnapshot(prefix string, data []byte) error
}

// maxSnapshotBytes caps a POST /snapshot body. Warm snapshots are a few MB
// at the Skylake geometry; the cap only has to stop memory exhaustion.
const maxSnapshotBytes = 64 << 20

// BodyRunner is the optional repeat-body fast path a Runner may implement
// (the local Service does): RunCachedBody serves a /run whose exact body
// bytes were seen before and whose result is resident, skipping spec
// parsing and hashing; RememberBody feeds it after a full-path success.
// Sound because body -> (spec, hash) is deterministic.
type BodyRunner interface {
	RunCachedBody(body []byte, tr *obs.Trace) (Result, bool)
	RememberBody(body []byte, hash string)
}

// NewMux serves r over the a4serve HTTP API. stats supplies the /stats
// payload: a Stats for a local service, a merged cluster view for a
// coordinator. healthy, when non-nil, gates /healthz: a false return serves
// 503, which is how a draining daemon tells probes and coordinators to
// route elsewhere before its listener closes. Every /run and /extend is
// traced: the mux joins the request's X-A4-Trace ID (or mints one), hands
// the trace to r through the request context, and records it in the mux's
// own ring behind /traces and /trace/<id>, so a coordinator's hop to a
// backend joins one trace. The two optional surfaces, SnapshotStore and
// BodyRunner, are used when r implements them.
func NewMux(r Runner, stats func() any, healthy func() bool) *http.ServeMux {
	mux := http.NewServeMux()
	// Per-endpoint request-duration histograms, exposed by /metrics.
	hm := obs.NewHTTPMetrics()
	// Finished /run and /extend traces, served by /traces and /trace/{id}.
	ring := obs.NewRing(0)
	// traced starts a request's trace (joining the inbound header's ID when
	// valid), echoes the ID so clients can fetch the trace back, and returns
	// the request context carrying it. The caller records the trace in the
	// ring when done, errors included — a failed request's timing is
	// exactly what traces are for.
	traced := func(w http.ResponseWriter, req *http.Request) (context.Context, *obs.Trace) {
		id := req.Header.Get(obs.TraceHeader)
		if !obs.ValidID(id) {
			id = obs.NewID()
		}
		w.Header().Set(obs.TraceHeader, id)
		tr := obs.NewTrace(id)
		return obs.WithTrace(req.Context(), tr), tr
	}
	br, _ := r.(BodyRunner)
	mux.HandleFunc("POST /run", hm.Timed("run", func(w http.ResponseWriter, req *http.Request) {
		body, err := readBody(w, req)
		if err != nil {
			httpError(w, bodyErrStatus(err), err.Error())
			return
		}
		// Repeat-body fast path: a body seen before whose result is still
		// cached skips parse+hash entirely. The trace begins first so the
		// fast path's cache_hit mark lands in the ring like any other hit.
		ctx, tr := traced(w, req)
		defer ring.Add(tr)
		if br != nil {
			if res, ok := br.RunCachedBody(body, tr); ok {
				writeResult(w, res)
				return
			}
		}
		sp, err := scenario.Parse(body)
		if err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		// No explicit Validate here: Submit's hashing validates the spec
		// and StatusForErr maps the rejection to 422.
		res, err := r.Submit(ctx, sp)
		if err != nil {
			httpError(w, StatusForErr(err), err.Error())
			return
		}
		if br != nil {
			br.RememberBody(body, res.Hash)
		}
		writeResult(w, res)
	}))
	mux.HandleFunc("POST /extend", hm.Timed("extend", func(w http.ResponseWriter, req *http.Request) {
		body, err := readBody(w, req)
		if err != nil {
			httpError(w, bodyErrStatus(err), err.Error())
			return
		}
		var er ExtendRequest
		if err := scenario.StrictDecode(body, &er); err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		ctx, tr := traced(w, req)
		defer ring.Add(tr)
		res, err := r.Extend(ctx, er.Hash, er.MeasureSec)
		if err != nil {
			httpError(w, StatusForErr(err), err.Error())
			return
		}
		writeResult(w, res)
	}))
	mux.HandleFunc("POST /sweep", hm.Timed("sweep", func(w http.ResponseWriter, req *http.Request) {
		body, err := readBody(w, req)
		if err != nil {
			httpError(w, bodyErrStatus(err), err.Error())
			return
		}
		var sr SweepRequest
		if err := scenario.StrictDecode(body, &sr); err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		points, err := r.Sweep(req.Context(), &sr)
		if err != nil {
			httpError(w, StatusForErr(err), err.Error())
			return
		}
		out := make([]map[string]any, len(points))
		for i, p := range points {
			out[i] = map[string]any{
				"grid":   p.Grid,
				"hash":   p.Hash,
				"cached": p.Cached,
				"report": json.RawMessage(p.Report),
			}
		}
		writeJSON(w, map[string]any{"points": out})
	}))
	mux.HandleFunc("GET /result/{hash}", hm.Timed("result", func(w http.ResponseWriter, req *http.Request) {
		hash := req.PathValue("hash")
		rep, ok := r.Lookup(hash)
		if !ok {
			httpErrorHash(w, http.StatusNotFound, "no cached result for "+hash, hash)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(rep)
	}))
	mux.HandleFunc("GET /series/{hash}", hm.Timed("series", func(w http.ResponseWriter, req *http.Request) {
		hash := req.PathValue("hash")
		series, ok := r.Series(hash)
		if !ok {
			httpErrorHash(w, http.StatusNotFound, "no cached series for "+hash+" (unknown hash, evicted, or run without a series block)", hash)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(series)
	}))
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, req *http.Request) {
		if healthy != nil && !healthy() {
			httpError(w, http.StatusServiceUnavailable, "draining")
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, req *http.Request) {
		writeJSON(w, stats())
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WriteMetrics(w)
		e := obs.NewExpo(w)
		e.Family("a4_traces", "gauge")
		e.Val("a4_traces", "", float64(ring.Len()))
		e.Family("a4_trace_ring_dropped_total", "counter")
		e.Val("a4_trace_ring_dropped_total", "", float64(ring.Dropped()))
		hm.WriteProm(w)
	})
	// Go 1.22 mux: the /stream suffix pattern is more specific than
	// GET /series/{hash}, so both routes coexist.
	mux.HandleFunc("GET /series/{hash}/stream", func(w http.ResponseWriter, req *http.Request) {
		hash := req.PathValue("hash")
		if !r.ServeSeriesStream(w, req, hash) {
			httpErrorHash(w, http.StatusNotFound, "no series for "+hash+" (unknown hash, evicted, or run without a series block)", hash)
		}
	})
	mux.HandleFunc("GET /trace/events/{hash}", func(w http.ResponseWriter, req *http.Request) {
		hash := req.PathValue("hash")
		n, _ := strconv.Atoi(req.URL.Query().Get("n"))
		data, ok := r.TraceEvents(hash, n)
		if !ok {
			httpErrorHash(w, http.StatusNotFound, "no event log for "+hash+" (unknown hash, or evicted)", hash)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(data)
	})
	mux.HandleFunc("GET /trace/{id}", func(w http.ResponseWriter, req *http.Request) {
		t, ok := ring.Get(req.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, "no retained trace "+req.PathValue("id"))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(r.TraceJSON(t))
	})
	mux.HandleFunc("GET /traces", func(w http.ResponseWriter, req *http.Request) {
		n, _ := strconv.Atoi(req.URL.Query().Get("n"))
		if n <= 0 {
			n = 16
		}
		if n > 128 {
			n = 128
		}
		recent := ring.Recent(n)
		bodies := make([]json.RawMessage, len(recent))
		for i, t := range recent {
			bodies[i] = t.JSON()
		}
		writeJSON(w, map[string]any{"traces": bodies})
	})
	if ss, ok := r.(SnapshotStore); ok {
		mux.HandleFunc("GET /snapshot/{prefix}", func(w http.ResponseWriter, req *http.Request) {
			data, ok := ss.SnapshotBytes(req.PathValue("prefix"))
			if !ok {
				httpError(w, http.StatusNotFound, "no warm snapshot for "+req.PathValue("prefix"))
				return
			}
			w.Header().Set("Content-Type", "application/octet-stream")
			w.Write(data)
		})
		mux.HandleFunc("POST /snapshot/{prefix}", func(w http.ResponseWriter, req *http.Request) {
			data, err := io.ReadAll(http.MaxBytesReader(w, req.Body, maxSnapshotBytes))
			if err != nil {
				httpError(w, bodyErrStatus(err), err.Error())
				return
			}
			if err := ss.InstallSnapshot(req.PathValue("prefix"), data); err != nil {
				httpError(w, http.StatusUnprocessableEntity, err.Error())
				return
			}
			writeJSON(w, map[string]string{"status": "installed"})
		})
	}
	return mux
}

// ExtendRequest is the POST /extend body: re-run the spec served under Hash
// with a different measurement window.
type ExtendRequest struct {
	Hash       string  `json:"hash"`
	MeasureSec float64 `json:"measure_sec"`
}

func writeResult(w http.ResponseWriter, res Result) {
	body := res.Envelope
	if body == nil {
		body = encodeResultEnvelope(res.Hash, res.Cached, res.Report)
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

// encodeResultEnvelope renders the /run and /extend response body without
// going through encoding/json: the three keys in their (sorted) marshal
// order plus the json.Encoder trailing newline. Byte-identical to
// writeJSON of the equivalent map — the report is already canonical
// (HTML-escaped) JSON and the hash is hex, so no re-escaping can differ —
// and pinned against the encoder by TestEncodeResultEnvelopeMatchesJSON.
func encodeResultEnvelope(hash string, cached bool, report []byte) []byte {
	buf := make([]byte, 0, len(report)+len(hash)+32)
	buf = append(buf, `{"cached":`...)
	buf = strconv.AppendBool(buf, cached)
	buf = append(buf, `,"hash":"`...)
	buf = append(buf, hash...)
	buf = append(buf, `","report":`...)
	buf = append(buf, report...)
	buf = append(buf, '}', '\n')
	return buf
}

// readBody reads a request body under the 1 MiB cap; MaxBytesReader
// rejects oversized bodies outright rather than silently truncating into
// different (but parseable) JSON.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	return io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
}

// bodyErrStatus distinguishes an oversized body (413) from a transport or
// encoding failure mid-read (400).
func bodyErrStatus(err error) int {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// StatusForErr classifies a serving failure: an unknown content address is
// 404, execution errors are the server's fault (500), a closing service is
// transient (503), no reachable capacity likewise (503), a full queue asks
// the client to back off (429), a forwarded APIError keeps the status it
// was born with, and anything else is a spec or grid rejected before
// running (422). ErrFromStatus is the exact inverse: the cluster
// coordinator translates backend HTTP statuses through it back into this
// same error taxonomy, so forwarding round-trips statuses unchanged.
func StatusForErr(err error) int {
	var re *RunError
	var ae *APIError
	switch {
	case errors.Is(err, ErrUnknownHash):
		return http.StatusNotFound
	case errors.As(err, &re):
		return http.StatusInternalServerError
	case errors.As(err, &ae):
		return ae.Status
	case errors.Is(err, ErrClosed), errors.Is(err, ErrUnavailable):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrBusy):
		return http.StatusTooManyRequests
	default:
		return http.StatusUnprocessableEntity
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

// httpError writes the uniform error envelope: {"error", "status"} — the
// status is repeated in the body so a logged or proxied payload stays
// self-describing. Every error path in the service and cluster muxes goes
// through here (or httpErrorHash); no endpoint returns bare-text errors.
func httpError(w http.ResponseWriter, status int, msg string) {
	httpErrorHash(w, status, msg, "")
}

// httpErrorHash is httpError for failures about a specific run: the content
// address rides in the envelope's "hash" field so clients need not parse it
// out of the message.
func httpErrorHash(w http.ResponseWriter, status int, msg, hash string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(ErrorBody{Error: msg, Status: status, Hash: hash})
}
