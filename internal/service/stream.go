package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"a4sim/internal/obs"
)

// GET /series/<hash>/stream: the run's per-second telemetry as it records.
// The response is Server-Sent Events —
//
//	event: hello     data: {"hz":1,"columns":[...]}        column layout
//	event: row       data: {"i":N,"values":[...]}          one row per second
//	event: series    data: <canonical series JSON>          normal end
//	event: error     data: {"error":"..."}                  abnormal end
//
// A subscriber attaching while the run waits for a slot or mid-run reads
// from row 0, then follows live; a completed run replays its stored series
// through the same event shapes.
// The terminal series event carries exactly the bytes GET /series/<hash>
// serves, so a client can verify the rows it streamed against the stored
// encoding bit for bit.

// ServeSeriesStream serves the local stream: a run admitted here streams
// from its live log, from row 0 even while it waits for an execution slot;
// a finished run replays its stored series through the same reader; and
// everything else reports false, so the mux gives the same 404 the plain
// series endpoint gives.
func (s *Service) ServeSeriesStream(w http.ResponseWriter, req *http.Request, hash string) bool {
	log, ok := s.streams.Attach(hash)
	if !ok {
		// A run ending between the attach and here is safe: its log closes
		// after the cache put, so a missed attach finds the stored series.
		data, stored := s.Series(hash)
		if !stored {
			return false
		}
		var err error
		if log, err = obs.StoredSeries(data); err != nil {
			httpError(w, http.StatusInternalServerError, "corrupt stored series: "+err.Error())
			return true
		}
	}
	streamLog(w, req, log)
	return true
}

// streamLog writes log's rows as they arrive, then its terminal event; it
// returns early when the subscriber leaves.
func streamLog(w http.ResponseWriter, req *http.Request, log *obs.SeriesLog) {
	sse, err := newSSEWriter(w)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	next, named := 0, false
	for {
		names, rows, end, wake := log.Read(next)
		if !named && names != nil {
			sse.hello(names)
			named = true
		}
		for _, vals := range rows {
			sse.row(next, vals)
			next++
		}
		switch {
		case end != nil && end.Err != "":
			sse.errEvent(end.Err)
			return
		case end != nil:
			sse.series(end.Final)
			return
		}
		select {
		case <-req.Context().Done():
			return
		case <-wake:
		}
	}
}

// sseWriter frames Server-Sent Events, flushing after each so rows reach
// the subscriber at the 1 Hz cadence they record at instead of pooling in
// HTTP buffers.
type sseWriter struct {
	w http.ResponseWriter
	f http.Flusher
}

func newSSEWriter(w http.ResponseWriter) (*sseWriter, error) {
	f, ok := w.(http.Flusher)
	if !ok {
		return nil, errors.New("service: response writer cannot stream")
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	f.Flush()
	return &sseWriter{w: w, f: f}, nil
}

func (s *sseWriter) event(name string, data []byte) {
	fmt.Fprintf(s.w, "event: %s\ndata: %s\n\n", name, data)
	s.f.Flush()
}

func (s *sseWriter) hello(names []string) {
	data, _ := json.Marshal(struct {
		Hz      int      `json:"hz"`
		Columns []string `json:"columns"`
	}{Hz: 1, Columns: names})
	s.event("hello", data)
}

func (s *sseWriter) row(i int, values []float64) {
	data, _ := json.Marshal(struct {
		I      int       `json:"i"`
		Values []float64 `json:"values"`
	}{I: i, Values: values})
	s.event("row", data)
}

func (s *sseWriter) series(data []byte) { s.event("series", data) }

func (s *sseWriter) errEvent(msg string) {
	data, _ := json.Marshal(map[string]string{"error": msg})
	s.event("error", data)
}
