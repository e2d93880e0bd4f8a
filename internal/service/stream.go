package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"a4sim/internal/obs"
	"a4sim/internal/stats"
)

// GET /series/<hash>/stream: the run's per-second telemetry as it records.
// The response is Server-Sent Events —
//
//	event: hello     data: {"hz":1,"columns":[...]}        column layout
//	event: row       data: {"i":N,"values":[...]}          one row per second
//	event: series    data: <canonical series JSON>          normal end
//	event: error     data: {"error":"..."}                  abnormal end
//
// A subscriber attaching mid-run replays from row 0, then follows live; a
// completed run replays its stored series through the same event shapes.
// The terminal series event carries exactly the bytes GET /series/<hash>
// serves, so a client can verify the rows it streamed against the stored
// encoding bit for bit.

// ServeSeriesStream serves the local stream: live runs stream from the
// hub, finished runs replay the stored series, and everything else reports
// false, so the mux gives the same 404 the plain series endpoint gives.
func (s *Service) ServeSeriesStream(w http.ResponseWriter, req *http.Request, hash string) bool {
	if sub, ok := s.streams.Attach(hash); ok {
		defer sub.Close()
		streamLive(w, req, sub)
		return true
	}
	// A run finishing between the hub check and here is safe: Finish runs
	// after the cache put, so a missed live attach always finds the stored
	// series.
	data, ok := s.Series(hash)
	if ok {
		streamStored(w, req, data)
	}
	return ok
}

func streamLive(w http.ResponseWriter, req *http.Request, sub *obs.SeriesSub) {
	sse, err := newSSEWriter(w)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	row := 0
	if sub.Names != nil {
		sse.hello(sub.Names)
	}
	for _, vals := range sub.Replay {
		sse.row(row, vals)
		row++
	}
	ctx := req.Context()
	for {
		select {
		case <-ctx.Done():
			return
		case msg, ok := <-sub.C:
			switch {
			case !ok:
				// Closed without a terminal message: this subscriber fell
				// behind and was dropped by the hub.
				sse.errEvent("stream dropped: subscriber fell behind")
				return
			case msg.Names != nil:
				sse.hello(msg.Names)
			case msg.Row != nil:
				sse.row(row, msg.Row)
				row++
			case msg.End && msg.Err != "":
				sse.errEvent(msg.Err)
				return
			case msg.End:
				sse.series(msg.Final)
				return
			}
		}
	}
}

func streamStored(w http.ResponseWriter, req *http.Request, data []byte) {
	ser, err := stats.DecodeSeries(data)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "corrupt stored series: "+err.Error())
		return
	}
	sse, err := newSSEWriter(w)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	sse.hello(ser.Names())
	var scratch []float64
	for i := 0; i < ser.Len(); i++ {
		scratch = ser.Row(i, scratch)
		sse.row(i, scratch)
	}
	sse.series(data)
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
