package cluster

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"a4sim/internal/service"
)

// maxResponseBytes is the service.Client read cap on one backend answer,
// which the coordinator inherits.
const maxResponseBytes = 16 << 20

// TestBackendOutcomeClasses pins what each kind of backend answer means
// for routing, through one Submit against a single stub backend: the
// status the coordinator's client sees, whether the backend ends marked
// down, and how many soft retries and reroutes the answer cost. A lost
// answer (transport failure, half-written 200, 502/503/504) is retried on
// the same backend once, then marks it down; 429 is busy and leaves it up;
// an oversized body and every other status are terminal.
func TestBackendOutcomeClasses(t *testing.T) {
	envelope := []byte(`{"cached":false,"hash":"feedface","report":{"ok":true}}` + "\n")
	status := func(code int) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(code)
			fmt.Fprintf(w, `{"error":"stub","status":%d}`, code)
		}
	}
	cases := []struct {
		name     string
		handler  http.HandlerFunc
		want     int // StatusForErr of Submit's error; 200 for nil
		down     bool
		retries  uint64
		reroutes uint64
	}{
		{"200", func(w http.ResponseWriter, r *http.Request) { w.Write(envelope) }, 200, false, 0, 0},
		{"200 truncated", func(w http.ResponseWriter, r *http.Request) { w.Write(envelope[:20]) }, 503, true, 1, 1},
		{"200 oversized", func(w http.ResponseWriter, r *http.Request) {
			w.Write(bytes.Repeat([]byte{' '}, maxResponseBytes+1))
		}, 422, false, 0, 0},
		{"404", status(404), 404, false, 0, 0},
		{"422", status(422), 422, false, 0, 0},
		{"429", status(429), 429, false, 0, 0},
		{"500", status(500), 500, false, 0, 0},
		{"502", status(502), 503, true, 1, 1},
		{"503", status(503), 503, true, 1, 1},
		{"504", status(504), 503, true, 1, 1},
		{"hijacked", func(w http.ResponseWriter, r *http.Request) {
			conn, _, err := w.(http.Hijacker).Hijack()
			if err == nil {
				conn.Close()
			}
		}, 503, true, 1, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stub := httptest.NewServer(tc.handler)
			t.Cleanup(stub.Close)
			coord := newCoordinator(t, stub.URL)
			res, err := coord.Submit(context.Background(), testSpec(1))
			got := http.StatusOK
			if err != nil {
				got = service.StatusForErr(err)
			}
			if got != tc.want {
				t.Errorf("status %d (err %v), want %d", got, err, tc.want)
			}
			if err == nil && !bytes.Equal(res.Envelope, envelope) {
				t.Errorf("envelope %q not forwarded verbatim", res.Envelope)
			}
			if down := coord.backends[0].isDown(); down != tc.down {
				t.Errorf("backend down = %v, want %v", down, tc.down)
			}
			if n := coord.softRetries.Load(); n != tc.retries {
				t.Errorf("soft_retries = %d, want %d", n, tc.retries)
			}
			if n := coord.reroutes.Load(); n != tc.reroutes {
				t.Errorf("reroutes = %d, want %d", n, tc.reroutes)
			}
		})
	}
}
