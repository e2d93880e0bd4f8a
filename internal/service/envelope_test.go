package service

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"a4sim/internal/scenario"
)

// errRunner is a Runner stub whose every method fails with a configured
// error — the knob the envelope tests turn to drive each taxonomy branch
// through the real mux.
type errRunner struct{ err error }

func (r *errRunner) Submit(*scenario.Spec) (Result, error)     { return Result{}, r.err }
func (r *errRunner) Extend(string, float64) (Result, error)    { return Result{}, r.err }
func (r *errRunner) Sweep(*SweepRequest) ([]SweepPoint, error) { return nil, r.err }
func (r *errRunner) Lookup(string) ([]byte, bool)              { return nil, false }
func (r *errRunner) Series(string) ([]byte, bool)              { return nil, false }

func validSpecBody(t *testing.T) []byte {
	t.Helper()
	sp, err := scenario.BuiltinMix("tiny")
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestErrorEnvelopeTaxonomy pins the full status taxonomy and the uniform
// {"error", "status", "hash"?} envelope across the mux: every error path
// answers JSON (never bare text), the body's status echoes the HTTP one,
// and by-hash lookups carry the hash field.
func TestErrorEnvelopeTaxonomy(t *testing.T) {
	cases := []struct {
		name     string
		err      error // runner error; nil for request-shaping failures
		method   string
		path     string
		body     string // empty means the valid tiny spec
		status   int
		wantHash string
	}{
		{name: "busy-429", err: ErrBusy, method: "POST", path: "/run", status: http.StatusTooManyRequests},
		{name: "closed-503", err: ErrClosed, method: "POST", path: "/run", status: http.StatusServiceUnavailable},
		{name: "unavailable-503", err: ErrUnavailable, method: "POST", path: "/run", status: http.StatusServiceUnavailable},
		{name: "run-error-500", err: &RunError{Hash: "cafe", Err: errors.New("boom")}, method: "POST", path: "/run", status: http.StatusInternalServerError},
		{name: "rejected-422", err: errors.New("scenario: bad spec"), method: "POST", path: "/run", status: http.StatusUnprocessableEntity},
		{name: "forwarded-413", err: &APIError{Status: http.StatusRequestEntityTooLarge, Msg: "too big"}, method: "POST", path: "/run", status: http.StatusRequestEntityTooLarge},
		{name: "bad-json-400", method: "POST", path: "/run", body: "{not json", status: http.StatusBadRequest},
		{name: "extend-unknown-404", err: ErrUnknownHash, method: "POST", path: "/extend", body: `{"hash":"feed","measure_sec":2}`, status: http.StatusNotFound},
		{name: "result-404", method: "GET", path: "/result/deadbeef", status: http.StatusNotFound, wantHash: "deadbeef"},
		{name: "series-404", method: "GET", path: "/series/deadbeef", status: http.StatusNotFound, wantHash: "deadbeef"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mux := NewMux(&errRunner{err: tc.err}, func() any { return Stats{} }, nil)
			srv := httptest.NewServer(mux)
			defer srv.Close()

			var resp *http.Response
			var err error
			switch tc.method {
			case "GET":
				resp, err = http.Get(srv.URL + tc.path)
			default:
				body := tc.body
				if body == "" {
					body = string(validSpecBody(t))
				}
				resp, err = http.Post(srv.URL+tc.path, "application/json", strings.NewReader(body))
			}
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.status)
			}
			if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
				t.Fatalf("Content-Type = %q, want application/json", ct)
			}
			var eb ErrorBody
			if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
				t.Fatalf("error body is not the JSON envelope: %v", err)
			}
			if eb.Error == "" {
				t.Fatal("envelope has empty error message")
			}
			if eb.Status != tc.status {
				t.Fatalf("envelope status = %d, want %d", eb.Status, tc.status)
			}
			if tc.wantHash != "" && eb.Hash != tc.wantHash {
				t.Fatalf("envelope hash = %q, want %q", eb.Hash, tc.wantHash)
			}
		})
	}
}

// TestStatusErrRoundTrip pins ErrFromStatus as the exact inverse of
// StatusForErr: a status leaving one service, translated to an error and
// re-classified (the coordinator's forwarding path), is the same status.
func TestStatusErrRoundTrip(t *testing.T) {
	statuses := []int{
		http.StatusBadRequest,
		http.StatusNotFound,
		http.StatusRequestEntityTooLarge,
		http.StatusUnprocessableEntity,
		http.StatusTooManyRequests,
		http.StatusInternalServerError,
		http.StatusServiceUnavailable,
	}
	for _, status := range statuses {
		body, _ := json.Marshal(ErrorBody{Error: "message", Status: status})
		err := ErrFromStatus(status, body)
		if got := StatusForErr(err); got != status {
			t.Errorf("StatusForErr(ErrFromStatus(%d)) = %d", status, got)
		}
	}
	// Sentinel fidelity: the client-side branches the taxonomy promises.
	if err := ErrFromStatus(404, nil); !errors.Is(err, ErrUnknownHash) {
		t.Errorf("404 did not map to ErrUnknownHash: %v", err)
	}
	if err := ErrFromStatus(429, nil); !errors.Is(err, ErrBusy) {
		t.Errorf("429 did not map to ErrBusy: %v", err)
	}
	if err := ErrFromStatus(503, nil); !errors.Is(err, ErrUnavailable) {
		t.Errorf("503 did not map to ErrUnavailable: %v", err)
	}
	var re *RunError
	if err := ErrFromStatus(500, []byte(`{"error":"x","status":500,"hash":"ff"}`)); !errors.As(err, &re) || re.Hash != "ff" {
		t.Errorf("500 did not map to RunError with hash: %v", err)
	}
	// Legacy bare-text bodies still decode to a usable message.
	if err := ErrFromStatus(422, []byte("plain text rejection")); !strings.Contains(err.Error(), "plain text rejection") {
		t.Errorf("bare-text body lost its message: %v", err)
	}
}

// TestClientRejectsOversizedResponse pins the response cap: a body of
// exactly maxClientResponseBytes arrives whole, and one byte more is an
// error rather than a truncated success.
func TestClientRejectsOversizedResponse(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		size := maxClientResponseBytes
		if strings.HasSuffix(r.URL.Path, "/over") {
			size++
		}
		w.Write(make([]byte, size))
	}))
	defer srv.Close()
	c := NewClient(srv.URL, nil)
	data, err := c.Result("cap")
	if err != nil || len(data) != maxClientResponseBytes {
		t.Fatalf("body at the cap: %d bytes, err %v; want all %d bytes", len(data), err, maxClientResponseBytes)
	}
	if data, err := c.Result("over"); err == nil {
		t.Fatalf("body over the cap returned %d bytes and no error", len(data))
	}
}
