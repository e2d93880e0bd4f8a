package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"a4sim/internal/scenario"
)

// Client is the typed Go client for the a4serve HTTP API — the one place
// request encoding, response decoding, and status-to-error translation
// live, so cmd/a4top, the load generators, and the test suites all talk to
// a daemon (or coordinator: the API is identical) through the same surface
// instead of four hand-rolled HTTP snippets. Every non-2xx answer comes
// back through ErrFromStatus, the inverse of StatusForErr, so a remote
// failure is the same Go error the local Service would have returned.
type Client struct {
	base string
	hc   *http.Client
}

// NewTransport returns an http.Transport tuned for hammering one daemon
// with up to maxConns concurrent requests. The stdlib default keeps only
// two idle connections per host (MaxIdleConnsPerHost=2), so any real
// concurrency churns through TCP setup and TIME_WAIT sockets; sizing the
// idle pool to the in-flight cap keeps every connection alive and reused.
// MaxConnsPerHost bounds total dials at the same cap, so a misbehaving
// burst queues on the transport instead of stampeding the listener.
func NewTransport(maxConns int) *http.Transport {
	if maxConns <= 0 {
		maxConns = 64
	}
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConnsPerHost = maxConns
	t.MaxConnsPerHost = maxConns
	t.MaxIdleConns = 0 // no global cap; the per-host caps govern
	return t
}

// NewClient returns a client for the daemon at base. A nil hc gets a
// 60-second-timeout client over a keep-alive transport sized for 64
// concurrent requests, enough for cache hits and budget-bounded runs;
// callers issuing long sweeps or higher concurrency should pass their own.
func NewClient(base string, hc *http.Client) *Client {
	if hc == nil {
		hc = &http.Client{Timeout: 60 * time.Second, Transport: NewTransport(0)}
	}
	return &Client{base: strings.TrimRight(base, "/"), hc: hc}
}

// URL returns the client's base URL, normalized (no trailing slash).
func (c *Client) URL() string { return c.base }

// Run submits one spec and returns the served result.
func (c *Client) Run(sp *scenario.Spec) (Result, error) {
	body, err := json.Marshal(sp)
	if err != nil {
		return Result{}, err
	}
	return c.RunBytes(body)
}

// RunBytes submits a pre-encoded spec body — the hot path for load
// generators that marshal their request population once.
func (c *Client) RunBytes(body []byte) (Result, error) {
	return c.postResult("/run", body)
}

// Extend re-runs the spec served under hash with a different measurement
// window (POST /extend). Unknown hashes return ErrUnknownHash.
func (c *Client) Extend(hash string, measureSec float64) (Result, error) {
	body, err := json.Marshal(ExtendRequest{Hash: hash, MeasureSec: measureSec})
	if err != nil {
		return Result{}, err
	}
	return c.postResult("/extend", body)
}

// ExtendBytes posts a pre-encoded extend body (see RunBytes).
func (c *Client) ExtendBytes(body []byte) (Result, error) {
	return c.postResult("/extend", body)
}

// Sweep posts one sweep request and decodes the grid points in order.
func (c *Client) Sweep(req *SweepRequest) ([]SweepPoint, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	return c.SweepBytes(body)
}

// SweepBytes posts a pre-encoded sweep body (see RunBytes).
func (c *Client) SweepBytes(body []byte) ([]SweepPoint, error) {
	data, err := c.do(http.MethodPost, "/sweep", body)
	if err != nil {
		return nil, err
	}
	var out struct {
		Points []struct {
			Grid   map[string]any  `json:"grid"`
			Hash   string          `json:"hash"`
			Cached bool            `json:"cached"`
			Report json.RawMessage `json:"report"`
		} `json:"points"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("service: client: decode sweep response: %w", err)
	}
	points := make([]SweepPoint, len(out.Points))
	for i, p := range out.Points {
		points[i] = SweepPoint{Grid: p.Grid, Hash: p.Hash, Cached: p.Cached, Report: p.Report}
	}
	return points, nil
}

// Result fetches a cached report by content address (GET /result/<hash>).
func (c *Client) Result(hash string) ([]byte, error) {
	return c.do(http.MethodGet, "/result/"+hash, nil)
}

// Series fetches a run's per-second telemetry by content address
// (GET /series/<hash>). Runs without a series block return ErrUnknownHash,
// exactly as the server reports them.
func (c *Client) Series(hash string) ([]byte, error) {
	return c.do(http.MethodGet, "/series/"+hash, nil)
}

// SeriesStream opens the run's live SSE stream (GET /series/<hash>/stream)
// and hands the caller the raw body to scan. The stream outlives any
// sensible request timeout, so it uses a copy of the caller's client with
// only the overall timeout cleared — transport, redirect policy, and
// cookie jar all survive the clone (copying just the Transport used to
// silently drop them).
func (c *Client) SeriesStream(hash string) (io.ReadCloser, error) {
	sc := *c.hc
	sc.Timeout = 0
	resp, err := sc.Get(c.base + "/series/" + hash + "/stream")
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
		return nil, ErrFromStatus(resp.StatusCode, data)
	}
	return resp.Body, nil
}

// ClientStats is the /stats payload as a client sees it: the fleet-summed
// counters plus, when the target is a coordinator, its per-backend list
// (left raw — the client does not depend on internal/cluster).
type ClientStats struct {
	Stats
	Backends []json.RawMessage `json:"backends"`
}

// Stats fetches the daemon's counters. The second return is the backend
// count: zero for a single node, len(backends) for a coordinator.
func (c *Client) Stats() (Stats, int, error) {
	data, err := c.do(http.MethodGet, "/stats", nil)
	if err != nil {
		return Stats{}, 0, err
	}
	var st ClientStats
	if err := json.Unmarshal(data, &st); err != nil {
		return Stats{}, 0, fmt.Errorf("service: client: decode stats: %w", err)
	}
	return st.Stats, len(st.Backends), nil
}

// Healthz probes liveness; a draining or dead daemon returns an error.
func (c *Client) Healthz() error {
	_, err := c.do(http.MethodGet, "/healthz", nil)
	return err
}

// Issue sends one pre-rendered request and drains the response without
// decoding or retaining it — the load-generator hot path, where only the
// outcome matters and per-request JSON decoding would bill client CPU to
// the server under test. Non-2xx answers go through ErrFromStatus exactly
// like the typed methods, so callers classify failures identically.
func (c *Client) Issue(method, path string, body []byte) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		return ErrFromStatus(resp.StatusCode, data)
	}
	// Drain fully so the keep-alive connection is reusable.
	_, err = io.Copy(io.Discard, io.LimitReader(resp.Body, maxClientResponseBytes))
	return err
}

// postResult posts body and decodes the {hash, cached, report} envelope
// shared by /run and /extend.
func (c *Client) postResult(path string, body []byte) (Result, error) {
	data, err := c.do(http.MethodPost, path, body)
	if err != nil {
		return Result{}, err
	}
	var wr struct {
		Hash   string          `json:"hash"`
		Cached bool            `json:"cached"`
		Report json.RawMessage `json:"report"`
	}
	if err := json.Unmarshal(data, &wr); err != nil {
		return Result{}, fmt.Errorf("service: client: decode %s response: %w", path, err)
	}
	return Result{Hash: wr.Hash, Cached: wr.Cached, Report: wr.Report}, nil
}

// maxClientResponseBytes bounds one response read, mirroring the cluster
// coordinator's own cap on backend answers.
const maxClientResponseBytes = 16 << 20

func (c *Client) do(method, path string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxClientResponseBytes+1))
	if err != nil {
		return nil, fmt.Errorf("service: client: reading %s response: %w", path, err)
	}
	if len(data) > maxClientResponseBytes {
		return nil, fmt.Errorf("service: client: %s response exceeds %d bytes", path, maxClientResponseBytes)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, ErrFromStatus(resp.StatusCode, data)
	}
	return data, nil
}

// ErrorBody is the JSON error envelope every a4serve endpoint emits for
// non-2xx answers: the message, the status it rode in on, and — when the
// failure concerns a specific run — its content address.
type ErrorBody struct {
	Error  string `json:"error"`
	Status int    `json:"status"`
	Hash   string `json:"hash,omitempty"`
}

// APIError is a server rejection that maps to no taxonomy sentinel — a
// spec rejected before running (422), a malformed body (400), an oversized
// one (413). StatusForErr round-trips it to its original status, so a
// coordinator forwarding a backend's rejection preserves the code exactly.
type APIError struct {
	Status int
	Msg    string
	Hash   string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("status %d: %s", e.Status, e.Msg)
}

// ErrFromStatus translates an HTTP error answer back into the service
// error taxonomy — the inverse of StatusForErr, so client-side callers
// branch on the same sentinels (ErrUnknownHash, ErrBusy, ErrUnavailable,
// *RunError) whether the service is in-process or across the network.
func ErrFromStatus(status int, body []byte) error {
	eb := DecodeErrorBody(body)
	switch status {
	case http.StatusNotFound:
		return fmt.Errorf("%s: %w", eb.Error, ErrUnknownHash)
	case http.StatusTooManyRequests:
		return fmt.Errorf("%s: %w", eb.Error, ErrBusy)
	case http.StatusServiceUnavailable:
		return fmt.Errorf("%s: %w", eb.Error, ErrUnavailable)
	case http.StatusInternalServerError:
		return &RunError{Hash: eb.Hash, Err: errors.New(eb.Error)}
	default:
		return &APIError{Status: status, Msg: eb.Error, Hash: eb.Hash}
	}
}

// DecodeErrorBody parses the error envelope, tolerating legacy or foreign
// bodies by falling back to the (trimmed, bounded) raw text.
func DecodeErrorBody(body []byte) ErrorBody {
	var eb ErrorBody
	if json.Unmarshal(body, &eb) == nil && eb.Error != "" {
		return eb
	}
	s := strings.TrimSpace(string(body))
	if len(s) > 200 {
		s = s[:200] + "…"
	}
	if s == "" {
		s = "(empty response)"
	}
	return ErrorBody{Error: s}
}
