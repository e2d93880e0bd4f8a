package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"a4sim/internal/obs"
)

// Client is the typed Go client for the a4serve HTTP API — the one place
// request encoding, response decoding, and status-to-error translation
// live. cmd/a4top, the load generator, the test suites, and the cluster
// coordinator's hops to its backends all talk to a daemon (or coordinator:
// the API is identical) through it. Every non-2xx answer comes back through
// ErrFromStatus, the inverse of StatusForErr, so a remote failure is the
// same Go error the local Service would have returned.
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

// RunBytes submits a pre-encoded spec body (POST /run). The trace ctx
// carries, if any, travels in the X-A4-Trace header, so the daemon's spans
// join it. The Result's Envelope holds the response body verbatim.
func (c *Client) RunBytes(ctx context.Context, body []byte) (Result, error) {
	return c.postResult(ctx, "/run", body)
}

// Extend re-runs the spec served under hash with a different measurement
// window (POST /extend), forwarding ctx's trace like RunBytes. Unknown
// hashes return ErrUnknownHash.
func (c *Client) Extend(ctx context.Context, hash string, measureSec float64) (Result, error) {
	body, err := json.Marshal(ExtendRequest{Hash: hash, MeasureSec: measureSec})
	if err != nil {
		return Result{}, err
	}
	return c.postResult(ctx, "/extend", body)
}

// Result fetches a cached report by content address (GET /result/<hash>).
func (c *Client) Result(hash string) ([]byte, error) {
	return c.get("/result/" + hash)
}

// Series fetches a run's per-second telemetry by content address
// (GET /series/<hash>). Runs without a series block return ErrUnknownHash,
// exactly as the server reports them.
func (c *Client) Series(hash string) ([]byte, error) {
	return c.get("/series/" + hash)
}

// TraceEvents fetches a cached run's controller event log
// (GET /trace/events/<hash>), trimmed to the last n events when n > 0.
func (c *Client) TraceEvents(hash string, n int) ([]byte, error) {
	path := "/trace/events/" + hash
	if n > 0 {
		path += "?n=" + strconv.Itoa(n)
	}
	return c.get(path)
}

// Trace fetches a retained request trace's canonical body (GET /trace/<id>).
func (c *Client) Trace(id string) ([]byte, error) {
	return c.get("/trace/" + id)
}

// Snapshot fetches the wrapped warm snapshot for a prefix hash
// (GET /snapshot/<prefix>), read up to the same cap the daemon puts on an
// installed one.
func (c *Client) Snapshot(prefix string) ([]byte, error) {
	return c.do(context.TODO(), http.MethodGet, "/snapshot/"+prefix, "", nil, maxSnapshotBytes)
}

// InstallSnapshot ships a wrapped warm snapshot to the daemon
// (POST /snapshot/<prefix>), which validates it before importing.
func (c *Client) InstallSnapshot(prefix string, data []byte) error {
	_, err := c.do(context.TODO(), http.MethodPost, "/snapshot/"+prefix, "application/octet-stream", data, maxClientResponseBytes)
	return err
}

// SeriesStream opens the run's live SSE stream (GET /series/<hash>/stream)
// and hands the caller the raw body to scan. The request is bound to ctx,
// so cancelling it tears the stream down, and ctx's trace is forwarded.
// The stream outlives any sensible request timeout, so it uses a copy of
// the caller's client with only the overall timeout cleared — transport,
// redirect policy, and cookie jar all survive the clone.
func (c *Client) SeriesStream(ctx context.Context, hash string) (io.ReadCloser, error) {
	sc := *c.hc
	sc.Timeout = 0
	resp, err := c.send(ctx, &sc, http.MethodGet, "/series/"+hash+"/stream", "", nil)
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

// Stats fetches the daemon's counters; a coordinator answers with its
// fleet sum.
func (c *Client) Stats() (Stats, error) {
	data, err := c.get("/stats")
	if err != nil {
		return Stats{}, err
	}
	var st Stats
	if err := json.Unmarshal(data, &st); err != nil {
		return Stats{}, fmt.Errorf("service: client: decode stats: %w", err)
	}
	return st, nil
}

// Healthz probes liveness; a draining or dead daemon returns an error.
func (c *Client) Healthz() error {
	_, err := c.get("/healthz")
	return err
}

// Issue sends one pre-rendered request and drains the response without
// decoding or retaining it — the load-generator hot path, where only the
// outcome matters and per-request JSON decoding would bill client CPU to
// the server under test. Non-2xx answers go through ErrFromStatus exactly
// like the typed methods, so callers classify failures identically.
func (c *Client) Issue(method, path string, body []byte) error {
	resp, err := c.send(context.TODO(), c.hc, method, path, jsonType, body)
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
// shared by /run and /extend, keeping the body itself as the Envelope so a
// coordinator forwards it byte for byte.
func (c *Client) postResult(ctx context.Context, path string, body []byte) (Result, error) {
	data, err := c.do(ctx, http.MethodPost, path, jsonType, body, maxClientResponseBytes)
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
	return Result{Hash: wr.Hash, Cached: wr.Cached, Report: wr.Report, Envelope: data}, nil
}

// maxClientResponseBytes bounds one response read; a /run report is a few
// KB, so the cap only guards against a misbehaving peer.
const maxClientResponseBytes = 16 << 20

const jsonType = "application/json"

// ErrTooLarge is returned for an answer longer than the client reads. It is
// never truncated into a success: a content-addressed answer that is too
// large from one daemon is too large from every daemon.
var ErrTooLarge = errors.New("service: client: response too large")

func (c *Client) get(path string) ([]byte, error) {
	return c.do(context.TODO(), http.MethodGet, path, "", nil, maxClientResponseBytes)
}

// do sends one request and returns the 200 answer's body, read whole up to
// limit bytes.
func (c *Client) do(ctx context.Context, method, path, ctype string, body []byte, limit int) ([]byte, error) {
	resp, err := c.send(ctx, c.hc, method, path, ctype, body)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, int64(limit)+1))
	if err != nil {
		return nil, fmt.Errorf("service: client: reading %s response: %w", path, err)
	}
	if len(data) > limit {
		return nil, fmt.Errorf("%w: %s answer exceeds %d bytes", ErrTooLarge, path, limit)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, ErrFromStatus(resp.StatusCode, data)
	}
	return data, nil
}

// send issues one request over hc; a non-nil body goes out as ctype, and
// the trace ctx carries, if any, in the X-A4-Trace header.
func (c *Client) send(ctx context.Context, hc *http.Client, method, path, ctype string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", ctype)
	}
	if tr := obs.TraceFrom(ctx); tr != nil {
		req.Header.Set(obs.TraceHeader, tr.ID())
	}
	return hc.Do(req)
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
