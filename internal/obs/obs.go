// Package obs is the request-lifecycle observability plane: per-request
// traces built from typed spans around the serving path's seams
// (queue_wait, warm, measure, store_read, …), a bounded ring the HTTP
// layer serves them from, a hub of per-run series row logs that live
// subscribers read at their own pace, and a hand-rolled Prometheus text
// exposition for /metrics. Everything here is deliberately cheap and
// nil-safe: an untraced request pays a single nil check per seam, and no
// body ever carries a wall-clock timestamp — spans are offsets and
// durations, so trace bodies are deterministic modulo scheduling.
package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"
)

// TraceHeader carries a trace ID across HTTP hops. A coordinator forwards
// its request's ID to the owning backend, so the backend's spans join the
// same trace; the mux mints a fresh ID when the header is absent.
const TraceHeader = "X-A4-Trace"

// NewID returns a fresh 16-hex-character trace ID.
func NewID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is a broken platform; a process-unique
		// fallback keeps tracing alive rather than panicking the mux.
		return fmt.Sprintf("%016x", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

// ValidID reports whether s is usable as a trace ID arriving from a peer:
// short and shell-safe, so junk header values never become ring keys or
// response bytes.
func ValidID(s string) bool {
	if len(s) == 0 || len(s) > 64 {
		return false
	}
	for _, c := range s {
		switch {
		case c >= '0' && c <= '9', c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '-', c == '_':
		default:
			return false
		}
	}
	return true
}

// Span is one timed segment of a request's life. Start and duration are
// microsecond offsets from the trace's (unserialized) start instant —
// durations only, no wall-clock — so two runs of the same request produce
// structurally identical bodies. Backend, when set, names the node the
// segment ran on (the coordinator annotates its hops; a merged trace
// labels remote spans with their origin).
type Span struct {
	Name    string `json:"name"`
	Backend string `json:"backend,omitempty"`
	StartUs int64  `json:"start_us"`
	DurUs   int64  `json:"dur_us"`
}

// Trace accumulates the spans of one request. All methods are safe for
// concurrent use (the mux goroutine and the worker executing the job both
// record into it) and nil-safe, so untraced code paths pass nil and pay
// nothing.
type Trace struct {
	id    string
	start time.Time

	mu    sync.Mutex
	spans []Span
}

// traceKey is the context key WithTrace stores a request's trace under.
type traceKey struct{}

// WithTrace returns ctx carrying tr, the one way a request's trace travels
// from the HTTP mux through a Runner to the backend hop. A nil tr returns
// ctx unchanged, so the untraced path allocates nothing.
func WithTrace(ctx context.Context, tr *Trace) context.Context {
	if tr == nil {
		return ctx
	}
	return context.WithValue(ctx, traceKey{}, tr)
}

// TraceFrom returns the trace ctx carries, or nil (itself a valid, no-op
// trace) when it carries none.
func TraceFrom(ctx context.Context) *Trace {
	tr, _ := ctx.Value(traceKey{}).(*Trace)
	return tr
}

// NewTrace starts an empty trace anchored at now.
func NewTrace(id string) *Trace {
	return &Trace{id: id, start: time.Now()}
}

// ID returns the trace's ID ("" for a nil trace).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// SpanHandle is an open span; End closes and records it.
type SpanHandle struct {
	t       *Trace
	name    string
	backend string
	start   time.Duration
}

// Begin opens a span. Safe on a nil trace: the returned handle's methods
// are all no-ops, which is what keeps the untraced path free.
func (t *Trace) Begin(name string) *SpanHandle {
	if t == nil {
		return nil
	}
	return &SpanHandle{t: t, name: name, start: time.Since(t.start)}
}

// Annotate labels the open span with the backend it targets, returning the
// handle for chaining.
func (h *SpanHandle) Annotate(backend string) *SpanHandle {
	if h != nil {
		h.backend = backend
	}
	return h
}

// End closes the span and records it on the trace.
func (h *SpanHandle) End() {
	if h == nil {
		return
	}
	end := time.Since(h.t.start)
	h.t.add(Span{
		Name:    h.name,
		Backend: h.backend,
		StartUs: h.start.Microseconds(),
		DurUs:   (end - h.start).Microseconds(),
	})
}

// Mark records an instantaneous (zero-duration) span — an event on the
// request timeline, like a reroute decision or a cache hit.
func (t *Trace) Mark(name, backend string) {
	if t == nil {
		return
	}
	t.add(Span{Name: name, Backend: backend, StartUs: time.Since(t.start).Microseconds()})
}

// Add records an already-built span — how a coordinator merges spans
// fetched from a backend into its own trace view.
func (t *Trace) Add(sp Span) {
	if t == nil {
		return
	}
	t.add(sp)
}

func (t *Trace) add(sp Span) {
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
}

// Len returns the number of recorded spans.
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Snapshot returns the recorded spans ordered by start offset (stably, so
// a parent span that opened before its children sorts first). The slice is
// a copy.
func (t *Trace) Snapshot() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]Span(nil), t.spans...)
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].StartUs < out[j].StartUs })
	return out
}

// JSON returns the trace's canonical body.
func (t *Trace) JSON() []byte {
	return EncodeTrace(t.ID(), t.Snapshot())
}

// wireTrace is the canonical trace body: the ID and the spans in start
// order.
type wireTrace struct {
	ID    string `json:"id"`
	Spans []Span `json:"spans"`
}

// EncodeTrace builds the canonical trace body for an ID and span set.
func EncodeTrace(id string, spans []Span) []byte {
	if spans == nil {
		spans = []Span{}
	}
	data, err := json.Marshal(wireTrace{ID: id, Spans: spans})
	if err != nil {
		// Span fields are strings and ints; Marshal cannot fail.
		panic(err)
	}
	return data
}

// DecodeTrace parses a body produced by EncodeTrace.
func DecodeTrace(data []byte) (id string, spans []Span, err error) {
	var w wireTrace
	if err := json.Unmarshal(data, &w); err != nil {
		return "", nil, fmt.Errorf("obs: decode trace: %w", err)
	}
	return w.ID, w.Spans, nil
}

// Ring keeps the last N traces by ID: a bounded map + circular buffer under
// one short-hold mutex, so recording a finished request is O(1) and the
// serving path never blocks on a reader.
type Ring struct {
	mu      sync.Mutex
	buf     []*Trace
	idx     map[string]*Trace
	next    int
	count   int
	dropped int64
}

// NewRing returns a ring retaining up to capacity traces (default 256).
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		capacity = 256
	}
	return &Ring{buf: make([]*Trace, capacity), idx: make(map[string]*Trace, capacity)}
}

// Add records a finished trace, evicting the oldest when full. A re-added
// ID points the index at the newest trace.
func (r *Ring) Add(t *Trace) {
	if t == nil {
		return
	}
	r.mu.Lock()
	if old := r.buf[r.next]; old != nil {
		if r.idx[old.id] == old {
			delete(r.idx, old.id)
		}
		r.dropped++
	} else {
		r.count++
	}
	r.buf[r.next] = t
	r.idx[t.id] = t
	r.next = (r.next + 1) % len(r.buf)
	r.mu.Unlock()
}

// Get returns the trace stored under id.
func (r *Ring) Get(id string) (*Trace, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.idx[id]
	return t, ok
}

// Recent returns up to n retained traces, newest first.
func (r *Ring) Recent(n int) []*Trace {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n > r.count {
		n = r.count
	}
	out := make([]*Trace, 0, n)
	for i := 1; i <= n; i++ {
		pos := r.next - i
		if pos < 0 {
			pos += len(r.buf)
		}
		out = append(out, r.buf[pos])
	}
	return out
}

// Len returns the number of retained traces.
func (r *Ring) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.count
}

// Dropped returns the number of traces evicted by capacity.
func (r *Ring) Dropped() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}
