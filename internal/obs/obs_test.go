package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"a4sim/internal/stats"
)

// TestTraceSpanNestingAndOrdering: a parent span opened before its children
// sorts first (stable by start offset), offsets never run backwards, and a
// child's extent nests inside its parent's.
func TestTraceSpanNestingAndOrdering(t *testing.T) {
	tr := NewTrace("t1")
	outer := tr.Begin("queue_wait")
	time.Sleep(2 * time.Millisecond)
	inner := tr.Begin("measure").Annotate("n1")
	time.Sleep(2 * time.Millisecond)
	inner.End()
	outer.End()
	tr.Mark("cache_hit", "")

	spans := tr.Snapshot()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	if spans[0].Name != "queue_wait" || spans[1].Name != "measure" || spans[2].Name != "cache_hit" {
		t.Fatalf("order %v", spans)
	}
	for i := 1; i < len(spans); i++ {
		if spans[i].StartUs < spans[i-1].StartUs {
			t.Fatalf("starts run backwards: %v", spans)
		}
	}
	parent, child := spans[0], spans[1]
	if child.StartUs < parent.StartUs || child.StartUs+child.DurUs > parent.StartUs+parent.DurUs {
		t.Errorf("child [%d,%d] not nested in parent [%d,%d]",
			child.StartUs, child.StartUs+child.DurUs, parent.StartUs, parent.StartUs+parent.DurUs)
	}
	if child.Backend != "n1" {
		t.Errorf("Annotate lost: %+v", child)
	}
	if spans[2].DurUs != 0 {
		t.Errorf("Mark should be zero-duration: %+v", spans[2])
	}
}

// TestTraceNilSafe: every method on a nil trace (and nil span handle) is a
// no-op — the contract that keeps the untraced path free.
func TestTraceNilSafe(t *testing.T) {
	var tr *Trace
	if tr.ID() != "" || tr.Len() != 0 || tr.Snapshot() != nil {
		t.Error("nil trace should read as empty")
	}
	h := tr.Begin("x")
	h.Annotate("y").End() // must not panic
	tr.Mark("m", "")
	tr.Add(Span{Name: "s"})
}

// TestTraceContext: a context carries the trace it was given, an untraced
// one yields nil, and WithTrace of nil leaves the context as it was.
func TestTraceContext(t *testing.T) {
	ctx := context.Background()
	if TraceFrom(ctx) != nil {
		t.Error("empty context yielded a trace")
	}
	if WithTrace(ctx, nil) != ctx {
		t.Error("WithTrace(nil) wrapped the context")
	}
	tr := NewTrace("ctx-trace")
	if got := TraceFrom(WithTrace(ctx, tr)); got != tr {
		t.Errorf("TraceFrom = %v, want the stored trace", got)
	}
}

// TestTraceConcurrent records from many goroutines at once; run under -race
// this is the span-plane thread-safety check.
func TestTraceConcurrent(t *testing.T) {
	tr := NewTrace("conc")
	const workers, each = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				sp := tr.Begin(fmt.Sprintf("w%d", w))
				tr.Mark("mark", "")
				sp.End()
			}
		}(w)
	}
	wg.Wait()
	if got := tr.Len(); got != workers*each*2 {
		t.Errorf("Len = %d, want %d", got, workers*each*2)
	}
	_ = tr.JSON()
}

// TestEncodeDecodeTraceRoundTrip: canonical body → decode → re-encode is
// the identity, and an empty trace encodes spans as [] (not null).
func TestEncodeDecodeTraceRoundTrip(t *testing.T) {
	spans := []Span{
		{Name: "queue_wait", StartUs: 0, DurUs: 10},
		{Name: "backend_call", Backend: "http://n1", StartUs: 5, DurUs: 100},
	}
	body := EncodeTrace("abc", spans)
	id, back, err := DecodeTrace(body)
	if err != nil {
		t.Fatal(err)
	}
	if id != "abc" || len(back) != 2 || back[1] != spans[1] {
		t.Fatalf("round trip: id=%q spans=%v", id, back)
	}
	if !bytes.Equal(EncodeTrace(id, back), body) {
		t.Error("re-encode differs")
	}
	if got := string(EncodeTrace("e", nil)); !strings.Contains(got, `"spans":[]`) {
		t.Errorf("empty trace encodes %s", got)
	}
}

func TestValidID(t *testing.T) {
	for id, want := range map[string]bool{
		"":                      false,
		"abc-DEF_123":           true,
		NewID():                 true,
		"has space":             false,
		"semi;colon":            false,
		strings.Repeat("a", 64): true,
		strings.Repeat("a", 65): false,
	} {
		if ValidID(id) != want {
			t.Errorf("ValidID(%q) = %v, want %v", id, !want, want)
		}
	}
}

// TestRingEviction: the ring keeps the newest N, counts evictions, and
// serves Recent newest-first.
func TestRingEviction(t *testing.T) {
	r := NewRing(3)
	ids := []string{"a", "b", "c", "d", "e"}
	for _, id := range ids {
		r.Add(NewTrace(id))
	}
	if r.Len() != 3 || r.Dropped() != 2 {
		t.Fatalf("len=%d dropped=%d, want 3/2", r.Len(), r.Dropped())
	}
	if _, ok := r.Get("a"); ok {
		t.Error("evicted trace still indexed")
	}
	if tr, ok := r.Get("e"); !ok || tr.ID() != "e" {
		t.Error("newest trace not retrievable")
	}
	recent := r.Recent(10)
	if len(recent) != 3 || recent[0].ID() != "e" || recent[2].ID() != "c" {
		got := make([]string, len(recent))
		for i, tr := range recent {
			got[i] = tr.ID()
		}
		t.Errorf("Recent = %v, want [e d c]", got)
	}
}

func seriesWithRows(n int) *stats.Series {
	s := stats.NewSeries("x", "y")
	for i := 0; i < n; i++ {
		s.Append(float64(i), float64(i*2))
	}
	return s
}

// TestHubReplayAndLive: a subscriber attaching mid-run replays the already
// published rows, then follows live ones, and the terminal message carries
// the final bytes.
func TestHubReplayAndLive(t *testing.T) {
	h := NewSeriesHub()
	pub := h.Open("run1")
	ser := seriesWithRows(3)
	pub.Publish(ser)

	sub, ok := h.Attach("run1")
	if !ok {
		t.Fatal("attach to live run failed")
	}
	defer sub.Close()
	if len(sub.Names) != 2 || len(sub.Replay) != 3 {
		t.Fatalf("replay: names=%v rows=%d, want 2 names 3 rows", sub.Names, len(sub.Replay))
	}
	if sub.Replay[2][1] != 4 {
		t.Errorf("replay row values %v", sub.Replay[2])
	}

	// Two more rows and the end; catch-up publishing delivers both rows in
	// one call.
	ser.Append(3, 6)
	ser.Append(4, 8)
	pub.Publish(ser)
	final := []byte(`{"stored":"series"}`)
	pub.Finish(final)

	var rows int
	for msg := range sub.C {
		switch {
		case msg.Row != nil:
			rows++
		case msg.End:
			if string(msg.Final) != string(final) {
				t.Errorf("final = %s", msg.Final)
			}
		}
	}
	if rows != 2 {
		t.Errorf("live rows = %d, want 2", rows)
	}
	if h.Live("run1") {
		t.Error("run still live after Finish")
	}
	if _, ok := h.Attach("run1"); ok {
		t.Error("attach after Finish should miss (stored series serves instead)")
	}
}

// TestHubAbortAndMisc: an aborted run delivers a terminal error; attaching
// to an unknown key misses; a 0-column publish does not re-announce names
// forever.
func TestHubAbortAndMisc(t *testing.T) {
	h := NewSeriesHub()
	if _, ok := h.Attach("nope"); ok {
		t.Fatal("attach to unknown key")
	}
	pub := h.Open("run2")
	sub, _ := h.Attach("run2")
	pub.Abort("execution failed")
	msg, open := <-sub.C
	if !open || !msg.End || msg.Err != "execution failed" {
		t.Errorf("abort message %+v open=%v", msg, open)
	}
	if _, open := <-sub.C; open {
		t.Error("channel should close after terminal message")
	}
}

// TestHubDropsStalledSubscriber: a subscriber that never drains overflows
// its buffer and is dropped — channel closed with no terminal message.
func TestHubDropsStalledSubscriber(t *testing.T) {
	h := NewSeriesHub()
	pub := h.Open("run3")
	sub, _ := h.Attach("run3")
	ser := stats.NewSeries("v")
	// names message + subBuffer rows fill the channel; one more drops us.
	for i := 0; i < subBuffer+1; i++ {
		ser.Append(float64(i))
	}
	pub.Publish(ser)
	sawTerminal := false
	n := 0
	for msg := range sub.C {
		if msg.End {
			sawTerminal = true
		}
		n++
	}
	if sawTerminal {
		t.Error("dropped subscriber should not get a terminal message")
	}
	if n > subBuffer {
		t.Errorf("drained %d messages from a %d buffer", n, subBuffer)
	}
	sub.Close() // after-drop Close must be safe
}

// TestHTTPMetricsExposition: observations land in per-endpoint histograms
// and WriteProm emits the bucket/sum/count families with endpoint labels.
func TestHTTPMetricsExposition(t *testing.T) {
	m := NewHTTPMetrics()
	m.handle("run").Observe(5000) // µs, as Timed records
	m.handle("run").Observe(10000)
	m.handle("series").Observe(1000)
	if q := m.handle("run").Snapshot().Quantile(1.0); q < 8000 || q > 10240 {
		t.Errorf("p100 = %g µs, want ~10000", q)
	}
	var buf bytes.Buffer
	m.WriteProm(&buf)
	out := buf.String()
	for _, want := range []string{
		"# TYPE a4_http_request_duration_seconds histogram",
		`a4_http_request_duration_seconds_bucket{endpoint="run",le="`,
		`a4_http_request_duration_seconds_count{endpoint="run"} 2`,
		`a4_http_request_duration_seconds_count{endpoint="series"} 1`,
		`le="+Inf"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}

	// The Timed wrapper records through to the same histogram.
	srv := httptest.NewServer(m.Timed("wrapped", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()
	if _, err := http.Get(srv.URL); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	m.WriteProm(&buf)
	if !strings.Contains(buf.String(), `endpoint="wrapped"`) {
		t.Error("Timed did not record")
	}
}

// TestExpoEscaping: label values with quotes, backslashes, and newlines are
// escaped per the text exposition format.
func TestExpoEscaping(t *testing.T) {
	got := Label("backend", "http://x\"y\\z\n")
	want := `backend="http://x\"y\\z\n"`
	if got != want {
		t.Errorf("Label = %s, want %s", got, want)
	}
	var buf bytes.Buffer
	e := NewExpo(&buf)
	e.Family("f_total", "counter")
	e.Val("f_total", JoinLabels(Label("a", "1"), Label("b", "2")), 3)
	if s := buf.String(); !strings.Contains(s, `f_total{a="1",b="2"} 3`) {
		t.Errorf("exposition %q", s)
	}
}

// TestHistogramSSEJSONShape pins the canonical span JSON the HTTP layer
// serves: no wall-clock fields, offsets and durations only.
func TestSpanJSONShape(t *testing.T) {
	tr := NewTrace("shape")
	tr.Begin("warm").End()
	var body struct {
		ID    string           `json:"id"`
		Spans []map[string]any `json:"spans"`
	}
	if err := json.Unmarshal(tr.JSON(), &body); err != nil {
		t.Fatal(err)
	}
	if body.ID != "shape" || len(body.Spans) != 1 {
		t.Fatalf("body %+v", body)
	}
	for k := range body.Spans[0] {
		switch k {
		case "name", "backend", "start_us", "dur_us":
		default:
			t.Errorf("unexpected span field %q (wall-clock leak?)", k)
		}
	}
}

// TestStatsWalkers: Stats writes one family per tagged field in field
// order, one sample per row; AddStats sums every integer field.
func TestStatsWalkers(t *testing.T) {
	type counters struct {
		Hits  uint64 `json:"hits" prom:"x_hits_total,counter"`
		Depth int    `json:"depth" prom:"x_depth,gauge"`
		Debt  int64  `json:"debt"`
	}
	sum := counters{Hits: 1, Depth: 2, Debt: -3}
	AddStats(&sum, counters{Hits: 4, Depth: 5, Debt: 6})
	if want := (counters{Hits: 5, Depth: 7, Debt: 3}); sum != want {
		t.Errorf("AddStats = %+v, want %+v", sum, want)
	}
	var buf bytes.Buffer
	Stats(NewExpo(&buf), []string{"", Label("backend", "b")}, []counters{sum, {Hits: 9}})
	want := `# TYPE x_hits_total counter
x_hits_total 5
x_hits_total{backend="b"} 9
# TYPE x_depth gauge
x_depth 7
x_depth{backend="b"} 0
`
	if buf.String() != want {
		t.Errorf("Stats wrote:\n%s\nwant:\n%s", buf.String(), want)
	}
}
