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

// TestHubReplayAndLive: a subscriber attaching mid-run reads the already
// published rows, then follows live ones, and the outcome carries the final
// bytes.
func TestHubReplayAndLive(t *testing.T) {
	h := NewSeriesHub()
	log := h.Open("run1")
	ser := seriesWithRows(3)
	log.Publish(ser)

	sub, ok := h.Attach("run1")
	if !ok {
		t.Fatal("attach to live run failed")
	}
	names, rows, end, wake := sub.Read(0)
	if len(names) != 2 || len(rows) != 3 || end != nil {
		t.Fatalf("replay: names=%v rows=%d end=%v, want 2 names 3 rows", names, len(rows), end)
	}
	if rows[2][1] != 4 {
		t.Errorf("replay row values %v", rows[2])
	}

	// Two more rows and the end; catch-up publishing delivers both rows in
	// one call.
	ser.Append(3, 6)
	ser.Append(4, 8)
	log.Publish(ser)
	final := []byte(`{"stored":"series"}`)
	h.Close("run1", log, final, "")

	<-wake
	_, rows, end, _ = sub.Read(3)
	if len(rows) != 2 {
		t.Errorf("live rows = %d, want 2", len(rows))
	}
	if end == nil || string(end.Final) != string(final) || end.Err != "" {
		t.Errorf("end = %+v, want final %s", end, final)
	}
	if _, ok := h.Attach("run1"); ok {
		t.Error("attach after Close should miss (stored series serves instead)")
	}
}

// TestHubAbortAndMisc: an aborted run ends with an error; attaching to an
// unknown key misses; a stored series reads back as an ended log.
func TestHubAbortAndMisc(t *testing.T) {
	h := NewSeriesHub()
	if _, ok := h.Attach("nope"); ok {
		t.Fatal("attach to unknown key")
	}
	log := h.Open("run2")
	sub, _ := h.Attach("run2")
	_, _, _, wake := sub.Read(0)
	h.Close("run2", log, nil, "execution failed")
	<-wake
	names, rows, end, _ := sub.Read(0)
	if names != nil || rows != nil || end == nil || end.Err != "execution failed" {
		t.Errorf("abort: names=%v rows=%v end=%+v", names, rows, end)
	}
	log.Publish(seriesWithRows(1))
	if _, rows, _, _ := sub.Read(0); rows != nil {
		t.Error("publish after Close appended rows")
	}

	stored, err := seriesWithRows(2).Encode()
	if err != nil {
		t.Fatal(err)
	}
	sl, err := StoredSeries(stored)
	if err != nil {
		t.Fatal(err)
	}
	names, rows, end, _ = sl.Read(1)
	if len(names) != 2 || len(rows) != 1 || rows[0][1] != 2 || end == nil || string(end.Final) != string(stored) {
		t.Errorf("stored: names=%v rows=%v end=%+v", names, rows, end)
	}
	if _, err := StoredSeries([]byte("{")); err == nil {
		t.Error("corrupt stored series decoded")
	}
}

// TestHubStalledReaderResumes: a reader that reads nothing while more rows
// publish than any fixed buffer would hold is not dropped; afterwards it
// reads every row, in order, and the outcome.
func TestHubStalledReaderResumes(t *testing.T) {
	const n = 5000
	h := NewSeriesHub()
	log := h.Open("run3")
	sub, _ := h.Attach("run3")
	ser := stats.NewSeries("v")
	for i := 0; i < n; i++ {
		ser.Append(float64(i))
		log.Publish(ser)
	}
	h.Close("run3", log, []byte("final"), "")
	_, rows, end, _ := sub.Read(0)
	if len(rows) != n {
		t.Fatalf("read %d rows, want %d", len(rows), n)
	}
	for i, r := range rows {
		if r[0] != float64(i) {
			t.Fatalf("row %d = %v", i, r)
		}
	}
	if end == nil || string(end.Final) != "final" {
		t.Errorf("end = %+v", end)
	}
}

// TestHubConcurrentReaders: readers following a log from several
// goroutines while it publishes each see every row once, in order, then
// the outcome.
func TestHubConcurrentReaders(t *testing.T) {
	const n, readers = 200, 4
	h := NewSeriesHub()
	log := h.Open("run4")
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		sub, _ := h.Attach("run4")
		wg.Add(1)
		go func() {
			defer wg.Done()
			next := 0
			for {
				_, rows, end, wake := sub.Read(next)
				for _, row := range rows {
					if row[0] != float64(next) {
						t.Errorf("row %d = %v", next, row)
						return
					}
					next++
				}
				if end != nil {
					if next != n {
						t.Errorf("read %d rows, want %d", next, n)
					}
					return
				}
				<-wake
			}
		}()
	}
	ser := stats.NewSeries("v")
	for i := 0; i < n; i++ {
		ser.Append(float64(i))
		log.Publish(ser)
	}
	h.Close("run4", log, nil, "")
	wg.Wait()
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
