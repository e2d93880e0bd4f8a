package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"a4sim/internal/obs"
	"a4sim/internal/stats"
)

// obsServer serves a fresh service over the full HTTP mux.
func obsServer(t *testing.T) (*Service, *httptest.Server) {
	t.Helper()
	svc := New(Config{Workers: 2, CacheEntries: 32})
	t.Cleanup(svc.Close)
	srv := httptest.NewServer(NewMux(svc, func() any { return svc.Stats() }, nil))
	t.Cleanup(srv.Close)
	return svc, srv
}

// sseEvent is one parsed Server-Sent Event.
type sseEvent struct {
	name string
	data []byte
}

// readSSE parses an event stream to completion.
func readSSE(t *testing.T, r io.Reader) []sseEvent {
	t.Helper()
	var events []sseEvent
	var name string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			events = append(events, sseEvent{name: name, data: []byte(strings.TrimPrefix(line, "data: "))})
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading SSE: %v", err)
	}
	return events
}

// checkStreamAgainstStored verifies the core streaming contract on one SSE
// event list: the rows reconstruct the stored series exactly and the
// terminal series event is byte-identical to GET /series/<hash>.
func checkStreamAgainstStored(t *testing.T, events []sseEvent, stored []byte) {
	t.Helper()
	if len(events) == 0 {
		t.Fatal("empty stream")
	}
	ser, err := stats.DecodeSeries(stored)
	if err != nil {
		t.Fatal(err)
	}
	var hello struct {
		Hz      int      `json:"hz"`
		Columns []string `json:"columns"`
	}
	if events[0].name != "hello" {
		t.Fatalf("first event %q, want hello", events[0].name)
	}
	if err := json.Unmarshal(events[0].data, &hello); err != nil {
		t.Fatal(err)
	}
	if hello.Hz != 1 {
		t.Errorf("hz = %d, want 1", hello.Hz)
	}
	wantNames := ser.Names()
	if strings.Join(hello.Columns, ",") != strings.Join(wantNames, ",") {
		t.Errorf("columns %v, want %v", hello.Columns, wantNames)
	}
	rows := 0
	var scratch []float64
	for _, ev := range events[1 : len(events)-1] {
		if ev.name != "row" {
			t.Fatalf("mid-stream event %q, want row", ev.name)
		}
		var r struct {
			I      int       `json:"i"`
			Values []float64 `json:"values"`
		}
		if err := json.Unmarshal(ev.data, &r); err != nil {
			t.Fatal(err)
		}
		if r.I != rows {
			t.Fatalf("row index %d, want %d", r.I, rows)
		}
		scratch = ser.Row(rows, scratch)
		for c, v := range r.Values {
			if v != scratch[c] {
				t.Fatalf("row %d col %d streamed %v, stored %v", rows, c, v, scratch[c])
			}
		}
		rows++
	}
	if rows != ser.Len() {
		t.Errorf("streamed %d rows, stored series has %d", rows, ser.Len())
	}
	last := events[len(events)-1]
	if last.name != "series" {
		t.Fatalf("terminal event %q, want series", last.name)
	}
	if !bytes.Equal(last.data, stored) {
		t.Errorf("terminal series bytes differ from stored:\n%s\n%s", last.data, stored)
	}
}

// TestStreamLiveAttachMatchesStored is the streaming acceptance pin: a
// subscriber attaching while the run executes receives rows and a terminal
// series byte-identical to what GET /series serves afterwards.
func TestStreamLiveAttachMatchesStored(t *testing.T) {
	_, srv := obsServer(t)
	sp := seriesSpec(91, 4)
	body, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	_, hash, _, err := sp.Digest()
	if err != nil {
		t.Fatal(err)
	}

	runDone := make(chan error, 1)
	go func() {
		resp, err := http.Post(srv.URL+"/run", "application/json", bytes.NewReader(body))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("POST /run: status %d", resp.StatusCode)
			}
		}
		runDone <- err
	}()

	// Attach as soon as the stream answers: while the run executes this is
	// the live path; if execution already won the race we replay the stored
	// series through the same event shapes. Both must satisfy the contract.
	var events []sseEvent
	for {
		resp, err := http.Get(srv.URL + "/series/" + hash + "/stream")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusNotFound {
			// Raced ahead of the job being opened; try again.
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			continue
		}
		if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
			t.Fatalf("Content-Type %q", ct)
		}
		events = readSSE(t, resp.Body)
		resp.Body.Close()
		break
	}
	if err := <-runDone; err != nil {
		t.Fatal(err)
	}

	stored, err := fetchOK(srv.URL + "/series/" + hash)
	if err != nil {
		t.Fatal(err)
	}
	checkStreamAgainstStored(t, events, stored)

	// A second attach now replays the stored series — same contract, same
	// bytes.
	resp, err := http.Get(srv.URL + "/series/" + hash + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	replay := readSSE(t, resp.Body)
	resp.Body.Close()
	checkStreamAgainstStored(t, replay, stored)
}

// TestStreamQueuedAttachReadsFromRowZero: a subscriber attaching to an
// accepted series run that still waits for an execution slot gets the live
// stream, not a 404, and reads it from row 0 to the stored series. Holding
// the only slot makes this the live-attach path every time.
func TestStreamQueuedAttachReadsFromRowZero(t *testing.T) {
	svc := New(Config{Workers: 1})
	t.Cleanup(svc.Close)
	srv := httptest.NewServer(NewMux(svc, func() any { return svc.Stats() }, nil))
	t.Cleanup(srv.Close)

	sp := seriesSpec(93, 1)
	_, hash, _, err := sp.Digest()
	if err != nil {
		t.Fatal(err)
	}
	svc.slots <- struct{}{}
	runDone := make(chan error, 1)
	go func() {
		_, err := svc.Submit(context.Background(), sp)
		runDone <- err
	}()
	for svc.Stats().Queued != 1 {
		time.Sleep(time.Millisecond)
	}

	resp, err := http.Get(srv.URL + "/series/" + hash + "/stream")
	if err != nil {
		<-svc.slots
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		<-svc.slots
		t.Fatalf("stream of a queued run: status %d, want 200", resp.StatusCode)
	}
	<-svc.slots // release the slot; the queued run executes
	events := readSSE(t, resp.Body)
	if err := <-runDone; err != nil {
		t.Fatal(err)
	}
	stored, err := fetchOK(srv.URL + "/series/" + hash)
	if err != nil {
		t.Fatal(err)
	}
	checkStreamAgainstStored(t, events, stored)
}

func fetchOK(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = io.ErrUnexpectedEOF
	}
	return data, err
}

// TestStreamUnknownHash404s mirrors the plain series endpoint, envelope
// included: the body names the status and the hash.
func TestStreamUnknownHash404s(t *testing.T) {
	_, srv := obsServer(t)
	resp, err := http.Get(srv.URL + "/series/deadbeef/stream")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status %d, want 404", resp.StatusCode)
	}
	var eb ErrorBody
	if err := json.Unmarshal(body, &eb); err != nil || eb.Status != http.StatusNotFound || eb.Hash != "deadbeef" || eb.Error == "" {
		t.Errorf("envelope %s (err %v), want status 404 and hash deadbeef", body, err)
	}
}

// TestTraceCoversLifecycle: a traced /run serves back a trace whose spans
// cover the request's seams, and a caller-supplied X-A4-Trace ID is joined
// rather than replaced.
func TestTraceCoversLifecycle(t *testing.T) {
	_, srv := obsServer(t)
	body, _ := json.Marshal(testSpec(71))
	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/run", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.TraceHeader, "caller-chosen-id-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get(obs.TraceHeader); got != "caller-chosen-id-1" {
		t.Fatalf("trace header %q, want caller's ID echoed", got)
	}

	data, err := fetchOK(srv.URL + "/trace/caller-chosen-id-1")
	if err != nil {
		t.Fatal(err)
	}
	id, spans, err := obs.DecodeTrace(data)
	if err != nil {
		t.Fatal(err)
	}
	if id != "caller-chosen-id-1" {
		t.Errorf("trace id %q", id)
	}
	names := map[string]bool{}
	for _, sp := range spans {
		names[sp.Name] = true
	}
	for _, want := range []string{"queue_wait", "warm", "measure", "snapshot_deposit"} {
		if !names[want] {
			t.Errorf("trace missing %s span: %v", want, spans)
		}
	}

	// The cached re-submission marks a cache hit under a fresh trace.
	req2, _ := http.NewRequest(http.MethodPost, srv.URL+"/run", bytes.NewReader(body))
	req2.Header.Set("Content-Type", "application/json")
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	id2 := resp2.Header.Get(obs.TraceHeader)
	if id2 == "" || id2 == "caller-chosen-id-1" {
		t.Fatalf("second request should mint a fresh ID, got %q", id2)
	}
	data2, err := fetchOK(srv.URL + "/trace/" + id2)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data2), `"cache_hit"`) {
		t.Errorf("cached request's trace lacks cache_hit: %s", data2)
	}

	// Both appear in the recent listing, newest first.
	listing, err := fetchOK(srv.URL + "/traces?n=4")
	if err != nil {
		t.Fatal(err)
	}
	var recent struct {
		Traces []json.RawMessage `json:"traces"`
	}
	if err := json.Unmarshal(listing, &recent); err != nil {
		t.Fatal(err)
	}
	if len(recent.Traces) != 2 {
		t.Fatalf("traces listing has %d entries, want 2", len(recent.Traces))
	}
	if gotID, _, _ := obs.DecodeTrace(recent.Traces[0]); gotID != id2 {
		t.Errorf("newest trace %q, want %q", gotID, id2)
	}
}

// TestMetricsExposition: /metrics serves the stats counters, the queue-wait
// histogram, and the mux's own per-endpoint request histograms in
// Prometheus text format.
func TestMetricsExposition(t *testing.T) {
	_, srv := obsServer(t)
	body, _ := json.Marshal(testSpec(72))
	resp, err := http.Post(srv.URL+"/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if ct := mresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type %q", ct)
	}
	data, _ := io.ReadAll(mresp.Body)
	out := string(data)
	for _, want := range []string{
		"# TYPE a4_executions_total counter",
		"a4_executions_total 1",
		"a4_misses_total 1",
		"# TYPE a4_queue_wait_seconds histogram",
		`a4_queue_wait_seconds_bucket{le="`,
		"a4_queue_wait_seconds_count 1",
		`a4_http_request_duration_seconds_count{endpoint="run"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q in:\n%s", want, out)
		}
	}
}

// TestTraceEventsServedPerRun: the controller event log of a cached run is
// served by content address; unknown hashes 404.
func TestTraceEventsServedPerRun(t *testing.T) {
	svc, srv := obsServer(t)
	// A window long enough for the controller to make decisions. The log
	// covers the whole run from its first second, also when the run forked
	// a warm snapshot (TestTraceEventsForkedMatchesFresh).
	sp := testSpec(73)
	sp.MeasureSec = 8
	res, err := svc.Submit(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	data, err := fetchOK(srv.URL + "/trace/events/" + res.Hash)
	if err != nil {
		t.Fatal(err)
	}
	var log struct {
		Events []string `json:"events"`
	}
	if err := json.Unmarshal(data, &log); err != nil {
		t.Fatalf("event log not JSON: %v in %s", err, data)
	}
	if len(log.Events) == 0 {
		t.Error("a4-d run recorded no controller events")
	}
	for _, e := range log.Events {
		if !strings.HasPrefix(e, "t=") {
			t.Errorf("event %q lacks its t=<s>s stamp", e)
		}
	}

	// A run without a controller has an empty log, not a missing one.
	plain := testSpec(74)
	plain.Manager = "default"
	pres, err := svc.Submit(context.Background(), plain)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := fetchOK(srv.URL + "/trace/events/" + pres.Hash); err != nil || string(got) != `{"events":[]}` {
		t.Errorf("controller-less run served %q (err %v), want an empty list", got, err)
	}

	// ?n= tails the log.
	tail, err := fetchOK(srv.URL + "/trace/events/" + res.Hash + "?n=1")
	if err != nil {
		t.Fatal(err)
	}
	var tailLog struct {
		Events []json.RawMessage `json:"events"`
	}
	if err := json.Unmarshal(tail, &tailLog); err != nil {
		t.Fatal(err)
	}
	if len(tailLog.Events) != 1 {
		t.Errorf("?n=1 served %d events", len(tailLog.Events))
	}

	resp, err := http.Get(srv.URL + "/trace/events/0000000000000000")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown hash: status %d, want 404", resp.StatusCode)
	}
}

// TestTraceEventsForkedMatchesFresh: the event log is part of the run's
// content, so a run forked from a shorter run's warm snapshot serves the
// same /trace/events bytes as the same spec executed from scratch.
func TestTraceEventsForkedMatchesFresh(t *testing.T) {
	events := func(svc *Service, measures ...float64) []byte {
		t.Helper()
		var hash string
		for _, m := range measures {
			sp := testSpec(73)
			sp.MeasureSec = m
			res, err := svc.Submit(context.Background(), sp)
			if err != nil {
				t.Fatal(err)
			}
			hash = res.Hash
		}
		data, ok := svc.TraceEvents(hash, 0)
		if !ok {
			t.Fatalf("no event log for %s", hash)
		}
		return data
	}
	forkSvc := New(Config{Workers: 1})
	defer forkSvc.Close()
	forked := events(forkSvc, 2, 8)
	if forkSvc.Stats().SnapshotForks != 1 {
		t.Fatal("the measure-8 run did not fork the measure-2 snapshot")
	}
	freshSvc := New(Config{Workers: 1})
	defer freshSvc.Close()
	if fresh := events(freshSvc, 8); !bytes.Equal(forked, fresh) {
		t.Errorf("forked run's event log differs from a fresh run's\nforked: %s\nfresh:  %s", forked, fresh)
	}
}
