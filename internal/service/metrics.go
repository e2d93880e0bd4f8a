package service

import (
	"io"

	"a4sim/internal/obs"
)

// Prometheus exposition of the service counters. The family table is
// shared with the cluster coordinator, which exposes the same families
// twice: fleet-summed without labels (so single-node dashboards work
// unchanged against a coordinator) and per-backend with a backend label.

// StatFamily describes one Stats field as a Prometheus family.
type StatFamily struct {
	Name string
	Type string // "counter" or "gauge"
	Get  func(Stats) float64
}

// StatFamilies enumerates the exposition of every Stats field, in a fixed
// order so scrapes are deterministic.
func StatFamilies() []StatFamily {
	return []StatFamily{
		{"a4_hits_total", "counter", func(s Stats) float64 { return float64(s.Hits) }},
		{"a4_misses_total", "counter", func(s Stats) float64 { return float64(s.Misses) }},
		{"a4_dedups_total", "counter", func(s Stats) float64 { return float64(s.Dedups) }},
		{"a4_executions_total", "counter", func(s Stats) float64 { return float64(s.Executions) }},
		{"a4_errors_total", "counter", func(s Stats) float64 { return float64(s.Errors) }},
		{"a4_cache_entries", "gauge", func(s Stats) float64 { return float64(s.Entries) }},
		{"a4_workers", "gauge", func(s Stats) float64 { return float64(s.Workers) }},
		{"a4_queued", "gauge", func(s Stats) float64 { return float64(s.Queued) }},
		{"a4_snapshot_forks_total", "counter", func(s Stats) float64 { return float64(s.SnapshotForks) }},
		{"a4_snapshot_entries", "gauge", func(s Stats) float64 { return float64(s.SnapshotEntries) }},
		{"a4_store_hits_total", "counter", func(s Stats) float64 { return float64(s.StoreHits) }},
		{"a4_store_objects", "gauge", func(s Stats) float64 { return float64(s.StoreObjects) }},
		{"a4_store_quarantined_total", "counter", func(s Stats) float64 { return float64(s.StoreQuarantined) }},
	}
}

// LabeledStats is one label set's view of the counters for exposition.
type LabeledStats struct {
	Labels string // pre-rendered label pairs; "" for the unlabeled row
	Stats  Stats
}

// WriteStatsProm writes every stat family, each with one sample line per
// row.
func WriteStatsProm(w io.Writer, rows []LabeledStats) {
	e := obs.NewExpo(w)
	for _, f := range StatFamilies() {
		e.Family(f.Name, f.Type)
		for _, row := range rows {
			e.Val(f.Name, row.Labels, f.Get(row.Stats))
		}
	}
}

// WriteMetrics writes the local service's Prometheus families:
// every /stats counter, the queue-wait histogram, and the trace ring's
// occupancy. The mux appends its own per-endpoint request histograms.
func (s *Service) WriteMetrics(w io.Writer) {
	WriteStatsProm(w, []LabeledStats{{Stats: s.Stats()}})
	qw := s.queueWait.Snapshot()
	e := obs.NewExpo(w)
	e.Hist("a4_queue_wait_seconds", "", qw, 1e6)
	e.Family("a4_traces", "gauge")
	e.Val("a4_traces", "", float64(s.traces.Len()))
	e.Family("a4_trace_ring_dropped_total", "counter")
	e.Val("a4_trace_ring_dropped_total", "", float64(s.traces.Dropped()))
}
