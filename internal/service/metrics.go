package service

import (
	"io"

	"a4sim/internal/obs"
)

// WriteMetrics writes the local service's Prometheus families: one per
// Stats field, then the queue-wait histogram. The mux appends its trace
// ring and per-endpoint request histograms.
func (s *Service) WriteMetrics(w io.Writer) {
	e := obs.NewExpo(w)
	obs.Stats(e, []string{""}, []Stats{s.Stats()})
	e.Hist("a4_queue_wait_seconds", "", s.queueWait.Snapshot(), 1e6)
}
