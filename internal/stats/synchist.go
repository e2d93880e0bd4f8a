package stats

import "sync"

// SyncHistogram is a Histogram safe for concurrent use, for the serving
// path's latency records (per-endpoint request durations, queue wait).
// Observe and Snapshot each take its one mutex; the zero value is empty and
// ready to use.
type SyncHistogram struct {
	mu sync.Mutex
	h  Histogram
}

// Observe records one value.
func (s *SyncHistogram) Observe(v int64) {
	s.mu.Lock()
	s.h.Observe(v)
	s.mu.Unlock()
}

// Snapshot returns a copy of everything recorded so far.
func (s *SyncHistogram) Snapshot() *Histogram {
	out := NewHistogram()
	s.mu.Lock()
	out.Merge(&s.h)
	s.mu.Unlock()
	return out
}
