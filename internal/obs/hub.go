package obs

import (
	"sync"

	"a4sim/internal/stats"
)

// SeriesHub maps the content hash of each series run in flight to its row
// log. The service opens a run's log at admission, before the run waits for
// an execution slot, so any subscriber that finds the run reads it from
// row 0; the executing worker publishes into the log (one call per
// simulated second, from the monitor's row hook) and closes it when the run
// ends. The hub's lock and each log's lock are leaves: neither is held
// while taking another lock or writing to a subscriber.
type SeriesHub struct {
	mu   sync.Mutex
	runs map[string]*SeriesLog
}

// SeriesLog is one run's append-only series: every subscriber reads it at
// its own pace from any row index, so the publisher does O(1) work per row
// however many subscribers there are, and a stalled subscriber resumes
// where it stopped. A log keeps every row for the run's lifetime, which the
// window cap (MaxWindowSec rows) bounds, so late attachers see exactly the
// rows early ones did and the streamed rows match the stored series bit for
// bit.
type SeriesLog struct {
	mu   sync.Mutex
	rows *stats.Series // nil until the first Publish names the columns
	end  *SeriesEnd    // nil while the run executes
	wake chan struct{} // closed, and replaced, on every change
}

// SeriesEnd is an ended log's outcome: Final holds the stored series'
// canonical bytes (the byte-identity anchor for GET /series), or Err says
// why the run failed.
type SeriesEnd struct {
	Final []byte
	Err   string
}

// NewSeriesHub returns an empty hub.
func NewSeriesHub() *SeriesHub {
	return &SeriesHub{runs: make(map[string]*SeriesLog)}
}

func newSeriesLog() *SeriesLog { return &SeriesLog{wake: make(chan struct{})} }

// Open registers a run about to execute and returns its log. A key already
// open (a racing duplicate execution — impossible through the service's
// singleflight, but the hub does not depend on that) returns the existing
// log.
func (h *SeriesHub) Open(key string) *SeriesLog {
	h.mu.Lock()
	defer h.mu.Unlock()
	l, ok := h.runs[key]
	if !ok {
		l = newSeriesLog()
		h.runs[key] = l
	}
	return l
}

// Attach returns the log of a run in flight. It returns false when no run
// is open under key — the caller then serves the stored series instead.
func (h *SeriesHub) Attach(key string) (*SeriesLog, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	l, ok := h.runs[key]
	return l, ok
}

// Close ends l, the log Open returned for key, with the stored series'
// bytes final, or with errMsg when it is not empty. The run leaves the hub
// before its log ends, so a concurrent Attach either gets the log (and
// reads the outcome) or misses and reads the stored series, which the
// service stores before it closes the log.
func (h *SeriesHub) Close(key string, l *SeriesLog, final []byte, errMsg string) {
	h.mu.Lock()
	if h.runs[key] == l {
		delete(h.runs, key)
	}
	h.mu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.finish(&SeriesEnd{Final: final, Err: errMsg})
}

// StoredSeries returns an ended log holding a finished run's stored series,
// so a stored replay goes through the same reader as a live run.
func StoredSeries(final []byte) (*SeriesLog, error) {
	ser, err := stats.DecodeSeries(final)
	if err != nil {
		return nil, err
	}
	l := newSeriesLog()
	l.rows = ser
	l.finish(&SeriesEnd{Final: final})
	return l, nil
}

// finish ends the log once and wakes every reader. Called with l.mu held
// (or before l is shared).
func (l *SeriesLog) finish(end *SeriesEnd) {
	if l.end == nil {
		l.end = end
		close(l.wake)
	}
}

// Publish appends every series row beyond those already in the log.
// Catch-up semantics (rather than "append one row") make the fork path
// free: a run continued from a warm snapshot publishes its inherited
// prefix rows with one call, then per-second rows as they append. The
// rows are copied; s is not retained.
func (l *SeriesLog) Publish(s *stats.Series) {
	if s == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.end != nil || (l.rows != nil && l.rows.Len() >= s.Len()) {
		return
	}
	if l.rows == nil {
		l.rows = stats.NewSeries(s.Names()...)
	}
	var row []float64
	for i := l.rows.Len(); i < s.Len(); i++ {
		row = s.Row(i, row)
		l.rows.Append(row...)
	}
	close(l.wake)
	l.wake = make(chan struct{})
}

// Read returns the log's column names (nil until the first row is
// published), copies of its rows from index i on, its outcome (nil while
// the run executes) and a channel closed at the log's next change.
func (l *SeriesLog) Read(i int) (names []string, rows [][]float64, end *SeriesEnd, wake <-chan struct{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.rows != nil {
		names = l.rows.Names()
		for ; i < l.rows.Len(); i++ {
			rows = append(rows, l.rows.Row(i, nil))
		}
	}
	return names, rows, l.end, l.wake
}
