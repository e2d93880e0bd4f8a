package obs

import (
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"time"

	"a4sim/internal/stats"
)

// Expo writes the Prometheus text exposition format (version 0.0.4) by
// hand — no client library, matching the repo's no-new-deps rule. Families
// are written in call order; a scrape's layout is therefore a pure
// function of the metric sources, which keeps /metrics diffable in tests.
type Expo struct {
	w io.Writer
}

// NewExpo wraps w for exposition.
func NewExpo(w io.Writer) *Expo { return &Expo{w: w} }

// Label renders one escaped k="v" label pair.
func Label(k, v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return k + `="` + r.Replace(v) + `"`
}

// JoinLabels combines label pairs, skipping empties.
func JoinLabels(pairs ...string) string {
	var nonEmpty []string
	for _, p := range pairs {
		if p != "" {
			nonEmpty = append(nonEmpty, p)
		}
	}
	return strings.Join(nonEmpty, ",")
}

// Family writes a family's # TYPE header (typ is "counter", "gauge", or
// "histogram").
func (e *Expo) Family(name, typ string) {
	fmt.Fprintf(e.w, "# TYPE %s %s\n", name, typ)
}

// Val writes one sample line; labels is a pre-rendered pair list ("" for
// none).
func (e *Expo) Val(name, labels string, v float64) {
	if labels != "" {
		name += "{" + labels + "}"
	}
	fmt.Fprintf(e.w, "%s %s\n", name, strconv.FormatFloat(v, 'g', -1, 64))
}

// Hist writes one histogram family with a single label set: the TYPE
// header, cumulative _bucket lines at the histogram's power-of-two
// boundaries, then _sum and _count. scale divides recorded units into
// seconds (1e6 for microsecond-recorded histograms), per the Prometheus
// convention that duration histograms expose seconds.
func (e *Expo) Hist(name, labels string, h *stats.Histogram, scale float64) {
	e.Family(name, "histogram")
	e.HistVals(name, labels, h, scale)
}

// HistVals writes one label set's _bucket/_sum/_count lines without the
// TYPE header, for families exposed across several label sets.
func (e *Expo) HistVals(name, labels string, h *stats.Histogram, scale float64) {
	bounds, cum := h.Cumulative()
	for i, b := range bounds {
		le := Label("le", strconv.FormatFloat(float64(b)/scale, 'g', -1, 64))
		e.Val(name+"_bucket", JoinLabels(labels, le), float64(cum[i]))
	}
	e.Val(name+"_bucket", JoinLabels(labels, `le="+Inf"`), float64(h.Count()))
	e.Val(name+"_sum", labels, float64(h.Sum())/scale)
	e.Val(name+"_count", labels, float64(h.Count()))
}

// Stats writes one family per field of the struct type T, in field order,
// with one sample per row labeled by the matching entry of labels ("" for
// none). A field declares its family in a `prom:"name,type"` tag beside its
// json tag, so one struct is the whole declaration of a value in both
// /stats and /metrics. Fields without the tag are skipped; tagged fields
// are integers.
func Stats[T any](e *Expo, labels []string, rows []T) {
	t := reflect.TypeFor[T]()
	for i := 0; i < t.NumField(); i++ {
		name, typ, ok := strings.Cut(t.Field(i).Tag.Get("prom"), ",")
		if !ok {
			continue
		}
		e.Family(name, typ)
		for j, row := range rows {
			f := reflect.ValueOf(row).Field(i)
			if f.CanInt() {
				e.Val(name, labels[j], float64(f.Int()))
			} else {
				e.Val(name, labels[j], float64(f.Uint()))
			}
		}
	}
}

// AddStats adds each integer field of src into dst's, the fleet sum of a
// counter struct.
func AddStats[T any](dst *T, src T) {
	d, s := reflect.ValueOf(dst).Elem(), reflect.ValueOf(src)
	for i := 0; i < d.NumField(); i++ {
		switch f := d.Field(i); {
		case f.CanInt():
			f.SetInt(f.Int() + s.Field(i).Int())
		case f.CanUint():
			f.SetUint(f.Uint() + s.Field(i).Uint())
		}
	}
}

// HTTPMetrics records per-endpoint request durations and exposes them as
// one labeled family. Timed resolves an endpoint's histogram once at
// mux-build time, so the per-request record is one SyncHistogram Observe —
// no registry lock, no map probe. Endpoints registered but never hit are
// left out of the scrape.
type HTTPMetrics struct {
	mu    sync.Mutex
	order []string
	hists map[string]*stats.SyncHistogram
}

// NewHTTPMetrics returns an empty recorder.
func NewHTTPMetrics() *HTTPMetrics {
	return &HTTPMetrics{hists: make(map[string]*stats.SyncHistogram)}
}

// handle returns endpoint's histogram, registering it on first use.
func (m *HTTPMetrics) handle(endpoint string) *stats.SyncHistogram {
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.hists[endpoint]
	if !ok {
		h = new(stats.SyncHistogram)
		m.hists[endpoint] = h
		m.order = append(m.order, endpoint)
	}
	return h
}

// WriteProm writes the a4_http_request_duration_seconds family, one label
// set per hit endpoint in registration order.
func (m *HTTPMetrics) WriteProm(w io.Writer) {
	m.mu.Lock()
	order := append([]string(nil), m.order...)
	snaps := make(map[string]*stats.Histogram, len(m.hists))
	for ep, h := range m.hists {
		snaps[ep] = h.Snapshot()
	}
	m.mu.Unlock()
	var e *Expo
	const name = "a4_http_request_duration_seconds"
	for _, ep := range order {
		h := snaps[ep]
		if h.Count() == 0 {
			continue // registered by Timed but never hit: keep it out of the scrape
		}
		if e == nil {
			e = NewExpo(w)
			e.Family(name, "histogram")
		}
		e.HistVals(name, Label("endpoint", ep), h, 1e6)
	}
}

// Timed wraps an HTTP handler to record its duration under endpoint. The
// histogram is resolved here, once, not per request.
func (m *HTTPMetrics) Timed(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	hist := m.handle(endpoint)
	return func(w http.ResponseWriter, req *http.Request) {
		start := time.Now()
		h(w, req)
		hist.Observe(time.Since(start).Microseconds())
	}
}
