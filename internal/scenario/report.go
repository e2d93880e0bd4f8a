package scenario

import (
	"encoding/json"
	"fmt"
	"strings"

	"a4sim/internal/harness"
)

// Report is the deterministic, serializable view of one measurement window:
// the spec's identity plus the window's harness.Result, whose fields encode
// after manager. Result sorts workloads and ports by name, so encoding a
// Report is a pure function of the simulation outcome: same spec hash, same
// bytes. A series appears only when the spec carried a series block;
// without one, the encoding is byte-identical to the pre-telemetry format.
type Report struct {
	Spec    string `json:"spec,omitempty"` // spec name
	Hash    string `json:"hash"`           // spec content address
	Manager string `json:"manager"`
	harness.Result
}

// FromResult labels a harness result with its spec's identity. Callers pass
// a normalized spec, so Manager is already canonical.
func FromResult(sp *Spec, hash string, res *harness.Result) *Report {
	return &Report{Spec: sp.Name, Hash: hash, Manager: sp.Manager, Result: *res}
}

// Encode returns the report's canonical JSON bytes. Go's encoder emits
// struct fields in declared order and shortest-round-trip floats, so equal
// reports encode to equal bytes.
func (r *Report) Encode() ([]byte, error) {
	return json.Marshal(r)
}

// DecodeReport parses bytes produced by Encode.
func DecodeReport(data []byte) (*Report, error) {
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("scenario: decode report: %w", err)
	}
	return &r, nil
}

// String renders a human-readable table, for CLI consumers of cached
// reports.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario %s  manager=%s  window=%.0fs  hash=%.12s\n",
		r.Spec, r.Manager, r.Seconds, r.Hash)
	fmt.Fprintf(&b, "%-11s %8s %8s %8s %10s %10s %10s\n",
		"workload", "llcHit", "ipc", "io GB/s", "avgLat us", "p99 us", "prog/s")
	for _, w := range r.Workloads {
		fmt.Fprintf(&b, "%-11s %8.3f %8.3f %8.2f %10.1f %10.1f %10.0f\n",
			w.Name, w.LLCHitRate, w.IPC, w.IOReadGBps, w.AvgLatUs, w.P99LatUs, w.ProgressRate)
	}
	fmt.Fprintf(&b, "memory rd=%.2f wr=%.2f GB/s\n", r.MemReadGBps, r.MemWriteGBps)
	return b.String()
}
