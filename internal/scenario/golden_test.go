package scenario

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGoldenReports pins the measurement path across the telemetry-plane
// refactor: the specs under testdata/golden were executed by the
// pre-series accumulator code and their canonical report bytes committed.
// Re-running them must reproduce those bytes exactly — aggregates reduced
// from per-second series are bit-identical to the incremental sums they
// replaced (including the fractional-window case, where progress and
// latency cover seconds that never reached a series row), and a spec
// without a series block canonicalizes, hashes, and reports exactly as it
// did before the field existed. Each golden report also decodes and
// re-encodes to its own bytes.
func TestGoldenReports(t *testing.T) {
	specs, err := filepath.Glob(filepath.Join("testdata", "golden", "*.spec.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) == 0 {
		t.Fatal("no golden specs found")
	}
	for _, specPath := range specs {
		name := strings.TrimSuffix(filepath.Base(specPath), ".spec.json")
		t.Run(name, func(t *testing.T) {
			data, err := os.ReadFile(specPath)
			if err != nil {
				t.Fatal(err)
			}
			sp, err := Parse(data)
			if err != nil {
				t.Fatal(err)
			}
			canon, err := sp.Canonical()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(canon, data) {
				t.Errorf("canonical spec encoding changed:\n got %s\nwant %s", canon, data)
			}
			rep, err := sp.Run()
			if err != nil {
				t.Fatal(err)
			}
			got, err := rep.Encode()
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			want, err := os.ReadFile(strings.TrimSuffix(specPath, ".spec.json") + ".report.json")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("report bytes diverged from pre-refactor golden\n got: %s\nwant: %s", got, want)
			}
			// The wire form round-trips: a stored report decodes and
			// re-encodes to its exact bytes.
			dec, err := DecodeReport(want)
			if err != nil {
				t.Fatal(err)
			}
			again, err := dec.Encode()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(append(again, '\n'), want) {
				t.Errorf("golden report does not round-trip\n got: %s\nwant: %s", again, want)
			}
		})
	}
}
