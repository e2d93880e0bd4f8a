package scenario

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"a4sim/internal/harness"
)

// occupancyDigests are the SHA-256s of two golden specs'
// wl.<name>.llc_lines columns with the occupancy series group selected
// (see occupancyColumnsDigest). No report carries these columns, so this
// pin is what holds the LLC's per-owner line counts to their values.
var occupancyDigests = map[string]string{
	"tiny-default-s7": "12973b912bd3f61edb72ec22b0ed04c0a729fdceac10f4596517433ec18eaa5c",
	"tiny-a4d":        "99f389fa82c110101594985e35705d90170eed188dfd6b2e5d3a46272a30b6a5",
}

// occupancyColumnsDigest hashes every llc_lines column of series, in column
// order: the column name, then each row's float64 bits, little-endian.
func occupancyColumnsDigest(t *testing.T, s *harness.Scenario) string {
	t.Helper()
	ser := s.Monitor.Series()
	h := sha256.New()
	cols := 0
	for _, name := range ser.Names() {
		if !strings.HasSuffix(name, ".llc_lines") {
			continue
		}
		cols++
		h.Write([]byte(name))
		nonzero := false
		for _, v := range ser.Column(name) {
			h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
			nonzero = nonzero || v != 0
		}
		if !nonzero {
			t.Errorf("%s is zero in every row; the pin needs resident lines", name)
		}
	}
	if cols == 0 || ser.Len() == 0 {
		t.Fatalf("series has %d llc_lines columns and %d rows", cols, ser.Len())
	}
	return hex.EncodeToString(h.Sum(nil))
}

// occupancySpec is a golden spec with the occupancy series group selected.
func occupancySpec(t *testing.T, name string) *Spec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "golden", name+".spec.json"))
	if err != nil {
		t.Fatal(err)
	}
	sp, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	sp.Series = &SeriesSpec{Metrics: []string{"occupancy"}}
	return sp
}

// TestOccupancySeriesPin pins the occupancy series group's values, fresh
// and through a Fork at every second boundary: each path must give the
// same columns, and those columns the committed digest.
func TestOccupancySeriesPin(t *testing.T) {
	for name, want := range occupancyDigests {
		t.Run(name, func(t *testing.T) {
			sp := occupancySpec(t, name)
			s, err := sp.Start()
			if err != nil {
				t.Fatal(err)
			}
			s.Run(sp.WarmupSec, sp.MeasureSec)
			if got := occupancyColumnsDigest(t, s); got != want {
				t.Errorf("fresh run: occupancy columns digest %s, want %s", got, want)
			}
			for k := 1; k < int(sp.WarmupSec+sp.MeasureSec); k++ {
				f, _ := forkedAt(t, sp.Clone(), k)
				if got := occupancyColumnsDigest(t, f); got != want {
					t.Errorf("fork at t=%ds: occupancy columns digest %s, want %s", k, got, want)
				}
			}
		})
	}
}
