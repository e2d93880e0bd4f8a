package scenario

import (
	"bytes"
	"runtime"
	"testing"

	"a4sim/internal/harness"
)

// snapMixSpec is forkMixSpec with the full telemetry plane enabled, so the
// open measurement window's series rides the snapshot under test.
func snapMixSpec(t *testing.T, mix string) *Spec {
	t.Helper()
	sp := forkMixSpec(t, mix)
	sp.Series = &SeriesSpec{}
	return sp
}

// startSkeleton builds the fresh, just-started scenario DecodeSnapshot
// restores onto — the receiving side of a disk rehydration or a cluster
// snapshot handoff.
func startSkeleton(t *testing.T, sp *Spec) *harness.Scenario {
	t.Helper()
	s, err := sp.Clone().Start()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// runSnapRoundTripAt executes sp but, at second boundary k, snapshots the
// simulation, encodes the snapshot to bytes, decodes those bytes onto a
// fresh skeleton, abandons the original, and finishes on a fork of the
// decoded snapshot, returning the encoded report.
func runSnapRoundTripAt(t *testing.T, sp *Spec, k int) []byte {
	t.Helper()
	run := sp.Clone()
	if err := run.Normalize(); err != nil {
		t.Fatal(err)
	}
	hash, err := run.Hash()
	if err != nil {
		t.Fatal(err)
	}
	s, err := run.Start()
	if err != nil {
		t.Fatal(err)
	}
	warm, meas := int(run.WarmupSec), int(run.MeasureSec)
	inMeasure := k > warm
	if inMeasure {
		s.Warm(float64(warm))
		s.BeginMeasure()
		s.Measure(float64(k - warm))
	} else {
		s.Warm(float64(k))
	}
	data, err := s.Snapshot().Encode()
	if err != nil {
		t.Fatal(err)
	}
	sn, err := harness.DecodeSnapshot(data, startSkeleton(t, sp))
	if err != nil {
		t.Fatal(err)
	}
	f := sn.Fork()
	if inMeasure {
		f.Measure(float64(warm + meas - k))
	} else {
		f.Warm(float64(warm - k))
		f.BeginMeasure()
		f.Measure(float64(meas))
	}
	rep := FromResult(run, hash, f.EndMeasure())
	out, err := rep.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSnapshotCodecMatchesFreshRun is the durability property of the PR:
// for every builtin mix, a snapshot taken mid-warm-up or mid-measurement
// (open telemetry window included) survives an encode/decode round trip —
// continuing on the decoded copy renders a Report, series and all,
// byte-identical to the uninterrupted fresh run. This is what licenses the
// service to spill warm state to disk and the cluster to ship it between
// backends.
func TestSnapshotCodecMatchesFreshRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every builtin mix several times")
	}
	for _, mix := range BuiltinMixes() {
		mix := mix
		t.Run(mix, func(t *testing.T) {
			t.Parallel()
			sp := snapMixSpec(t, mix)
			rep, err := sp.Run()
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := rep.Encode()
			if err != nil {
				t.Fatal(err)
			}
			warm := int(sp.WarmupSec)
			for _, k := range []int{1, warm + 1} {
				if got := runSnapRoundTripAt(t, sp, k); !bytes.Equal(got, fresh) {
					t.Errorf("snapshot round trip at t=%ds diverged from fresh run\nfresh: %s\ngot:   %s", k, fresh, got)
				}
			}
		})
	}
}

// TestSnapshotReencodeIdentical pins the codec as a fixpoint: for every
// builtin mix, a snapshot taken inside the measurement window decodes
// onto a fresh skeleton and re-encodes to exactly the bytes it came from.
// The v3 stream drops the cache arrays' derived counters and empty slots,
// so this is what proves the decoder rebuilds everything the encoder left
// out.
func TestSnapshotReencodeIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates every builtin mix")
	}
	for _, mix := range BuiltinMixes() {
		mix := mix
		t.Run(mix, func(t *testing.T) {
			t.Parallel()
			sp := snapMixSpec(t, mix)
			s := startSkeleton(t, sp)
			s.Warm(sp.WarmupSec)
			s.BeginMeasure()
			s.Measure(1)
			data, err := s.Snapshot().Encode()
			if err != nil {
				t.Fatal(err)
			}
			sn, err := harness.DecodeSnapshot(data, startSkeleton(t, sp))
			if err != nil {
				t.Fatal(err)
			}
			// DecodeSnapshot keeps the bytes it validated, so encode the
			// restored state again through a fork.
			again, err := sn.Fork().Snapshot().Encode()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, data) {
				t.Fatalf("re-encoded snapshot differs: %d bytes vs %d", len(again), len(data))
			}
		})
	}
}

// TestDecodeSnapshotRejectsMismatch pins the decoder's validation: a
// snapshot restores only onto a scenario with the same structure, the same
// encoding version, and an intact byte stream. Everything else errors
// cleanly — never panics, never yields a half-restored scenario the caller
// could run.
func TestDecodeSnapshotRejectsMismatch(t *testing.T) {
	sp := snapMixSpec(t, "tiny")
	s := startSkeleton(t, sp)
	s.Warm(1)
	data, err := s.Snapshot().Encode()
	if err != nil {
		t.Fatal(err)
	}

	// Sanity: intact bytes onto a matching skeleton decode fine.
	if _, err := harness.DecodeSnapshot(append([]byte(nil), data...), startSkeleton(t, sp)); err != nil {
		t.Fatalf("intact snapshot failed to decode: %v", err)
	}

	// Structurally different scenario.
	other := snapMixSpec(t, "micro")
	if _, err := harness.DecodeSnapshot(append([]byte(nil), data...), startSkeleton(t, other)); err == nil {
		t.Error("decoding onto a different mix's scenario must fail")
	}

	// Not a snapshot at all.
	if _, err := harness.DecodeSnapshot([]byte("not a snapshot, just bytes"), startSkeleton(t, sp)); err == nil {
		t.Error("garbage bytes must fail to decode")
	}

	// Unknown version.
	bumped := append([]byte(nil), data...)
	bumped[4]++
	if _, err := harness.DecodeSnapshot(bumped, startSkeleton(t, sp)); err == nil {
		t.Error("unknown snapshot version must fail to decode")
	}

	// Truncations anywhere in the stream error instead of panicking. Cover
	// every cut in the header region and samples throughout the body.
	cuts := []int{0, 1, 2, 3}
	for n := 4; n < len(data); n += 1 + len(data)/97 {
		cuts = append(cuts, n)
	}
	for _, n := range cuts {
		if _, err := harness.DecodeSnapshot(data[:n], startSkeleton(t, sp)); err == nil {
			t.Errorf("truncation to %d bytes must fail to decode", n)
		}
	}

	// Trailing junk is rejected, not ignored.
	padded := append(append([]byte(nil), data...), 0xA4)
	if _, err := harness.DecodeSnapshot(padded, startSkeleton(t, sp)); err == nil {
		t.Error("trailing bytes must fail to decode")
	}
}

// TestSnapshotEncodeAllocation pins the encoder's allocation: state is
// encoded into a reused scratch buffer and copied out at exactly its
// length, so once the buffer is primed a tiny-mix snapshot allocates less
// than twice the bytes it holds, and holds no spare capacity.
func TestSnapshotEncodeAllocation(t *testing.T) {
	sp := snapMixSpec(t, "tiny")
	s := startSkeleton(t, sp)
	s.Warm(1)
	s.BeginMeasure()
	s.Measure(1)
	s.Snapshot() // primes the scratch buffer

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sn := s.Snapshot()
	runtime.ReadMemStats(&after)
	data, err := sn.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if cap(data) != len(data) {
		t.Errorf("snapshot holds %d bytes of capacity for %d bytes of state", cap(data), len(data))
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("encoded %d bytes, allocated %d", len(data), alloc)
	if alloc >= 2*uint64(len(data)) {
		t.Errorf("encoding %d bytes allocated %d bytes (%.2fx), want under 2x",
			len(data), alloc, float64(alloc)/float64(len(data)))
	}
}
