package service

import (
	"fmt"
	"math"

	"a4sim/internal/codec"
	"a4sim/internal/harness"
	"a4sim/internal/scenario"
	"a4sim/internal/store"
)

// The disk plane: glue between the in-memory caches and the durable
// content-addressed store. Reports, specs, and series are true
// content-addressed objects under the run's hash; warm snapshots are keyed
// objects under the prefix hash, wrapped with the measured seconds and the
// canonical spec that rebuilds their structural skeleton. Everything read
// back is verified (the store re-hashes payloads; snapshots additionally
// re-validate structure during decode), and every failure degrades to
// re-execution — the disk accelerates restarts and handoffs, it is never
// trusted over the simulator.

// diskResult serves hash from the durable store, repopulating the LRU so
// subsequent retrievals stay in memory. Objects are small and reads are
// verified-and-done; this path only runs after a memory miss that would
// otherwise cost a multi-second execution. Safe to call with fmu held (the
// cache put nests fmu -> cache.mu, the one permitted nesting).
func (s *Service) diskResult(hash string) (Result, bool) {
	data, ok := s.disk.Get(store.KindReport, hash)
	if !ok {
		return Result{}, false
	}
	spec, _ := s.disk.Get(store.KindSpec, hash)
	series, _ := s.disk.Get(store.KindSeries, hash)
	s.ctr.storeHits.Add(1)
	e := s.cache.put(hash, data, spec, series, nil)
	return Result{Hash: hash, Cached: true, Report: data, Envelope: e.hitBody}, true
}

// snapWrap is the on-disk and on-wire framing of a warm snapshot: how many
// measured seconds it holds, the canonical spec that rebuilds its
// structural skeleton, and the encoded harness state. One format serves
// both the store's snap objects and the cluster's handoff bodies.
const (
	snapWrapMagic   = "A4SW"
	snapWrapVersion = 1
)

// encodeSnapWrap frames snap's encoding with its measured seconds and
// spec. The snapshot is already encoded; framing is one copy.
func encodeSnapWrap(measured float64, spec []byte, snap *harness.Snapshot) ([]byte, error) {
	data, err := snap.Encode()
	if err != nil {
		return nil, err
	}
	w := &codec.Writer{}
	w.Raw([]byte(snapWrapMagic))
	w.U32(snapWrapVersion)
	w.F64(measured)
	w.Blob(spec)
	w.Blob(data)
	return w.Bytes(), nil
}

func decodeSnapWrap(data []byte) (measured float64, spec, snap []byte, err error) {
	r := codec.NewReader(data)
	if string(r.Raw(len(snapWrapMagic))) != snapWrapMagic {
		return 0, nil, nil, fmt.Errorf("service: not a wrapped snapshot (bad magic)")
	}
	if v := r.U32(); r.Err() == nil && v != snapWrapVersion {
		return 0, nil, nil, fmt.Errorf("service: wrapped snapshot version %d, want %d", v, snapWrapVersion)
	}
	measured = r.F64()
	spec = r.Blob()
	snap = r.Blob()
	if err := r.Err(); err != nil {
		return 0, nil, nil, err
	}
	if n := r.Remaining(); n != 0 {
		return 0, nil, nil, fmt.Errorf("service: wrapped snapshot has %d trailing bytes", n)
	}
	return measured, spec, snap, nil
}

// depositSnap stores a warm snapshot in the memory cache and, when that
// actually advanced the prefix's state, mirrors it to the durable store. A
// snapshot is its encoded bytes, so memory and the store hold one encoding
// and the store write only frames it.
// The disk write is best-effort and ordered after the memory decision;
// concurrent advances can at worst leave disk one step behind memory, which
// costs re-simulation after a restart, never a wrong result.
func (s *Service) depositSnap(prefix string, snap *harness.Snapshot, measured float64, spec []byte) {
	if s.snaps == nil {
		return
	}
	advanced := s.snaps.put(prefix, snap, measured, spec)
	if !advanced || s.disk == nil {
		return
	}
	data, err := encodeSnapWrap(measured, spec, snap)
	if err != nil {
		return
	}
	s.disk.Replace(store.KindSnap, prefix, data)
}

// diskSnapshot rehydrates the warm snapshot stored under prefix: unwrap,
// rebuild the structural skeleton from the wrapped spec, and decode the
// state onto it. Any failure reports a miss and the caller re-executes.
func (s *Service) diskSnapshot(prefix string) (*harness.Snapshot, float64, []byte, bool) {
	data, ok := s.disk.Get(store.KindSnap, prefix)
	if !ok {
		return nil, 0, nil, false
	}
	snap, measured, spec, err := decodeWrappedSnapshot(prefix, data)
	if err != nil {
		return nil, 0, nil, false
	}
	return snap, measured, spec, true
}

// decodeWrappedSnapshot validates and decodes one wrapped snapshot against
// its claimed prefix: the wrapped spec must actually hash to that prefix
// (so a misfiled or maliciously shipped snapshot cannot impersonate another
// scenario), the measured window must be a whole positive second (the
// snapshot-eligibility invariant), and the harness decode re-validates
// structure byte by byte.
func decodeWrappedSnapshot(prefix string, data []byte) (*harness.Snapshot, float64, []byte, error) {
	measured, specBytes, snapBytes, err := decodeSnapWrap(data)
	if err != nil {
		return nil, 0, nil, err
	}
	if measured < 1 || measured != math.Trunc(measured) || measured > scenario.MaxWindowSec {
		return nil, 0, nil, fmt.Errorf("service: wrapped snapshot measured %g seconds", measured)
	}
	sp, err := scenario.Parse(specBytes)
	if err != nil {
		return nil, 0, nil, fmt.Errorf("service: wrapped snapshot spec: %w", err)
	}
	p, err := sp.PrefixHash()
	if err != nil {
		return nil, 0, nil, err
	}
	if p != prefix {
		return nil, 0, nil, fmt.Errorf("service: wrapped snapshot prefix %.12s does not match %.12s", p, prefix)
	}
	canon, err := sp.Canonical()
	if err != nil {
		return nil, 0, nil, err
	}
	skel, err := sp.Start()
	if err != nil {
		return nil, 0, nil, err
	}
	snap, err := harness.DecodeSnapshot(snapBytes, skel)
	if err != nil {
		return nil, 0, nil, err
	}
	return snap, measured, canon, nil
}

// SnapshotBytes exports the warm snapshot for prefix in wrapped form — the
// body the cluster ships on a handoff. Memory is preferred (freshest; its
// bytes are framed, not re-encoded); otherwise the durable store's copy is
// forwarded as-is.
func (s *Service) SnapshotBytes(prefix string) ([]byte, bool) {
	if s.snaps != nil {
		if snap, measured, spec, ok := s.snaps.get(prefix); ok {
			if data, err := encodeSnapWrap(measured, spec, snap); err == nil {
				return data, true
			}
		}
	}
	if s.disk != nil {
		if data, ok := s.disk.Get(store.KindSnap, prefix); ok {
			return data, true
		}
	}
	return nil, false
}

// InstallSnapshot accepts a wrapped snapshot shipped by a coordinator and
// seeds the warm-state caches with it. The decode is eager and fully
// validated before anything is stored: corrupt, truncated, or mismatched
// bytes are rejected here, and the importing node simply re-executes — a
// bad handoff can waste a transfer, never corrupt a result.
func (s *Service) InstallSnapshot(prefix string, data []byte) error {
	if s.snaps == nil {
		return fmt.Errorf("service: snapshot reuse disabled")
	}
	snap, measured, canon, err := decodeWrappedSnapshot(prefix, data)
	if err != nil {
		return err
	}
	s.depositSnap(prefix, snap, measured, canon)
	return nil
}
