package service

import (
	"encoding/json"
	"fmt"

	"a4sim/internal/codec"
	"a4sim/internal/harness"
	"a4sim/internal/obs"
	"a4sim/internal/scenario"
	"a4sim/internal/store"
)

// The disk plane: glue between the in-memory caches and the durable
// content-addressed store. Each execution is one run object under the
// run's hash, the same record the result cache holds; warm snapshots are
// keyed objects under the prefix hash, wrapped with the canonical spec
// that rebuilds their structural skeleton. Everything read back is
// verified (the store re-hashes payloads, a run object must decode to a
// whole record, snapshots additionally re-validate structure during
// decode), and every failure degrades to re-execution. A snapshot that
// passes is trusted as its prefix's state: the store's hash guards its
// bytes, and the structural decode guards that it fits the scenario.

// runRecord is one executed run: its report, canonical spec, series (when
// the spec recorded one) and controller event log (empty, never nil,
// without a controller). The result cache holds it and the store holds it
// as one JSON object, so memory and disk serve the same bytes. The byte
// fields are the canonical encodings, embedded verbatim.
type runRecord struct {
	Report json.RawMessage `json:"report"`
	Spec   json.RawMessage `json:"spec"`
	Series json.RawMessage `json:"series,omitempty"`
	Events []string        `json:"events"`
}

// record returns the run record under hash: the resident cache entry, or
// else the store's run object, which it makes resident. touch says whether
// a resident entry's recency is refreshed: result traffic (reports,
// series, submissions) refreshes it, Extend and event-log reads do not. A
// run object that is missing, quarantined or does not decode to a whole
// record (an older layout, for one) is a miss, and the re-execution that
// follows replaces it. Safe to call with fmu held (the cache put nests
// fmu -> the result cache's lock, the one permitted nesting).
func (s *Service) record(hash string, touch bool, tr *obs.Trace) (*lruEntry, bool) {
	if e, ok := s.cache.Get(hash, touch); ok {
		return e, true
	}
	if s.disk == nil {
		return nil, false
	}
	sr := tr.Begin("store_read")
	defer sr.End()
	data, ok := s.disk.Get(store.KindRun, hash)
	if !ok {
		return nil, false
	}
	var rec runRecord
	if json.Unmarshal(data, &rec) != nil || rec.Report == nil || rec.Spec == nil || rec.Events == nil {
		return nil, false
	}
	s.ctr.storeHits.Add(1)
	return s.publish(hash, rec), true
}

// storeRecord writes rec as hash's run object. One atomic write is the
// commit point: a crash leaves the whole record or the previous object,
// never a report without its spec or log. Errors are swallowed: the disk
// plane accelerates restarts, it does not gate serving from memory.
func (s *Service) storeRecord(hash string, rec runRecord) {
	if data, err := json.Marshal(rec); err == nil {
		s.disk.Replace(store.KindRun, hash, data)
	}
}

// snapWrap is the on-disk and on-wire framing of a warm snapshot: the
// canonical spec that rebuilds its structural skeleton, and the encoded
// harness state. How far the snapshot's window has run is read off that
// state, never framed beside it. One format serves both the store's snap
// objects and the cluster's handoff bodies. Version 1 also carried the
// measured seconds; its objects fail the version check and re-execute.
const (
	snapWrapMagic   = "A4SW"
	snapWrapVersion = 2
)

// encodeSnapWrap frames snap's encoding with its spec. The snapshot is
// already encoded; framing is one copy.
func encodeSnapWrap(spec []byte, snap *harness.Snapshot) ([]byte, error) {
	data, err := snap.Encode()
	if err != nil {
		return nil, err
	}
	w := &codec.Writer{}
	w.Raw([]byte(snapWrapMagic))
	w.U32(snapWrapVersion)
	w.Blob(spec)
	w.Blob(data)
	return w.Bytes(), nil
}

func decodeSnapWrap(data []byte) (spec, snap []byte, err error) {
	r := codec.NewReader(data)
	if string(r.Raw(len(snapWrapMagic))) != snapWrapMagic {
		return nil, nil, fmt.Errorf("service: not a wrapped snapshot (bad magic)")
	}
	if v := r.U32(); r.Err() == nil && v != snapWrapVersion {
		return nil, nil, fmt.Errorf("service: wrapped snapshot version %d, want %d", v, snapWrapVersion)
	}
	spec = r.Blob()
	snap = r.Blob()
	if err := r.Err(); err != nil {
		return nil, nil, err
	}
	if n := r.Remaining(); n != 0 {
		return nil, nil, fmt.Errorf("service: wrapped snapshot has %d trailing bytes", n)
	}
	return spec, snap, nil
}

// depositSnap stores a warm snapshot in the memory cache and, when that
// actually advanced the prefix's state, mirrors it to the durable store. A
// snapshot is its encoded bytes, so memory and the store hold one encoding
// and the store write only frames it.
// The disk write is best-effort and ordered after the memory decision;
// concurrent advances can at worst leave disk one step behind memory, which
// costs re-simulation after a restart, never a wrong result.
func (s *Service) depositSnap(prefix string, snap *harness.Snapshot, spec []byte) {
	// A resident state whose window has run further is kept: any request
	// at or past it continues from there, and concurrent shorter runs must
	// not clobber it.
	further := func(old *snapEntry) bool { return old.snap.WindowEpochs() > snap.WindowEpochs() }
	advanced := s.snaps.Put(prefix, &snapEntry{snap: snap, spec: spec}, further)
	if !advanced || s.disk == nil {
		return
	}
	data, err := encodeSnapWrap(spec, snap)
	if err != nil {
		return
	}
	s.disk.Replace(store.KindSnap, prefix, data)
}

// diskSnapshot rehydrates the warm snapshot stored under prefix: unwrap,
// rebuild the structural skeleton from the wrapped spec, and decode the
// state onto it. Any failure reports a miss and the caller re-executes.
func (s *Service) diskSnapshot(prefix string) (*harness.Snapshot, bool) {
	data, ok := s.disk.Get(store.KindSnap, prefix)
	if !ok {
		return nil, false
	}
	snap, _, err := decodeWrappedSnapshot(prefix, data)
	return snap, err == nil
}

// decodeWrappedSnapshot validates and decodes one wrapped snapshot against
// its claimed prefix: the wrapped spec must actually hash to that prefix
// (so a misfiled or maliciously shipped snapshot cannot impersonate another
// scenario), and the harness decode re-validates structure byte by byte.
func decodeWrappedSnapshot(prefix string, data []byte) (*harness.Snapshot, []byte, error) {
	specBytes, snapBytes, err := decodeSnapWrap(data)
	if err != nil {
		return nil, nil, err
	}
	sp, err := scenario.Parse(specBytes)
	if err != nil {
		return nil, nil, fmt.Errorf("service: wrapped snapshot spec: %w", err)
	}
	canon, _, p, err := sp.Digest()
	if err != nil {
		return nil, nil, err
	}
	if p != prefix {
		return nil, nil, fmt.Errorf("service: wrapped snapshot prefix %.12s does not match %.12s", p, prefix)
	}
	skel, err := sp.Start()
	if err != nil {
		return nil, nil, err
	}
	snap, err := harness.DecodeSnapshot(snapBytes, skel)
	if err != nil {
		return nil, nil, err
	}
	return snap, canon, nil
}

// SnapshotBytes exports the warm snapshot for prefix in wrapped form — the
// body the cluster ships on a handoff. Memory is preferred (freshest; its
// bytes are framed, not re-encoded); otherwise the durable store's copy is
// forwarded as-is.
func (s *Service) SnapshotBytes(prefix string) ([]byte, bool) {
	if e, ok := s.snaps.Get(prefix, true); ok {
		if data, err := encodeSnapWrap(e.spec, e.snap); err == nil {
			return data, true
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
// validated before anything is stored: corrupt, truncated, stale-version
// or prefix-mismatched bytes are rejected here, and the importing node
// simply re-executes. What the check guarantees is structure: a snapshot
// that decodes onto its prefix's skeleton is trusted as that scenario's
// state, and since the window a continuation resumes from is read off
// that state, a wrap cannot claim a window its state does not hold.
func (s *Service) InstallSnapshot(prefix string, data []byte) error {
	snap, canon, err := decodeWrappedSnapshot(prefix, data)
	if err != nil {
		return err
	}
	s.depositSnap(prefix, snap, canon)
	return nil
}
