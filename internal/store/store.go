// Package store is a durable content-addressed object store — the disk
// plane under the service's in-memory caches. Objects are byte payloads,
// each written whole, filed under the scenario layer's hex sha256 keys
// (content hashes for run records, prefix hashes for warm snapshots), in
// kind-partitioned fan-out directories like a git object store:
//
//	<dir>/objects/<kind>/<key[:2]>/<key>
//	<dir>/corrupt/                      quarantined objects
//
// Three properties make it safe to trust across crashes:
//
//   - Writes are atomic: payloads land in a same-directory temp file,
//     fsync, then rename over the final name, with a directory fsync behind
//     it. A crash leaves either the complete object or an ignorable *.tmp
//     remnant — never a half-written object under a valid name.
//   - Reads are verified: every object embeds the sha256 of its payload,
//     re-checked on each Get. Bit rot, torn writes, and hand-edited files
//     are detected at read time.
//   - Corruption is quarantined, not served: a failed verification moves
//     the object into corrupt/ (preserving the evidence) and reports a
//     miss. Because every key is re-derivable by re-execution, callers
//     degrade to recomputing the object — correctness never depends on the
//     disk being honest.
//
// Concurrent Replaces of the same key leave one of the payloads whole (the
// last rename wins), and Store methods are safe for concurrent use.
package store

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// Kinds partition the object namespace. A key identifies a scenario (or
// scenario prefix); the kind says which derived artifact the object holds.
const (
	KindRun  = "run"  // one executed run's record, keyed by content hash
	KindSnap = "snap" // wrapped warm snapshot, keyed by prefix hash
)

// header is the per-object integrity prefix: the sha256 of the payload.
const headerLen = sha256.Size

// Store is an open object store rooted at one directory.
type Store struct {
	dir string

	mu          sync.Mutex
	index       map[string]bool // kind/key -> present
	quarantined int64
}

// Open opens (creating if needed) the store rooted at dir, builds the
// in-memory presence index, and sweeps stale *.tmp files left by crashed
// writers. The index makes Has and negative Gets cheap; positive Gets still
// read and verify the file.
func Open(dir string) (*Store, error) {
	s := &Store{dir: dir, index: make(map[string]bool)}
	for _, d := range []string{s.objectsDir(), s.corruptDir()} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("store: open %s: %w", dir, err)
		}
	}
	err := filepath.WalkDir(s.objectsDir(), func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		if strings.HasSuffix(d.Name(), ".tmp") {
			// A crashed writer's remnant; the rename never happened, so the
			// object it was building does not exist. Remove and move on.
			os.Remove(path)
			return nil
		}
		rel, err := filepath.Rel(s.objectsDir(), path)
		if err != nil {
			return nil
		}
		// objects/<kind>/<key[:2]>/<key>, of a kind this layout still
		// reads: objects of an older one (report, spec, series) are left on
		// disk like foreign files, costing neither Len nor index memory.
		parts := strings.Split(filepath.ToSlash(rel), "/")
		if len(parts) != 3 || (parts[0] != KindRun && parts[0] != KindSnap) ||
			!validKey(parts[2]) || parts[1] != parts[2][:2] {
			return nil // foreign file; leave it alone, serve nothing from it
		}
		s.index[parts[0]+"/"+parts[2]] = true
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("store: scan %s: %w", dir, err)
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) objectsDir() string { return filepath.Join(s.dir, "objects") }
func (s *Store) corruptDir() string { return filepath.Join(s.dir, "corrupt") }

func (s *Store) objectPath(kind, key string) string {
	return filepath.Join(s.objectsDir(), kind, key[:2], key)
}

// validKey reports whether key is a lowercase hex sha256 — the only names
// the store files objects under or serves objects from.
func validKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Replace durably writes payload under kind/key, overwriting any present
// object. Overwriting is what both kinds need: a warm snapshot's value
// advances as its prefix's measured window extends, and a run record that
// no longer decodes (an older layout) is replaced by the re-execution
// that a read of it caused. The write lands in a temp file, is fsynced and
// renamed over the final name, so a concurrent Get sees the old object or
// the new, never a mix, and when Replace returns nil the object survives
// a crash.
func (s *Store) Replace(kind, key string, payload []byte) error {
	if !validKey(key) {
		return fmt.Errorf("store: invalid key %q", key)
	}
	final := s.objectPath(kind, key)
	dir := filepath.Dir(final)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: replace %s/%s: %w", kind, key, err)
	}
	sum := sha256.Sum256(payload)
	tmp, err := os.CreateTemp(dir, key+".*.tmp")
	if err != nil {
		return fmt.Errorf("store: replace %s/%s: %w", kind, key, err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	_, werr := tmp.Write(sum[:])
	if werr == nil {
		_, werr = tmp.Write(payload)
	}
	if werr == nil {
		werr = tmp.Sync()
	}
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("store: replace %s/%s: %w", kind, key, werr)
	}
	if err := os.Rename(tmp.Name(), final); err != nil {
		return fmt.Errorf("store: replace %s/%s: %w", kind, key, err)
	}
	syncDir(dir)

	s.mu.Lock()
	s.index[kind+"/"+key] = true
	s.mu.Unlock()
	return nil
}

// syncDir fsyncs a directory so a completed rename survives a crash.
// Best-effort: filesystems that refuse directory fsync still get the
// rename's atomicity, only its durability window widens.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// Get returns the payload stored under kind/key, verifying it against the
// embedded hash. A missing object returns (nil, false). An unreadable,
// truncated, or corrupt object is quarantined to corrupt/ and reported as a
// miss — the caller re-executes; the store never serves bytes it cannot
// vouch for.
func (s *Store) Get(kind, key string) ([]byte, bool) {
	if !validKey(key) {
		return nil, false
	}
	s.mu.Lock()
	present := s.index[kind+"/"+key]
	s.mu.Unlock()
	if !present {
		return nil, false
	}
	path := s.objectPath(kind, key)
	data, err := os.ReadFile(path)
	if err != nil {
		s.quarantine(kind, key, path)
		return nil, false
	}
	if len(data) < headerLen {
		s.quarantine(kind, key, path)
		return nil, false
	}
	payload := data[headerLen:]
	sum := sha256.Sum256(payload)
	if !bytes.Equal(sum[:], data[:headerLen]) {
		s.quarantine(kind, key, path)
		return nil, false
	}
	return payload, true
}

// quarantine moves a failed object aside and drops it from the index, so
// the next Replace can write a good copy.
func (s *Store) quarantine(kind, key, path string) {
	os.Rename(path, filepath.Join(s.corruptDir(), kind+"-"+key))
	s.mu.Lock()
	delete(s.index, kind+"/"+key)
	s.quarantined++
	s.mu.Unlock()
}

// Has reports whether kind/key is indexed (without verifying the bytes).
func (s *Store) Has(kind, key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.index[kind+"/"+key]
}

// Len returns the number of indexed objects.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Quarantined returns how many objects this store has quarantined since
// Open.
func (s *Store) Quarantined() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.quarantined
}
