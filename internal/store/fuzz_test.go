package store

import (
	"bytes"
	"crypto/sha256"
	"os"
	"path/filepath"
	"testing"
)

// FuzzStoreGet writes arbitrary bytes as an object file, opens the store
// over it as a restarted service would, and reads the object back. Get
// must never serve bytes it cannot vouch for: it returns exactly the
// payload behind a matching embedded sha256, or a miss, in which case the
// object is quarantined — out of the index, counted, and preserved byte for
// byte under corrupt/.
//
// Run with `go test -fuzz FuzzStoreGet ./internal/store`.
func FuzzStoreGet(f *testing.F) {
	payload := []byte("precious measurement data")
	sum := sha256.Sum256(payload)
	good := append(sum[:], payload...)
	f.Add(good)
	f.Add(sum[:])
	f.Add(good[:headerLen-1])
	f.Add([]byte{})
	flipped := append([]byte(nil), good...)
	flipped[headerLen+3] ^= 0x10
	f.Add(flipped)

	key := testKey("fuzz")
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "objects", KindSnap, key[:2], key)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := s.Get(KindSnap, key)
		intact := len(data) >= headerLen && sha256.Sum256(data[headerLen:]) == [headerLen]byte(data[:headerLen])
		if ok != intact {
			t.Fatalf("Get ok=%v for an object whose hash check says %v", ok, intact)
		}
		if ok {
			if !bytes.Equal(got, data[headerLen:]) {
				t.Fatal("Get served bytes other than the stored payload")
			}
			if s.Quarantined() != 0 || !s.Has(KindSnap, key) {
				t.Fatal("a verified object was quarantined")
			}
			return
		}
		if got != nil || s.Quarantined() != 1 || s.Has(KindSnap, key) {
			t.Fatalf("a miss must quarantine: got %d bytes, quarantined %d, indexed %v",
				len(got), s.Quarantined(), s.Has(KindSnap, key))
		}
		evidence, err := os.ReadFile(filepath.Join(s.corruptDir(), KindSnap+"-"+key))
		if err != nil || !bytes.Equal(evidence, data) {
			t.Fatalf("quarantined object not preserved under corrupt/ (err %v)", err)
		}
	})
}
