package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func testKey(seed string) string {
	sum := sha256.Sum256([]byte(seed))
	return hex.EncodeToString(sum[:])
}

func openT(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := openT(t, t.TempDir())
	key := testKey("a")
	payload := []byte("report bytes")
	if err := s.Replace(KindRun, key, payload); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(KindRun, key)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get = %q, %v; want %q, true", got, ok, payload)
	}
	if !s.Has(KindRun, key) {
		t.Error("Has must report a stored object")
	}
	// Same key under another kind is a distinct object.
	if _, ok := s.Get(KindSnap, key); ok {
		t.Error("kinds must not share objects")
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d, want 1", s.Len())
	}
	// Empty payloads are legal objects (header only).
	empty := testKey("empty")
	if err := s.Replace(KindRun, empty, nil); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get(KindRun, empty); !ok || len(got) != 0 {
		t.Errorf("empty payload Get = %q, %v; want empty, true", got, ok)
	}
}

func TestRejectsInvalidKeys(t *testing.T) {
	s := openT(t, t.TempDir())
	for _, key := range []string{"", "short", strings.Repeat("g", 64), strings.ToUpper(testKey("a")), "../../../../etc/passwd"} {
		if err := s.Replace(KindRun, key, []byte("x")); err == nil {
			t.Errorf("Replace(%q) must fail", key)
		}
		if _, ok := s.Get(KindRun, key); ok {
			t.Errorf("Get(%q) must miss", key)
		}
	}
}

// TestRestartRehydratesIndex is the store half of restart rehydration: a
// reopened store serves everything a previous instance durably wrote,
// byte-identically, from the index it rebuilds by scanning the tree.
func TestRestartRehydratesIndex(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	keys := map[string][]byte{}
	for i := 0; i < 20; i++ {
		key := testKey(fmt.Sprint("obj", i))
		payload := []byte(strings.Repeat("x", i*37))
		keys[key] = payload
		if err := s.Replace(KindRun, key, payload); err != nil {
			t.Fatal(err)
		}
	}
	// No Close: simulate the process dying after the Replaces returned.
	s2 := openT(t, dir)
	if s2.Len() != len(keys) {
		t.Fatalf("reopened store indexes %d objects, want %d", s2.Len(), len(keys))
	}
	for key, payload := range keys {
		got, ok := s2.Get(KindRun, key)
		if !ok || !bytes.Equal(got, payload) {
			t.Fatalf("reopened Get(%s) = %d bytes, %v; want %d bytes", key[:8], len(got), ok, len(payload))
		}
	}
}

// corruptObject rewrites the stored object file for key through fn.
func corruptObject(t *testing.T, s *Store, kind, key string, fn func([]byte) []byte) {
	t.Helper()
	path := s.objectPath(kind, key)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, fn(data), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestBitFlipQuarantined(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	key := testKey("flip")
	payload := []byte("precious measurement data")
	if err := s.Replace(KindRun, key, payload); err != nil {
		t.Fatal(err)
	}
	// Flip one payload bit on disk, as a latent media error would.
	corruptObject(t, s, KindRun, key, func(d []byte) []byte {
		d[headerLen+3] ^= 0x10
		return d
	})
	if _, ok := s.Get(KindRun, key); ok {
		t.Fatal("corrupt object must not be served")
	}
	if q := s.Quarantined(); q != 1 {
		t.Errorf("Quarantined = %d, want 1", q)
	}
	if s.Has(KindRun, key) {
		t.Error("quarantined object must leave the index")
	}
	// The evidence is preserved under corrupt/, not deleted.
	if _, err := os.Stat(filepath.Join(s.corruptDir(), KindRun+"-"+key)); err != nil {
		t.Errorf("quarantined object missing from corrupt/: %v", err)
	}
	// The key is re-writable with a good copy, which then serves again.
	if err := s.Replace(KindRun, key, payload); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get(KindRun, key); !ok || !bytes.Equal(got, payload) {
		t.Error("rewritten object must serve again")
	}
}

func TestTruncationQuarantined(t *testing.T) {
	for _, keep := range []int{0, headerLen - 1, headerLen, headerLen + 2} {
		s := openT(t, t.TempDir())
		key := testKey("trunc")
		if err := s.Replace(KindRun, key, []byte("0123456789")); err != nil {
			t.Fatal(err)
		}
		corruptObject(t, s, KindRun, key, func(d []byte) []byte { return d[:keep] })
		if _, ok := s.Get(KindRun, key); ok {
			t.Fatalf("object truncated to %d bytes must not be served", keep)
		}
		if q := s.Quarantined(); q != 1 {
			t.Errorf("truncated to %d: Quarantined = %d, want 1", keep, q)
		}
	}
}

// TestStaleTmpIgnored simulates a writer killed mid-Replace: the *.tmp file it
// left behind is swept at Open, never indexed, and does not shadow a later
// good write of the same key.
func TestStaleTmpIgnored(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	key := testKey("torn")
	// A torn write: half a header, no rename — under the tmp naming Replace uses.
	objDir := filepath.Dir(s.objectPath(KindSnap, key))
	if err := os.MkdirAll(objDir, 0o755); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(objDir, key+".123456.tmp")
	if err := os.WriteFile(tmp, []byte("half a head"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openT(t, dir)
	if s2.Len() != 0 {
		t.Fatalf("stale tmp indexed: Len = %d, want 0", s2.Len())
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Error("stale tmp must be swept at Open")
	}
	payload := []byte("the real object")
	if err := s2.Replace(KindSnap, key, payload); err != nil {
		t.Fatal(err)
	}
	if got, ok := s2.Get(KindSnap, key); !ok || !bytes.Equal(got, payload) {
		t.Error("good write after a torn write must serve")
	}
}

// TestForeignFilesIgnored pins that Open only indexes well-formed object
// paths: anything else in the tree is left in place and never served.
func TestForeignFilesIgnored(t *testing.T) {
	dir := t.TempDir()
	openT(t, dir)
	key := testKey("x")
	misfiled := filepath.Join(dir, "objects", KindRun, "zz", key)
	if err := os.MkdirAll(filepath.Dir(misfiled), 0o755); err != nil {
		t.Fatal(err)
	}
	// Wrong fan-out dir, a README, and a non-hex name.
	for _, p := range []string{misfiled, filepath.Join(dir, "objects", "README"), filepath.Join(dir, "objects", KindRun, key[:2], "not-a-hash")} {
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte("??"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s := openT(t, dir)
	if s.Len() != 0 {
		t.Errorf("foreign files indexed: Len = %d, want 0", s.Len())
	}
}

// TestOldLayoutKindsIgnored: a checksum-valid object of a kind the store
// no longer reads (the old report/spec/series layout) stays on disk but is
// not indexed, so it neither counts in Len nor shadows the run beside it.
func TestOldLayoutKindsIgnored(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	key := testKey("old")
	payload := []byte(`{"run":1}`)
	if err := s.Replace(KindRun, key, payload); err != nil {
		t.Fatal(err)
	}
	if err := s.Replace("report", key, []byte(`{"report":1}`)); err != nil {
		t.Fatal(err)
	}
	s2 := openT(t, dir)
	if s2.Len() != 1 {
		t.Errorf("reopened Len = %d, want 1 (the run only)", s2.Len())
	}
	if got, ok := s2.Get(KindRun, key); !ok || !bytes.Equal(got, payload) {
		t.Errorf("run after reopen = %q, %v; want %q", got, ok, payload)
	}
	if _, err := os.Stat(filepath.Join(dir, "objects", "report", key[:2], key)); err != nil {
		t.Errorf("old-layout object removed: %v", err)
	}
}

// TestConcurrentPutGet exercises the store under parallel writers and
// readers of overlapping keys; runs under -race in CI.
func TestConcurrentPutGet(t *testing.T) {
	s := openT(t, t.TempDir())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 24; i++ {
				key := testKey(fmt.Sprint("shared", i%6))
				payload := []byte(strings.Repeat("p", 100+i%6))
				if err := s.Replace(KindRun, key, payload); err != nil {
					t.Error(err)
					return
				}
				if got, ok := s.Get(KindRun, key); ok && len(got) != len(payload) {
					t.Errorf("goroutine %d: Get returned %d bytes, want %d", g, len(got), len(payload))
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if s.Len() != 6 {
		t.Errorf("Len = %d, want 6", s.Len())
	}
}
