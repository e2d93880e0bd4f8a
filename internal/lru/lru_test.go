package lru

import (
	"fmt"
	"sync"
	"testing"
)

// resident returns which of keys are in m, read without touching recency.
func resident(m *Map[int], keys ...string) string {
	out := ""
	for _, k := range keys {
		if _, ok := m.Get(k, false); ok {
			out += k
		}
	}
	return out
}

func TestEvictionOrder(t *testing.T) {
	m := New[int](3)
	for i, k := range []string{"a", "b", "c"} {
		m.Put(k, i, nil)
	}
	m.Get("a", true) // a is now the most recent; b the least
	m.Put("d", 3, nil)
	if got := resident(m, "a", "b", "c", "d"); got != "acd" {
		t.Errorf("after one eviction: resident %q, want %q", got, "acd")
	}
	m.Put("c", 9, nil) // a re-put refreshes too; a is now the least recent
	m.Put("e", 4, nil)
	if got := resident(m, "a", "b", "c", "d", "e"); got != "cde" {
		t.Errorf("after two evictions: resident %q, want %q", got, "cde")
	}
	if v, _ := m.Get("c", false); v != 9 {
		t.Errorf("re-put value = %d, want 9", v)
	}
}

func TestGetWithoutTouchKeepsRecency(t *testing.T) {
	m := New[int](2)
	m.Put("a", 1, nil)
	m.Put("b", 2, nil)
	if v, ok := m.Get("a", false); !ok || v != 1 {
		t.Fatalf("Get(a) = %d, %v; want 1, true", v, ok)
	}
	m.Put("c", 3, nil) // a is still the least recent
	if got := resident(m, "a", "b", "c"); got != "bc" {
		t.Errorf("resident %q, want %q: an untouched read refreshed recency", got, "bc")
	}
	if _, ok := m.Get("missing", true); ok {
		t.Error("Get found a key never put")
	}
}

func TestKeepHoldsResidentValue(t *testing.T) {
	m := New[int](2)
	larger := func(v int) func(int) bool { return func(old int) bool { return old > v } }
	if !m.Put("a", 5, larger(5)) {
		t.Error("Put of a new key returned false")
	}
	if m.Put("a", 3, larger(3)) {
		t.Error("Put returned true although keep held the resident value")
	}
	if v, _ := m.Get("a", false); v != 5 {
		t.Errorf("value = %d, want the kept 5", v)
	}
	if !m.Put("a", 5, larger(5)) {
		t.Error("Put of an equal value returned false")
	}
	if !m.Put("a", 8, larger(8)) {
		t.Error("Put of a larger value returned false")
	}
	if v, _ := m.Get("a", false); v != 8 {
		t.Errorf("value = %d, want 8", v)
	}
	// A kept Put still counts as use: a stays, b is evicted.
	m.Put("b", 1, nil)
	m.Put("a", 0, larger(0))
	m.Put("c", 1, nil)
	if got := resident(m, "a", "b", "c"); got != "ac" {
		t.Errorf("resident %q, want %q", got, "ac")
	}
}

func TestEvictionAtCapacity(t *testing.T) {
	m := New[int](4)
	for i := 0; i < 10; i++ {
		m.Put(fmt.Sprint(i), i, nil)
		if want := min(i+1, 4); m.Len() != want {
			t.Fatalf("after %d puts: Len = %d, want %d", i+1, m.Len(), want)
		}
	}
	if got := resident(m, "5", "6", "7", "8", "9"); got != "6789" {
		t.Errorf("resident %q, want the newest four %q", got, "6789")
	}
}

// TestConcurrentUse exercises every method from several goroutines; run it
// under -race.
func TestConcurrentUse(t *testing.T) {
	m := New[int](8)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprint((g + i) % 16)
				m.Put(k, i, func(old int) bool { return old > i })
				m.Get(k, i%2 == 0)
				m.Len()
			}
		}(g)
	}
	wg.Wait()
	if m.Len() != 8 {
		t.Errorf("Len = %d, want 8", m.Len())
	}
}
