// Package lru is the serving path's one bounded map: a least-recently-used
// map from string keys to values under a single mutex. The service's result
// and warm-snapshot caches and the coordinator's routing indexes are each
// one Map.
package lru

import (
	"container/list"
	"sync"
)

// Map is a bounded LRU map, safe for concurrent use. Every operation holds
// the one mutex for a map probe and at most one list move (a Put over
// capacity adds one eviction).
type Map[V any] struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element
}

type entry[V any] struct {
	key string
	val V
}

// New returns an empty map that holds at most capEntries entries.
func New[V any](capEntries int) *Map[V] {
	return &Map[V]{cap: capEntries, ll: list.New(), items: make(map[string]*list.Element)}
}

// Get returns the value under key. touch marks the entry most recently
// used; a read that should not count as use (an index lookup, say) passes
// false and leaves the recency order alone.
func (m *Map[V]) Get(key string, touch bool) (V, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	el, ok := m.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	if touch {
		m.ll.MoveToFront(el)
	}
	return el.Value.(*entry[V]).val, true
}

// Put makes key the most recently used entry and stores v under it,
// evicting the least recently used entry beyond capacity. When key is
// resident and keep (if non-nil) reports true for the resident value, that
// value stays and Put returns false; otherwise Put returns true. keep runs
// under m's lock, so the decision and the store are one step; it must be a
// quick comparison that does not call back into m.
func (m *Map[V]) Put(key string, v V, keep func(old V) bool) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.items[key]; ok {
		m.ll.MoveToFront(el)
		e := el.Value.(*entry[V])
		if keep != nil && keep(e.val) {
			return false
		}
		e.val = v
		return true
	}
	m.items[key] = m.ll.PushFront(&entry[V]{key: key, val: v})
	for m.ll.Len() > m.cap {
		oldest := m.ll.Back()
		m.ll.Remove(oldest)
		delete(m.items, oldest.Value.(*entry[V]).key)
	}
	return true
}

// Len returns the number of resident entries.
func (m *Map[V]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ll.Len()
}
