// Package lru provides a small, mutex-guarded, fixed-capacity LRU cache
// for the hot-path caching layers (the ticket signature memo). It is
// deliberately minimal: Get/Add/Len/Purge and nothing else, with strict
// bounds so a cache can never grow past its capacity no matter the
// workload.
package lru

import (
	"container/list"
	"sync"
)

// Cache is a fixed-capacity LRU map. The zero value is not usable; call
// New. All methods are safe for concurrent use.
type Cache[K comparable, V any] struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[K]*list.Element
}

type entry[K comparable, V any] struct {
	key K
	val V
}

// New creates a cache holding at most capacity entries (capacity < 1 is
// treated as 1).
func New[K comparable, V any](capacity int) *Cache[K, V] {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache[K, V]{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[K]*list.Element, capacity),
	}
}

// Get returns the value for key, marking it most recently used.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*entry[K, V]).val, true
	}
	var zero V
	return zero, false
}

// Add inserts or refreshes key, evicting the least recently used entry
// when the cache is full.
func (c *Cache[K, V]) Add(key K, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*entry[K, V]).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&entry[K, V]{key: key, val: val})
	if c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*entry[K, V]).key)
	}
}

// Purge removes every entry.
func (c *Cache[K, V]) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	clear(c.items)
}

// Len reports the number of cached entries.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Cap reports the cache capacity.
func (c *Cache[K, V]) Cap() int { return c.cap }
