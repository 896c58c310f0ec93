package qos

import (
	"container/list"
	"sync"
)

// Key identifies one cached computation exactly: the graph image's
// content fingerprint (not its catalog name — re-serving a different
// image under the same name must miss), the algorithm, the request's
// canonicalized parameters, and the execution engine kind. Two
// requests with equal Keys are the same deterministic computation, so
// serving one's retained result for the other is exact, not
// approximate — the serve layer's checksummed ResultSets prove it.
type Key struct {
	// Graph is the image's content fingerprint.
	Graph string
	// Algo is the registered algorithm name.
	Algo string
	// Params is the request's canonical (sorted-key, compact) params
	// JSON. Canonicalization is textual: two spellings of the same
	// defaults may miss, but equal keys never lie.
	Params string
	// Engine is the resolved execution engine kind.
	Engine string
}

// CacheStats snapshots a Cache's counters.
type CacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Inserts   int64 `json:"inserts"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
	Budget    int64 `json:"budget"`
	// Coalesced counts submissions attached to an identical in-flight
	// leader instead of running (single-flight); the serve layer
	// reports it here because coalescing and caching are one pillar:
	// both serve a computation that ran once to N callers.
	Coalesced int64 `json:"coalesced"`
}

// HitRate returns hits / (hits + misses).
func (s CacheStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Cache is a byte-budgeted LRU over finished computation results and
// their only owner: each value is charged once, callers keep an *Entry
// handle instead of the value, and a handle goes dead the moment its
// entry is evicted. V is the caller's value type (the serve layer
// stores the ResultSet, its summary, and the run stats together), and
// must be immutable once inserted: readers share it without copying.
// size reports one value's retained footprint. An entry is reachable by
// its key and through its handles until evicted. Recency moves on insert
// and on a hit, not on Value.
type Cache[V any] struct {
	mu     sync.Mutex
	budget int64
	size   func(V) int64
	lru    *list.List // of *Entry[V]; front = most recent
	byKey  map[Key]*Entry[V]
	stats  CacheStats
}

// Entry is a handle to one value in a Cache; it outlives the entry.
type Entry[V any] struct {
	key   Key
	val   V
	bytes int64
	el    *list.Element // nil once evicted
}

// NewCache builds a cache with the given byte budget (<= 0 means the
// cache stores nothing but still counts misses, so disabling the
// cache keeps the stats surface).
func NewCache[V any](budget int64, size func(V) int64) *Cache[V] {
	return &Cache[V]{
		budget: max(budget, 0),
		size:   size,
		lru:    list.New(),
		byKey:  map[Key]*Entry[V]{},
		stats:  CacheStats{Budget: max(budget, 0)},
	}
}

// Lookup returns the entry resident under k with its value, marking it
// most-recently used, or nil; every call counts as a hit or a miss.
func (c *Cache[V]) Lookup(k Key) (e *Entry[V], v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e = c.byKey[k]; e == nil {
		c.stats.Misses++
		return nil, v
	}
	c.lru.MoveToFront(e.el)
	c.stats.Hits++
	return e, e.val
}

// Get is Lookup for callers that want no handle.
func (c *Cache[V]) Get(k Key) (V, bool) {
	e, v := c.Lookup(k)
	return v, e != nil
}

// Value returns e's value while its entry is resident; a nil or evicted
// handle reports false.
func (c *Cache[V]) Value(e *Entry[V]) (v V, ok bool) {
	if e == nil {
		return v, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return e.val, e.el != nil
}

// Put inserts v under k and evicts least-recently-used entries until
// the budget holds. When k is already resident — an identical
// computation landed first, so the values are equivalent — that entry
// is refreshed and returned instead. Nil means v was not admitted
// (larger than the whole budget, or budget 0).
func (c *Cache[V]) Put(k Key, v V) *Entry[V] {
	e := &Entry[V]{key: k, val: v, bytes: c.size(v)}
	c.mu.Lock()
	defer c.mu.Unlock()
	if old := c.byKey[k]; old != nil {
		c.lru.MoveToFront(old.el)
		return old
	}
	if e.bytes > c.budget {
		return nil
	}
	e.el = c.lru.PushFront(e)
	c.byKey[k] = e
	c.stats.Bytes += e.bytes
	c.stats.Inserts++
	for c.stats.Bytes > c.budget {
		// Evict the LRU entry and release its value, whoever still holds
		// the handle.
		victim := c.lru.Remove(c.lru.Back()).(*Entry[V])
		delete(c.byKey, victim.key)
		c.stats.Bytes -= victim.bytes
		c.stats.Evictions++
		*victim = Entry[V]{}
	}
	return e
}

// Coalesced counts one single-flight attachment (serve calls it when
// a submission joins an identical in-flight computation).
func (c *Cache[V]) Coalesced() {
	c.mu.Lock()
	c.stats.Coalesced++
	c.mu.Unlock()
}

// Stats snapshots the counters.
func (c *Cache[V]) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Entries = c.lru.Len()
	return c.stats
}
