// Package cache provides a sharded, size-bounded, concurrency-safe
// key-value cache with per-shard LRU eviction and single-flight
// population: concurrent GetOrCreate calls for one key run the create
// function once and share its result. The facade uses it to memoize
// FFT plan cores (stage decomposition + twiddle tables) keyed by
// (N, kernel), so serving callers stop hand-managing plan lifetimes.
//
// Sharding bounds lock contention — a lookup takes one shard mutex,
// never a global one — and the per-shard capacity bounds memory: a
// cache of S shards each capped at C entries never holds more than S·C
// values, evicting each shard's least-recently-used entry first.
package cache

import (
	"sync"
	"sync/atomic"
)

// Cache is a sharded LRU cache. The zero value is not usable; call New.
type Cache[K comparable, V any] struct {
	hash   func(K) uint64
	mask   uint64
	shards []shard[K, V]

	// Lifetime lookup outcomes across Get and GetOrCreate — the
	// observability feed for serving metrics. A GetOrCreate that joins an
	// in-flight create counts as a hit (the work is shared); one whose
	// create fails counts as a miss only.
	hits, misses atomic.Int64
}

// entry is a cache slot. The once/val/err trio gives single-flight
// creation; prev/next form the shard's intrusive LRU list (most
// recently used at the front), guarded by the shard mutex.
type entry[K comparable, V any] struct {
	key        K
	once       sync.Once
	done       atomic.Bool // set after val/err; the Store/Load pair orders them for Get
	val        V
	err        error
	prev, next *entry[K, V]
}

type shard[K comparable, V any] struct {
	mu         sync.Mutex
	m          map[K]*entry[K, V]
	head, tail *entry[K, V] // LRU list: head = most recent
	cap        int
}

// New builds a cache of shardCount shards (rounded up to a power of
// two, minimum 1) holding at most capPerShard entries each. hash maps a
// key to its shard; it must be deterministic and should spread keys.
func New[K comparable, V any](shardCount, capPerShard int, hash func(K) uint64) *Cache[K, V] {
	if capPerShard < 1 {
		capPerShard = 1
	}
	n := 1
	for n < shardCount {
		n *= 2
	}
	c := &Cache[K, V]{hash: hash, mask: uint64(n - 1), shards: make([]shard[K, V], n)}
	for i := range c.shards {
		c.shards[i].m = make(map[K]*entry[K, V])
		c.shards[i].cap = capPerShard
	}
	return c
}

func (c *Cache[K, V]) shard(k K) *shard[K, V] {
	return &c.shards[c.hash(k)&c.mask]
}

// GetOrCreate returns the cached value for k, creating it with create
// on a miss. Concurrent callers for the same key share one create call
// and its result. A create error is returned to every waiter but never
// cached — the entry is removed so a later call retries. The entry may
// be evicted while create runs; the callers still receive the value,
// it just isn't retained.
func (c *Cache[K, V]) GetOrCreate(k K, create func() (V, error)) (V, error) {
	s := c.shard(k)
	s.mu.Lock()
	e, ok := s.m[k]
	if ok {
		s.moveToFront(e)
	} else {
		e = &entry[K, V]{key: k}
		s.m[k] = e
		s.pushFront(e)
		if len(s.m) > s.cap {
			s.evictOldest(e)
		}
	}
	s.mu.Unlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}

	e.once.Do(func() {
		e.val, e.err = create()
		e.done.Store(true)
	})
	if e.err != nil {
		s.mu.Lock()
		if s.m[k] == e {
			delete(s.m, k)
			s.unlink(e)
		}
		s.mu.Unlock()
	}
	return e.val, e.err
}

// Get returns the cached value for k without populating. Entries whose
// create call is still in flight count as misses (Get never blocks).
func (c *Cache[K, V]) Get(k K) (V, bool) {
	s := c.shard(k)
	s.mu.Lock()
	e, ok := s.m[k]
	if ok {
		s.moveToFront(e)
	}
	s.mu.Unlock()
	var zero V
	if !ok || !e.done.Load() || e.err != nil {
		c.misses.Add(1)
		return zero, false
	}
	c.hits.Add(1)
	return e.val, true
}

// Stats reports the lifetime hit and miss counts across Get and
// GetOrCreate. Purge does not reset them — they are counters, not
// gauges.
func (c *Cache[K, V]) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

// Len reports the number of cached entries across all shards.
func (c *Cache[K, V]) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.m)
		s.mu.Unlock()
	}
	return n
}

// Cap reports the maximum number of entries the cache retains.
func (c *Cache[K, V]) Cap() int {
	return len(c.shards) * c.shards[0].cap
}

// Purge drops every cached entry.
func (c *Cache[K, V]) Purge() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.m = make(map[K]*entry[K, V])
		s.head, s.tail = nil, nil
		s.mu.Unlock()
	}
}

// List maintenance — all called with the shard mutex held.

func (s *shard[K, V]) pushFront(e *entry[K, V]) {
	e.prev, e.next = nil, s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

func (s *shard[K, V]) unlink(e *entry[K, V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else if s.head == e {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else if s.tail == e {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (s *shard[K, V]) moveToFront(e *entry[K, V]) {
	if s.head == e {
		return
	}
	s.unlink(e)
	s.pushFront(e)
}

// evictOldest removes the least-recently-used entry other than keep
// (the entry just inserted, which must survive its own insertion).
func (s *shard[K, V]) evictOldest(keep *entry[K, V]) {
	v := s.tail
	for v != nil && v == keep {
		v = v.prev
	}
	if v != nil {
		delete(s.m, v.key)
		s.unlink(v)
	}
}
