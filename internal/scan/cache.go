package scan

import (
	"container/list"
	"sync"

	"biglake/internal/obs"
	"biglake/internal/vector"
)

// DefaultCacheBytes is the decoded-byte budget of a Cache built with a
// zero budget.
const DefaultCacheBytes = 256 << 20

// cacheKey identifies one immutable object version. Object-store
// generations increment on every overwrite, so (cloud, bucket, key,
// generation) pins exact content: a new generation is simply a
// different cache entry and stale ones age out of the LRU.
type cacheKey struct {
	Cloud      string
	Bucket     string
	Key        string
	Generation int64
}

// cacheEntry is a fully decoded file: the unfiltered batch as the
// vectorized reader produced it (before predicate filtering, which
// depends on the query and is re-applied per lookup).
type cacheEntry struct {
	key   cacheKey
	batch *vector.Batch
	bytes int64
}

// Cache is a byte-budgeted LRU over decoded file batches. Only a
// Reader fills it, and only with decodes that passed verification.
type Cache struct {
	mu     sync.Mutex
	budget int64
	used   int64
	lru    *list.List // front = most recent; values are *cacheEntry
	items  map[cacheKey]*list.Element
	// entries/bytes are registry gauges mirroring occupancy (nil-safe).
	entries *obs.Gauge
	bytes   *obs.Gauge
}

// NewCache returns an empty cache holding at most budget decoded bytes
// (<= 0 means DefaultCacheBytes).
func NewCache(budget int64) *Cache {
	if budget <= 0 {
		budget = DefaultCacheBytes
	}
	return &Cache{
		budget: budget,
		lru:    list.New(),
		items:  make(map[cacheKey]*list.Element),
	}
}

// Observe installs the registry gauges the cache keeps current.
func (c *Cache) Observe(entries, bytes *obs.Gauge) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = entries
	c.bytes = bytes
	entries.Set(int64(c.lru.Len()))
	bytes.Set(c.used)
}

// get returns the decoded batch for an object generation, if cached.
func (c *Cache) get(key cacheKey) (*vector.Batch, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.lru.MoveToFront(el)
	return el.Value.(*cacheEntry).batch, true
}

// put inserts a decoded batch, evicting least-recently-used entries
// past the byte budget. Oversized batches (bigger than the whole
// budget) are not cached at all.
func (c *Cache) put(key cacheKey, b *vector.Batch) {
	size := batchBytes(b)
	if size > c.budget {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.lru.MoveToFront(el)
		ent := el.Value.(*cacheEntry)
		c.used += size - ent.bytes
		ent.batch, ent.bytes = b, size
	} else {
		el := c.lru.PushFront(&cacheEntry{key: key, batch: b, bytes: size})
		c.items[key] = el
		c.used += size
	}
	for c.used > c.budget {
		back := c.lru.Back()
		if back == nil {
			break
		}
		ent := back.Value.(*cacheEntry)
		c.lru.Remove(back)
		delete(c.items, ent.key)
		c.used -= ent.bytes
	}
	c.entries.Set(int64(c.lru.Len()))
	c.bytes.Set(c.used)
}

// removeLocked unlinks one element and updates occupancy gauges.
func (c *Cache) removeLocked(el *list.Element) {
	ent := el.Value.(*cacheEntry)
	c.lru.Remove(el)
	delete(c.items, ent.key)
	c.used -= ent.bytes
	c.entries.Set(int64(c.lru.Len()))
	c.bytes.Set(c.used)
}

// evictObject removes every cached generation of one object — the
// cache-poisoning guard. A decode that fails checksum verification
// must never populate the cache, and any resident entry for the same
// object is no longer trusted either (the store may be serving stale
// or rotten bytes); dropping all generations forces the next read to
// re-fetch and re-verify from the source. Returns how many entries
// were dropped.
func (c *Cache) evictObject(cloud, bucket, key string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for k, el := range c.items {
		if k.Cloud == cloud && k.Bucket == bucket && k.Key == key {
			c.removeLocked(el)
			n++
		}
	}
	return n
}

// batchBytes estimates the in-memory size of a decoded batch.
func batchBytes(b *vector.Batch) int64 {
	var n int64
	for _, c := range b.Cols {
		n += int64(len(c.Ints))*8 + int64(len(c.Floats))*8 + int64(len(c.Bools)) +
			int64(len(c.Nulls)) + int64(len(c.Codes))*4 + int64(len(c.Runs))*8
		for _, s := range c.Strs {
			n += int64(len(s)) + 16
		}
	}
	return n
}
