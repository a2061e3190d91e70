package scan

import (
	"container/list"
	"slices"
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

// cacheEntry is what has been decoded of one object version so far:
// its row count and whichever of its columns reads have asked for,
// each unfiltered as the vectorized reader produced it (predicates
// depend on the query and are re-applied per lookup). A column is
// decoded at most once and never replaced, so a projection handed out
// stays valid for as long as anyone holds it.
type cacheEntry struct {
	key    cacheKey
	schema vector.Schema    // the file's own schema
	rows   int              // the file's row count
	cols   []*vector.Column // by position in schema; nil = not asked for yet
	bytes  int64            // decoded bytes of the resident columns
	// views are the projections served so far, by the file columns they
	// carry. Statements repeat their column sets, so a hit hands out a
	// batch built once instead of assembling one per file per query.
	views []cacheView
}

type cacheView struct {
	cols  []uint64 // bitset over schema positions
	batch *vector.Batch
}

// maxViews bounds the projections an entry remembers; past it the
// oldest is replaced.
const maxViews = 8

// view returns the entry's projection onto the file columns in fw, all
// of which are resident.
func (e *cacheEntry) view(fw []uint64) *vector.Batch {
	for _, v := range e.views {
		if slices.Equal(v.cols, fw) {
			return v.batch
		}
	}
	b := &vector.Batch{N: e.rows}
	for j, c := range e.cols {
		if hasBit(fw, j) {
			b.Schema.Fields = append(b.Schema.Fields, e.schema.Fields[j])
			b.Cols = append(b.Cols, c)
		}
	}
	v := cacheView{cols: slices.Clone(fw), batch: b}
	if len(e.views) < maxViews {
		e.views = append(e.views, v)
	} else {
		copy(e.views, e.views[1:])
		e.views[maxViews-1] = v
	}
	return b
}

// Cache is a byte-budgeted LRU over decoded file columns, one entry per
// object version. Only a Reader fills it, and only with decodes that
// passed verification.
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

// get returns the projection of an object version onto the columns of
// the table schema in want, when every one of them the file stores is
// resident: one map probe, and no allocation for a column set the
// entry has served before.
func (c *Cache) get(key cacheKey, want Columns, table vector.Schema) (*vector.Batch, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	ent := el.Value.(*cacheEntry)
	var buf [4]uint64
	fw := want.onFile(buf[:0], table, ent.schema)
	for j, col := range ent.cols {
		if col == nil && hasBit(fw, j) {
			return nil, false
		}
	}
	c.lru.MoveToFront(el)
	return ent.view(fw), true
}

// resident returns the columns of an object version decoded so far, by
// file position (nil when there is no entry), so a fill decodes only
// what is missing.
func (c *Cache) resident(key cacheKey) []*vector.Column {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		return slices.Clone(el.Value.(*cacheEntry).cols)
	}
	return nil
}

// add makes the file columns in fw resident — got holds them by file
// position — and returns the entry's projection onto fw. A column some
// other read made resident meanwhile is kept and got's copy dropped.
// Least-recently-used entries past the byte budget are evicted; an
// entry bigger than the whole budget is not kept at all.
func (c *Cache) add(key cacheKey, schema vector.Schema, rows int, fw []uint64, got []*vector.Column) *vector.Batch {
	c.mu.Lock()
	defer c.mu.Unlock()
	var ent *cacheEntry
	if el, ok := c.items[key]; ok {
		c.lru.MoveToFront(el)
		ent = el.Value.(*cacheEntry)
	} else {
		ent = &cacheEntry{key: key, schema: schema, rows: rows, cols: make([]*vector.Column, schema.Len())}
		c.items[key] = c.lru.PushFront(ent)
	}
	for j := range ent.cols {
		if ent.cols[j] == nil && hasBit(fw, j) {
			ent.cols[j] = got[j]
			size := columnBytes(got[j])
			ent.bytes += size
			c.used += size
		}
	}
	b := ent.view(fw)
	for c.used > c.budget {
		back := c.lru.Back()
		if back == nil {
			break
		}
		c.removeLocked(back)
	}
	c.entries.Set(int64(c.lru.Len()))
	c.bytes.Set(c.used)
	return b
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

// columnBytes estimates the in-memory size of a decoded column.
func columnBytes(c *vector.Column) int64 {
	n := int64(len(c.Ints))*8 + int64(len(c.Floats))*8 + int64(len(c.Bools)) +
		int64(len(c.Nulls)) + int64(len(c.Codes))*4 + int64(len(c.Runs))*8
	for _, s := range c.Strs {
		n += int64(len(s)) + 16
	}
	return n
}
