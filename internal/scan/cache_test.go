package scan

import (
	"testing"

	"biglake/internal/vector"
)

// TestCacheEvictObjectDropsAllGenerations pins the eviction
// primitive the poisoning guard relies on: evicting an object removes
// every cached generation of it — and only it.
func TestCacheEvictObjectDropsAllGenerations(t *testing.T) {
	c := NewCache(1 << 20)
	bl := vector.NewBuilder(vector.NewSchema(vector.Field{Name: "x", Type: vector.Int64}))
	bl.Append(vector.IntValue(1))
	b := bl.Build()
	c.put(cacheKey{Cloud: "gcp", Bucket: "lake", Key: "t/a.blk", Generation: 1}, b)
	c.put(cacheKey{Cloud: "gcp", Bucket: "lake", Key: "t/a.blk", Generation: 2}, b)
	c.put(cacheKey{Cloud: "gcp", Bucket: "lake", Key: "t/b.blk", Generation: 1}, b)
	if n := c.evictObject("gcp", "lake", "t/a.blk"); n != 2 {
		t.Fatalf("evicted %d entries, want 2", n)
	}
	if _, ok := c.get(cacheKey{Cloud: "gcp", Bucket: "lake", Key: "t/a.blk", Generation: 2}); ok {
		t.Fatal("a.blk generation survived eviction")
	}
	if _, ok := c.get(cacheKey{Cloud: "gcp", Bucket: "lake", Key: "t/b.blk", Generation: 1}); !ok {
		t.Fatal("unrelated object was evicted")
	}
	if c.used != batchBytes(b) {
		t.Fatalf("byte accounting drifted: used=%d want=%d", c.used, batchBytes(b))
	}
}
