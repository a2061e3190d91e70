package scan

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"biglake/internal/bigmeta"
	"biglake/internal/colfmt"
	"biglake/internal/integrity"
	"biglake/internal/vector"
)

var wideSchema = vector.NewSchema(
	vector.Field{Name: "a", Type: vector.Int64},
	vector.Field{Name: "b", Type: vector.Int64},
	vector.Field{Name: "s", Type: vector.String},
)

// newWideWorld is newWorld over a table ds.t of (a, b, s) stored and
// day in the path; writeWide adds its files.
func newWideWorld(t *testing.T) *world {
	w := newWorld(t)
	w.src.Table.Schema = vector.NewSchema(append(append([]vector.Field(nil), wideSchema.Fields...),
		vector.Field{Name: "day", Type: vector.Int64})...)
	return w
}

// writeWide stores 100 rows (a = i, b = 10i, s = "s<i>") in two row
// groups under key and returns the pinned entry with the file's bytes.
func (w *world) writeWide(t *testing.T, key string) (bigmeta.FileEntry, []byte) {
	t.Helper()
	bl := vector.NewBuilder(wideSchema)
	for i := int64(0); i < 100; i++ {
		bl.Append(vector.IntValue(i), vector.IntValue(10*i), vector.StringValue(fmt.Sprintf("s%d", i)))
	}
	data, err := colfmt.WriteFile(bl.Build(), colfmt.WriterOptions{RowGroupRows: 50})
	if err != nil {
		t.Fatal(err)
	}
	info, err := w.store.Put(w.src.Cred, testBucket, key, data, "application/x-blk")
	if err != nil {
		t.Fatal(err)
	}
	footer, err := colfmt.ReadFooter(data)
	if err != nil {
		t.Fatal(err)
	}
	f := bigmeta.NewFileEntry(testBucket, key, info, footer)
	f.Partition = bigmeta.PartitionOf("t/", key)
	return f, data
}

// flipChunk flips a stored bit inside the second row group's chunk of
// one column.
func (w *world) flipChunk(t *testing.T, key string, data []byte, column string) {
	t.Helper()
	footer, err := colfmt.ReadFooter(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, ch := range footer.RowGroups[1].Chunks {
		if ch.Column == column {
			if err := w.store.FlipStoredBit(testBucket, key, 8*(ch.Offset+ch.Length/2)); err != nil {
				t.Fatal(err)
			}
			return
		}
	}
	t.Fatalf("no chunk for column %q", column)
}

func (w *world) cols(names ...string) Columns { return ColumnsOf(w.src.Table.Schema, names...) }

func fieldNames(s vector.Schema) string {
	out := ""
	for _, f := range s.Fields {
		out += f.Name + " "
	}
	return out
}

func keyOf(f bigmeta.FileEntry) cacheKey {
	return cacheKey{Cloud: "gcp", Bucket: f.Bucket, Key: f.Key, Generation: f.Generation}
}

// TestCacheEvictObjectDropsAllGenerations pins the eviction
// primitive the poisoning guard relies on: evicting an object removes
// every cached generation of it — and only it.
func TestCacheEvictObjectDropsAllGenerations(t *testing.T) {
	c := NewCache(1 << 20)
	schema := vector.NewSchema(vector.Field{Name: "x", Type: vector.Int64})
	col := vector.NewInt64Column([]int64{1})
	put := func(key string, gen int64) {
		c.add(cacheKey{Cloud: "gcp", Bucket: "lake", Key: key, Generation: gen}, schema, 1, []uint64{1}, []*vector.Column{col})
	}
	put("t/a.blk", 1)
	put("t/a.blk", 2)
	put("t/b.blk", 1)
	if n := c.evictObject("gcp", "lake", "t/a.blk"); n != 2 {
		t.Fatalf("evicted %d entries, want 2", n)
	}
	if _, ok := c.get(cacheKey{Cloud: "gcp", Bucket: "lake", Key: "t/a.blk", Generation: 2}, nil, schema); ok {
		t.Fatal("a.blk generation survived eviction")
	}
	if _, ok := c.get(cacheKey{Cloud: "gcp", Bucket: "lake", Key: "t/b.blk", Generation: 1}, nil, schema); !ok {
		t.Fatal("unrelated object was evicted")
	}
	if c.used != columnBytes(col) {
		t.Fatalf("byte accounting drifted: used=%d want=%d", c.used, columnBytes(col))
	}
}

// TestCacheEntryGrowsByColumn: an entry holds the columns asked for so
// far. A read wanting one more fetches once, decodes only that column —
// the resident one is the same array afterwards — and the entry's bytes
// grow by exactly the new column; a narrower read after that is a hit
// on the same entry; no column is resident twice.
func TestCacheEntryGrowsByColumn(t *testing.T) {
	w := newWideWorld(t)
	f, _ := w.writeWide(t, "t/day=7/w.blk")
	rd := w.reader("scan")
	rd.Cache = NewCache(0)

	sel, out, err := rd.ReadBatch(w.clock, &w.src, f, w.cols("a"), nil, nil)
	if err != nil || !out.CacheMiss || fieldNames(sel.Batch.Schema) != "a " || sel.Batch.N != 100 {
		t.Fatalf("first read: schema %v rows %d outcome %+v err %v", sel.Batch.Schema, sel.Batch.N, out, err)
	}
	ent := rd.Cache.items[keyOf(f)].Value.(*cacheEntry)
	a := ent.cols[0]
	if a == nil || ent.cols[1] != nil || ent.cols[2] != nil || ent.bytes != columnBytes(a) || rd.Cache.used != ent.bytes {
		t.Fatalf("after reading a: cols %v bytes %d used %d", ent.cols, ent.bytes, rd.Cache.used)
	}
	if _, ok := rd.Resident(&w.src, f, w.cols("a", "s")); ok {
		t.Fatal("entry without s reported resident for (a, s)")
	}

	gets, bytes := w.reg.Get("objstore.get.count"), w.reg.Get("objstore.get.bytes")
	sel, out, err = rd.ReadBatch(w.clock, &w.src, f, w.cols("a", "s", "day"), nil,
		[]colfmt.Predicate{{Column: "a", Op: vector.GE, Value: vector.IntValue(90)}})
	if err != nil || !out.CacheMiss || fieldNames(sel.Batch.Schema) != "a s day " || sel.N != 10 {
		t.Fatalf("second read: schema %v selected %d outcome %+v err %v", sel.Batch.Schema, sel.N, out, err)
	}
	// The partial hit fetches the chunks of s, the missing column, and
	// nothing else: one ranged GET per row group (a and b lie between).
	var sBytes int64
	for _, rg := range f.Layout.RowGroups {
		sBytes += rg.Chunks[2].Length
	}
	if got, gotBytes := w.reg.Get("objstore.get.count")-gets, w.reg.Get("objstore.get.bytes")-bytes; got != 2 || gotBytes != sBytes {
		t.Fatalf("partial hit cost %d GETs of %d bytes, want 2 of %d (the chunks of s)", got, gotBytes, sBytes)
	}
	if ent.cols[0] != a || sel.Batch.Cols[0] != a {
		t.Fatal("the resident column was decoded again")
	}
	if s := ent.cols[2]; s == nil || ent.cols[1] != nil || ent.bytes != columnBytes(a)+columnBytes(s) || rd.Cache.used != ent.bytes {
		t.Fatalf("after adding s: cols %v bytes %d used %d", ent.cols, ent.bytes, rd.Cache.used)
	}
	if len(rd.Cache.items) != 1 {
		t.Fatalf("%d entries for one object", len(rd.Cache.items))
	}

	sel, out, err = rd.ReadBatch(w.clock, &w.src, f, w.cols("s"), nil, nil)
	if err != nil || !out.CacheHit || fieldNames(sel.Batch.Schema) != "s " || sel.Batch.Cols[0] != ent.cols[2] {
		t.Fatalf("narrower read: schema %v outcome %+v err %v", sel.Batch.Schema, out, err)
	}
	// No column at all still knows the row count, on the hit path and off it.
	for _, cache := range []*Cache{rd.Cache, nil} {
		rd.Cache = cache
		sel, _, err = rd.ReadBatch(w.clock, &w.src, f, w.cols(), nil, nil)
		if err != nil || sel.Batch.Schema.Len() != 0 || sel.N != 100 {
			t.Fatalf("empty column list: schema %v rows %d err %v", sel.Batch.Schema, sel.N, err)
		}
	}
	// A predicate on a column left out of the list is refused, not dropped.
	if _, _, err := rd.ReadBatch(w.clock, &w.src, f, w.cols("s"), nil,
		[]colfmt.Predicate{{Column: "a", Op: vector.GE, Value: vector.IntValue(90)}}); err == nil {
		t.Fatal("predicate outside the column list was accepted")
	}
}

// TestCacheEvictsByResidentBytes: the budget counts resident column
// bytes, so narrow entries pack tighter than whole files would — and
// still age out least-recently-used first once they no longer fit.
func TestCacheEvictsByResidentBytes(t *testing.T) {
	w := newWideWorld(t)
	var files []bigmeta.FileEntry
	for i := 0; i < 4; i++ {
		f, _ := w.writeWide(t, fmt.Sprintf("t/day=7/w%d.blk", i))
		files = append(files, f)
	}
	rd := w.reader("scan")
	rd.Cache = NewCache(2*800 + 100) // a is 100 x 8 bytes: room for two
	for _, f := range files {
		if _, _, err := rd.ReadBatch(w.clock, &w.src, f, w.cols("a"), nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	if len(rd.Cache.items) != 2 || rd.Cache.used != 1600 {
		t.Fatalf("kept %d entries, %d bytes; want the 2 newest, 1600 bytes", len(rd.Cache.items), rd.Cache.used)
	}
	for i, f := range files {
		if _, ok := rd.Resident(&w.src, f, w.cols("a")); ok != (i >= 2) {
			t.Fatalf("file %d resident = %v", i, ok)
		}
	}
	// Growing one entry past the budget evicts the other, then itself.
	if _, _, err := rd.ReadBatch(w.clock, &w.src, files[3], w.cols("a", "b"), nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, ok := rd.Resident(&w.src, files[2], w.cols("a")); ok || rd.Cache.used != 1600 {
		t.Fatalf("older entry survived the newer one's growth (used %d)", rd.Cache.used)
	}
	sel, _, err := rd.ReadBatch(w.clock, &w.src, files[3], nil, nil, nil)
	if err != nil || sel.Batch.N != 100 || fieldNames(sel.Batch.Schema) != "a b s day " {
		t.Fatalf("oversized read: schema %v err %v", sel.Batch.Schema, err)
	}
	if len(rd.Cache.items) != 0 || rd.Cache.used != 0 {
		t.Fatalf("an entry bigger than the budget was kept: %d entries, %d bytes", len(rd.Cache.items), rd.Cache.used)
	}
}

// TestCacheCorruptChunk: damage in a wanted column fails the read
// typed, adds nothing and evicts the object; damage in a column the
// read does not want is neither served nor cached — the read never
// touches it (the scrubber's whole-file walk is what finds it).
func TestCacheCorruptChunk(t *testing.T) {
	w := newWideWorld(t)
	const key = "t/day=7/w.blk"
	f, data := w.writeWide(t, key)
	rd := w.reader("scan")
	rd.Cache = NewCache(0)
	if _, _, err := rd.ReadBatch(w.clock, &w.src, f, w.cols("a"), nil, nil); err != nil {
		t.Fatal(err)
	}
	w.flipChunk(t, key, data, "b")

	// b is rotten; s is wanted and clean.
	sel, out, err := rd.ReadBatch(w.clock, &w.src, f, w.cols("a", "s"), nil, nil)
	if err != nil || out.Refetched || fieldNames(sel.Batch.Schema) != "a s " {
		t.Fatalf("read around the damage: outcome %+v err %v", out, err)
	}
	if ent := rd.Cache.items[keyOf(f)].Value.(*cacheEntry); ent.cols[1] != nil {
		t.Fatal("the damaged, unwanted column was cached")
	}
	if _, _, err := w.reader("scrub").Verify(w.clock, &w.src, f); !errors.Is(err, integrity.ErrCorrupt) {
		t.Fatalf("whole-file verify of the damaged file: err = %v", err)
	}

	// Now b is wanted.
	w2 := newWideWorld(t)
	f, data = w2.writeWide(t, key)
	rd = w2.reader("scan")
	rd.Cache = NewCache(0)
	if _, _, err := rd.ReadBatch(w2.clock, &w2.src, f, w2.cols("a"), nil, nil); err != nil {
		t.Fatal(err)
	}
	w2.flipChunk(t, key, data, "b")
	_, out, err = rd.ReadBatch(w2.clock, &w2.src, f, w2.cols("a", "b"), nil, nil)
	var ie *integrity.Error
	if !errors.As(err, &ie) || ie.Source != "colfmt.chunk" || ie.Block != "b" || !out.Quarantined {
		t.Fatalf("read of the damaged column: outcome %+v err %v", out, err)
	}
	if len(rd.Cache.items) != 0 || rd.Cache.used != 0 {
		t.Fatalf("detection left %d entries, %d bytes", len(rd.Cache.items), rd.Cache.used)
	}
}

// TestCacheConcurrentFills: readers filling different columns of one
// object (run under -race) each get exactly their columns, and the
// entry ends with each column once.
func TestCacheConcurrentFills(t *testing.T) {
	w := newWideWorld(t)
	f, _ := w.writeWide(t, "t/day=7/w.blk")
	cache := NewCache(0)
	wants := [][]string{{"a"}, {"b"}, {"s"}, {"a", "s"}, {"b", "day"}, nil}
	var wg sync.WaitGroup
	for round := 0; round < 4; round++ {
		for _, names := range wants {
			wg.Add(1)
			go func(names []string) {
				defer wg.Done()
				rd := w.reader("scan")
				rd.Cache = cache
				cols, want := Columns(nil), "a b s day "
				if names != nil {
					cols, want = w.cols(names...), ""
					for _, n := range names {
						want += n + " "
					}
				}
				tr := w.clock.StartTrack()
				defer tr.Join()
				sel, _, err := rd.ReadBatch(tr, &w.src, f, cols, nil, nil)
				if err != nil || fieldNames(sel.Batch.Schema) != want || sel.Batch.N != 100 {
					t.Errorf("want %q: schema %v err %v", want, sel.Batch.Schema, err)
				}
			}(names)
		}
	}
	wg.Wait()
	ent := cache.items[keyOf(f)].Value.(*cacheEntry)
	var total int64
	for j, c := range ent.cols {
		if c == nil {
			t.Fatalf("column %d not resident", j)
		}
		total += columnBytes(c)
	}
	if len(cache.items) != 1 || ent.bytes != total || cache.used != total {
		t.Fatalf("entries %d, entry bytes %d, used %d; want 1, %d, %d", len(cache.items), ent.bytes, cache.used, total, total)
	}
}
