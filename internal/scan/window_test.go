package scan

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"biglake/internal/arena"
	"biglake/internal/bigmeta"
	"biglake/internal/colfmt"
	"biglake/internal/sim"
	"biglake/internal/vector"
)

// windowSchema is the table the window tests read: id sorted, u an
// unsorted Plain column, d Dict, r RLE, f Float64, and day a hive
// partition column the files do not store.
var windowSchema = vector.NewSchema(
	vector.Field{Name: "id", Type: vector.Int64},
	vector.Field{Name: "u", Type: vector.Int64},
	vector.Field{Name: "d", Type: vector.String},
	vector.Field{Name: "r", Type: vector.Int64},
	vector.Field{Name: "f", Type: vector.Float64},
	vector.Field{Name: "day", Type: vector.Int64},
)

// windowBatch is an n-row file of windowSchema's stored columns whose
// ids ascend with duplicates and gaps from base.
func windowBatch(r *sim.RNG, n int, base int64) *vector.Batch {
	ids, us, rs := make([]int64, n), make([]int64, n), make([]int64, n)
	ds, fs := make([]string, n), make([]float64, n)
	v := base
	for i := 0; i < n; i++ {
		v += int64(r.Intn(3))
		ids[i], us[i], rs[i] = v, int64(r.Intn(10)), int64(i/5)
		ds[i], fs[i] = fmt.Sprintf("d%d", r.Intn(4)), float64(r.Intn(7))/2
	}
	id := vector.NewInt64Column(ids)
	id.Sorted = vector.Ascending(id)
	return vector.MustBatch(vector.NewSchema(windowSchema.Fields[:5]...), []*vector.Column{
		id, vector.NewInt64Column(us), vector.DictEncode(vector.NewStringColumn(ds)),
		vector.RLEncode(vector.NewInt64Column(rs)), vector.NewFloat64Column(fs),
	})
}

// unsorted is b with the Sorted mark taken off its columns: what Select
// evaluated, row by row, before it could window.
func unsorted(b *vector.Batch) *vector.Batch {
	cols := make([]*vector.Column, len(b.Cols))
	for i, c := range b.Cols {
		cp := *c
		cp.Sorted = false
		cols[i] = &cp
	}
	return &vector.Batch{Schema: b.Schema, Cols: cols, N: b.N}
}

func rowsOf(b *vector.Batch) string {
	var sb strings.Builder
	for i := 0; i < b.N; i++ {
		fmt.Fprintln(&sb, b.Row(i))
	}
	return sb.String()
}

func mergeRows(t *testing.T, parts ...vector.Selection) string {
	t.Helper()
	b, err := vector.FilterConcatWith(vector.Mem{}, parts)
	if err != nil {
		t.Fatal(err)
	}
	return rowsOf(b)
}

// TestSelectWindowMatchesMask: a windowed Select selects the rows the
// full-width mask over the same batch did, in the same order, alone and
// merged with another file — over random sorted ids with duplicates and
// gaps, keys absent and at the first and last row, empty windows,
// MinInt64/MaxInt64 literals, a second predicate on an unsorted Plain,
// Dict or RLE column evaluated inside the window, and the hive
// partition column injected over it. NE, float and string literals on
// the sorted column stay residual.
func TestSelectWindowMatchesMask(t *testing.T) {
	r := sim.NewRNG(5)
	cols := ColumnsOf(windowSchema, "id", "u", "d", "r", "f", "day")
	part := map[string]string{"day": "7"}
	p := func(col string, op vector.CmpOp, v vector.Value) colfmt.Predicate {
		return colfmt.Predicate{Column: col, Op: op, Value: v}
	}
	windowed := 0
	for trial := 0; trial < 300; trial++ {
		n := 1 + r.Intn(200)
		b := windowBatch(r, n, int64(r.Intn(40))-20)
		other := windowBatch(r, 1+r.Intn(50), 500)
		ids := b.Cols[0].Ints
		keys := []int64{math.MinInt64, math.MaxInt64, ids[0], ids[n-1], ids[r.Intn(n)], ids[r.Intn(n)] + 1, ids[0] - 1, ids[n-1] + 1}
		key := func() vector.Value { return vector.IntValue(keys[r.Intn(len(keys))]) }
		ops := []vector.CmpOp{vector.EQ, vector.LT, vector.LE, vector.GT, vector.GE}
		preds := []colfmt.Predicate{p("id", ops[r.Intn(len(ops))], key())}
		if r.Intn(2) == 0 { // a range, BETWEEN's shape, possibly empty
			preds = append(preds, p("id", ops[1+r.Intn(4)], key()))
		}
		switch r.Intn(5) {
		case 0:
			preds = append(preds, p("u", vector.GE, vector.IntValue(int64(r.Intn(10)))))
		case 1:
			preds = append(preds, p("d", vector.NE, vector.StringValue("d1")))
		case 2:
			preds = append(preds, p("r", vector.LE, vector.IntValue(int64(r.Intn(n/5+1)))))
		case 3:
			preds = append(preds, p("day", vector.EQ, vector.IntValue(7))) // consumed by pruning
		}
		got, err := Select(nil, b, cols, preds, part, windowSchema)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Select(nil, unsorted(b), cols, preds, part, windowSchema)
		if err != nil {
			t.Fatal(err)
		}
		if lo, hi := want.Lo, want.Hi; lo != 0 || hi != n {
			t.Fatalf("unsorted select windowed [%d, %d)", lo, hi)
		}
		if got.Hi-got.Lo < n {
			windowed++
		}
		if got.N != want.N || got.Batch.N != n || mergeRows(t, got) != mergeRows(t, want) {
			t.Fatalf("trial %d %v over %v: windowed select %d rows, mask %d\n%s\nvs\n%s",
				trial, preds, ids, got.N, want.N, mergeRows(t, got), mergeRows(t, want))
		}
		o, err := Select(nil, other, cols, preds[:1], part, windowSchema)
		if err != nil {
			t.Fatal(err)
		}
		ow, err := Select(nil, unsorted(other), cols, preds[:1], part, windowSchema)
		if err != nil {
			t.Fatal(err)
		}
		if mergeRows(t, got, o, got) != mergeRows(t, want, ow, want) {
			t.Fatalf("trial %d %v: windowed merge differs", trial, preds)
		}
		if got.N > 0 && !strings.Contains(mergeRows(t, got), " 7]") {
			t.Fatalf("partition column missing: %s", mergeRows(t, got))
		}
	}
	if windowed < 150 {
		t.Fatalf("only %d of 300 selections were windowed", windowed)
	}

	b := windowBatch(r, 100, 0)
	for _, pr := range []colfmt.Predicate{
		p("id", vector.NE, vector.IntValue(b.Cols[0].Ints[50])),
		p("id", vector.EQ, vector.FloatValue(float64(b.Cols[0].Ints[50]))),
		p("id", vector.GE, vector.StringValue("50")),
		p("id", vector.EQ, vector.NullValue),
	} {
		sel, err := Select(nil, b, cols, []colfmt.Predicate{pr}, part, windowSchema)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := Select(nil, unsorted(b), cols, []colfmt.Predicate{pr}, part, windowSchema)
		if lo, hi := sel.Lo, sel.Hi; lo != 0 || hi != b.N || sel.N != want.N || mergeRows(t, sel) != mergeRows(t, want) {
			t.Fatalf("%v: window [%d, %d) N %d, want residual with N %d", pr, lo, hi, sel.N, want.N)
		}
	}
}

// writeSorted stores n rows x = 0, 2, 4, ... at key and returns the
// pinned entry.
func (w *world) writeSorted(t *testing.T, key string, n int) bigmeta.FileEntry {
	t.Helper()
	xs := make([]int64, n)
	for i := range xs {
		xs[i] = 2 * int64(i)
	}
	b := vector.MustBatch(vector.NewSchema(vector.Field{Name: "x", Type: vector.Int64}), []*vector.Column{vector.NewInt64Column(xs)})
	data, err := colfmt.WriteFile(b, colfmt.WriterOptions{})
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
	return f
}

// countingAlloc counts the elements drawn through it.
type countingAlloc struct {
	vector.Alloc
	n int
}

func (a *countingAlloc) Int64s(n int) []int64     { a.n += n; return a.Alloc.Int64s(n) }
func (a *countingAlloc) Float64s(n int) []float64 { a.n += n; return a.Alloc.Float64s(n) }
func (a *countingAlloc) Bools(n int) []bool       { a.n += n; return a.Alloc.Bools(n) }
func (a *countingAlloc) Strings(n int) []string   { a.n += n; return a.Alloc.Strings(n) }
func (a *countingAlloc) Int32s(n int) []int32     { a.n += n; return a.Alloc.Int32s(n) }
func (a *countingAlloc) Uint32s(n int) []uint32   { a.n += n; return a.Alloc.Uint32s(n) }
func (a *countingAlloc) Uint64s(n int) []uint64   { a.n += n; return a.Alloc.Uint64s(n) }
func (a *countingAlloc) Ints(n int) []int         { a.n += n; return a.Alloc.Ints(n) }

// TestGCLeanSortedPointLookup: the cache records a resident ascending
// column as Sorted, and a point lookup on it — Select and the merge —
// finds its row by binary search, drawing a handful of elements from
// the allocator instead of a mask the width of the file.
func TestGCLeanSortedPointLookup(t *testing.T) {
	w := newWorld(t)
	rd := w.reader("scan")
	rd.Cache = NewCache(0)
	f := w.writeSorted(t, "t/day=7/sorted.blk", 8192)
	if _, _, err := rd.ReadBatch(w.clock, &w.src, f, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	b, ok := rd.Resident(&w.src, f, nil)
	if !ok || b.N != 8192 || !b.Column("x").Sorted {
		t.Fatalf("resident %v, %d rows, x sorted %v", ok, b.N, ok && b.Column("x").Sorted)
	}
	for _, k := range []int64{0, 8484, 16382, 8485} {
		al := &countingAlloc{Alloc: vector.Heap}
		sel, err := Select(al, b, nil, []colfmt.Predicate{{Column: "x", Op: vector.EQ, Value: vector.IntValue(k)}}, f.Partition, w.src.Table.Schema)
		if err != nil {
			t.Fatal(err)
		}
		out, err := vector.FilterConcatWith(vector.Mem{Al: al}, []vector.Selection{sel})
		if err != nil {
			t.Fatal(err)
		}
		want := "[" + fmt.Sprint(k) + " 7]\n"
		if k%2 == 1 {
			want = ""
		}
		if got := rowsOf(out); got != want || al.n > 64 {
			t.Fatalf("x = %d: rows %q, want %q; drew %d elements, budget 64", k, got, want, al.n)
		}
	}
}

// TestWindowOutlivesArenaAndCache: a windowed result, once it passes
// the copy-out boundary (DetachBatch), keeps its values while the arena
// that produced it is recycled and the scan-cache entry it was read
// from is evicted and refilled concurrently — whether the window lies
// over a cache-resident column or over an arena-backed one.
func TestWindowOutlivesArenaAndCache(t *testing.T) {
	pool := arena.NewPool()
	scribble := func() {
		for q := 0; q < 4; q++ {
			ar := pool.Get()
			for i, x := range ar.Int64s(1 << 14) {
				_, _ = i, x
			}
			xs := ar.Int64s(1 << 14)
			for i := range xs {
				xs[i] = -1
			}
			ar.Release()
		}
	}
	check := func(t *testing.T, b *vector.Batch, lo int64, n int) {
		t.Helper()
		if b.N != n {
			t.Fatalf("%d rows, want %d", b.N, n)
		}
		for i := 0; i < n; i++ {
			if got := b.Cols[0].Value(i).AsInt(); got != lo+2*int64(i) {
				t.Fatalf("row %d = %d, want %d", i, got, lo+2*int64(i))
			}
		}
	}

	t.Run("cache-resident", func(t *testing.T) {
		w := newWorld(t)
		rd := w.reader("scan")
		rd.Cache = NewCache(0)
		f := w.writeSorted(t, "t/day=7/sorted.blk", 4096)
		preds := []colfmt.Predicate{
			{Column: "x", Op: vector.GE, Value: vector.IntValue(1000)},
			{Column: "x", Op: vector.LE, Value: vector.IntValue(1998)},
		}
		cols := ColumnsOf(w.src.Table.Schema, "x")
		var held []*vector.Batch
		for i := 0; i < 2; i++ { // a miss that fills, then a hit
			ar := pool.Get()
			sel, _, err := rd.ReadBatch(w.clock, &w.src, f, cols, ar, preds)
			if err != nil {
				t.Fatal(err)
			}
			if lo, hi := sel.Lo, sel.Hi; lo != 500 || hi != 1000 || sel.Sel != nil {
				t.Fatalf("read %d: window [%d, %d) rows %v, want [500, 1000) and no rows", i, lo, hi, sel.Sel != nil)
			}
			out, err := vector.FilterConcatWith(vector.Mem{Al: ar}, []vector.Selection{sel, sel})
			if err != nil {
				t.Fatal(err)
			}
			held = append(held, vector.DetachBatch(out))
			ar.Release()
		}
		var wg sync.WaitGroup
		for g := 0; g < 3; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for q := 0; q < 5; q++ {
					rd.Cache.evictObject("gcp", testBucket, f.Key)
					if _, _, err := rd.ReadBatch(sim.NewClock(), &w.src, f, cols, nil, preds); err != nil {
						t.Error(err)
					}
					scribble()
				}
			}()
		}
		wg.Wait()
		for _, b := range held {
			check(t, vector.SliceBatch(b, 0, 500), 1000, 500)
			check(t, vector.SliceBatch(b, 500, 1000), 1000, 500)
		}
	})

	t.Run("arena-backed", func(t *testing.T) {
		src := pool.Get()
		xs := src.Int64s(4096)
		for i := range xs {
			xs[i] = 2 * int64(i)
		}
		c := &vector.Column{Type: vector.Int64, Len: len(xs), Enc: vector.Plain, Ints: xs, Pooled: true}
		c.Sorted = vector.Ascending(c)
		b := vector.MustBatch(vector.NewSchema(vector.Field{Name: "x", Type: vector.Int64}), []*vector.Column{c})
		lo, hi, _ := vector.SortedWindow(c, vector.GE, vector.IntValue(3000))
		sel, err := vector.Window(b, lo, hi, nil)
		if err != nil {
			t.Fatal(err)
		}
		var held []*vector.Batch
		for _, parts := range [][]vector.Selection{{sel}, {sel, sel}} {
			ar := pool.Get()
			out, err := vector.FilterConcatWith(vector.Mem{Al: ar}, parts)
			if err != nil {
				t.Fatal(err)
			}
			if !out.Cols[0].Pooled {
				t.Fatal("a merge drawn from an arena is not marked Pooled")
			}
			held = append(held, vector.DetachBatch(out))
			ar.Release()
		}
		// LIMIT's window of the arena-backed batch itself.
		held = append(held, vector.DetachBatch(vector.SliceBatch(b, lo, lo+10)))
		src.Release()
		var wg sync.WaitGroup
		for g := 0; g < 3; g++ {
			wg.Add(1)
			go func() { defer wg.Done(); scribble() }()
		}
		wg.Wait()
		check(t, held[0], 3000, hi-lo)
		check(t, vector.SliceBatch(held[1], hi-lo, 2*(hi-lo)), 3000, hi-lo)
		check(t, held[2], 3000, 10)
	})
}

// TestSelectionOutlivesEviction: a selection over a file's
// cache-resident columns keeps them reachable. While other goroutines
// evict the file's entry, read it back and scribble over recycled arena
// slabs, the grouping, aggregates, top-K and merge over a selection
// taken before answer as they did — and under -race (make race), no
// byte a selection reads is written by anyone.
func TestSelectionOutlivesEviction(t *testing.T) {
	w := newWorld(t)
	rd := w.reader("scan")
	rd.Cache = NewCache(0)
	f := w.writeSorted(t, "t/day=7/sel.blk", 3*vector.MorselRows)
	cols := ColumnsOf(w.src.Table.Schema, "x")
	preds := []colfmt.Predicate{
		{Column: "x", Op: vector.GE, Value: vector.IntValue(1000)}, // the sorted window
		{Column: "x", Op: vector.NE, Value: vector.IntValue(5000)}, // rows selected in it
	}
	pool := arena.NewPool()
	ar := pool.Get()
	defer ar.Release()
	var sel vector.Selection
	for i := 0; i < 2; i++ { // a miss that fills, then a hit
		var err error
		if sel, _, err = rd.ReadBatch(w.clock, &w.src, f, cols, ar, preds); err != nil {
			t.Fatal(err)
		}
	}
	if sel.Sel == nil || sel.Lo == 0 {
		t.Fatalf("selection [%d, %d) with rows %v: want a window with rows selected", sel.Lo, sel.Hi, sel.Sel != nil)
	}
	in := []vector.Selection{sel}
	answer := func() string {
		q := pool.Get()
		defer q.Release()
		m := vector.Mem{Al: q}
		x := sel.Batch.Cols[0]
		g := vector.GroupKeysWith(m, in, []*vector.Column{x}, 2)
		aggs := vector.GroupAggregateWith(m, in, g.IDs, g.NumGroups, []vector.AggSpec{{Kind: vector.AggCount}, {Kind: vector.AggSum, Col: x}, {Kind: vector.AggMax, Col: x}}, 2)
		ids := make([]int32, vector.Count(in))
		sums := vector.GroupAggregateWith(m, in, ids, 1, []vector.AggSpec{{Kind: vector.AggSum, Col: x}}, 2)
		top := vector.TopK(m, in, []vector.SortKey{vector.ExtractSortKey(q, in, x, true)}, 5)
		out, _, err := vector.FilterConcatWorkers(m, in, 2)
		if err != nil {
			t.Error(err)
			return ""
		}
		return fmt.Sprint(g.NumGroups, g.Rep[:3], aggs[0].Value(0), aggs[1].Value(0), aggs[2].Value(0), sums[0].Value(0), top,
			out.N, out.Cols[0].Value(0), out.Cols[0].Value(out.N-1))
	}
	want := answer()
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := 0; q < 5; q++ {
				rd.Cache.evictObject("gcp", testBucket, f.Key)
				if _, _, err := rd.ReadBatch(sim.NewClock(), &w.src, f, cols, nil, preds); err != nil {
					t.Error(err)
				}
				s := pool.Get()
				for i, xs := 0, s.Int64s(1<<14); i < len(xs); i++ {
					xs[i] = -1
				}
				s.Release()
			}
		}()
	}
	for q := 0; q < 5; q++ {
		if got := answer(); got != want {
			t.Fatalf("after eviction: %s, want %s", got, want)
		}
	}
	wg.Wait()
	if got := answer(); got != want {
		t.Fatalf("after eviction: %s, want %s", got, want)
	}
}
