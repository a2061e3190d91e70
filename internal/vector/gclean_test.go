package vector

import (
	"fmt"
	"runtime"
	"testing"

	"biglake/internal/arena"
	"biglake/internal/sim"
)

// This file checks the GC-lean path — arena allocation plus dictionary
// late materialization — against the legacy heap/eager-decode path at
// the kernel level: same inputs, value-identical outputs, for every
// kernel the engine threads its Mem through. Whole-query parity is
// covered by the oracle matrix (which runs with GCLean on); this is
// the fast, targeted version that points at the broken kernel.

// randomLeanColumn builds a column of the given type with nulls, low
// cardinality (so joins and groups collide), and a random encoding:
// plain, dict, or RLE.
func randomLeanColumn(r *sim.RNG, t Type, n int) *Column {
	bl := NewBuilder(NewSchema(Field{Name: "c", Type: t}))
	for i := 0; i < n; i++ {
		if r.Intn(8) == 0 {
			bl.Append(Value{})
			continue
		}
		switch t {
		case Int64, Timestamp:
			bl.Append(Value{Type: t, I: int64(r.Intn(12))})
		case Float64:
			bl.Append(FloatValue(float64(r.Intn(12)) / 2))
		case Bool:
			bl.Append(BoolValue(r.Intn(2) == 0))
		case String, Bytes:
			bl.Append(Value{Type: t, S: fmt.Sprintf("v%02d", r.Intn(12))})
		}
	}
	c := bl.Build().Cols[0]
	switch r.Intn(3) {
	case 1:
		return DictEncode(c)
	case 2:
		return RLEncode(c)
	}
	return c
}

func randomLeanBatch(r *sim.RNG, n int) *Batch {
	types := []Type{Int64, Float64, String, Bool, Timestamp}
	fields := make([]Field, len(types))
	cols := make([]*Column, len(types))
	for i, t := range types {
		fields[i] = Field{Name: fmt.Sprintf("c%d", i), Type: t}
		cols[i] = randomLeanColumn(r, t, n)
	}
	return MustBatch(NewSchema(fields...), cols)
}

// sameValues compares two columns row by row at the Value level — the
// late-materialized side may still be Dict-encoded, which is exactly
// the point: encoding may differ, values may not.
func sameValues(t *testing.T, what string, a, b *Column) {
	t.Helper()
	if a.Len != b.Len {
		t.Fatalf("%s: len %d vs %d", what, a.Len, b.Len)
	}
	for i := 0; i < a.Len; i++ {
		av, bv := a.Value(i), b.Value(i)
		if !av.Equal(bv) {
			t.Fatalf("%s: row %d: %s vs %s", what, i, av, bv)
		}
	}
}

func sameBatches(t *testing.T, what string, a, b *Batch) {
	t.Helper()
	if a.N != b.N || len(a.Cols) != len(b.Cols) {
		t.Fatalf("%s: shape (%d,%d) vs (%d,%d)", what, a.N, len(a.Cols), b.N, len(b.Cols))
	}
	for i := range a.Cols {
		sameValues(t, fmt.Sprintf("%s col %d", what, i), a.Cols[i], b.Cols[i])
	}
}

func sameI32(t *testing.T, what string, a, b []int32) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: len %d vs %d", what, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: [%d] = %d vs %d", what, i, a[i], b[i])
		}
	}
}

// TestGCLeanKernelParity drives every Mem-threaded kernel with the
// legacy policy and the lean policy on identical random inputs,
// including multi-morsel sizes and several worker counts, and demands
// value-identical results.
func TestGCLeanKernelParity(t *testing.T) {
	pool := arena.NewPool()
	for seed := uint64(1); seed <= 8; seed++ {
		for _, n := range []int{0, 1, 37, MorselRows + 511} {
			ar := pool.Get()
			lean := Mem{Al: ar}
			heap := Mem{}
			r1 := sim.NewRNG(seed*1000 + uint64(n))
			r2 := sim.NewRNG(seed*1000 + uint64(n))
			b1 := randomLeanBatch(r1, n)
			b2 := randomLeanBatch(r2, n)
			workers := 1 + int(seed%4)

			// CompareConst + Filter.
			m1 := CompareConstWith(nil, b1.Cols[0], LE, IntValue(6))
			m2 := CompareConstWith(ar, b2.Cols[0], LE, IntValue(6))
			f1, err1 := FilterWith(heap, b1, m1)
			f2, err2 := FilterWith(lean, b2, m2)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("filter err mismatch: %v vs %v", err1, err2)
			}
			sameBatches(t, "filter", f1, f2)

			// Gather (ORDER BY shape: arbitrary permutation w/ repeats).
			if n > 0 {
				ri := sim.NewRNG(seed ^ uint64(n))
				idx := make([]int, n/2+1)
				for i := range idx {
					idx[i] = ri.Intn(n)
				}
				for ci := range b1.Cols {
					g1 := GatherWith(heap, b1.Cols[ci], idx)
					g2 := GatherWith(lean, b2.Cols[ci], idx)
					sameValues(t, fmt.Sprintf("gather col %d", ci), g1, g2)
				}
			}

			// HashJoin + GatherNull (join output materialization shape).
			jb1 := randomLeanBatch(r1, n/2+1)
			jb2 := randomLeanBatch(r2, n/2+1)
			jr1, err1 := HashJoinWith(heap, []Selection{Whole(b1)}, jb1, []int{0, 2}, []int{0, 2}, LeftOuterJoin, workers)
			jr2, err2 := HashJoinWith(lean, []Selection{Whole(b2)}, jb2, []int{0, 2}, []int{0, 2}, LeftOuterJoin, workers)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("join err mismatch: %v vs %v", err1, err2)
			}
			if err1 == nil {
				sameI32(t, "join left", jr1.Left, jr2.Left)
				sameI32(t, "join right", jr1.Right, jr2.Right)
				sameI32(t, "join outer", jr1.LeftOuter, jr2.LeftOuter)
				nullIdx1 := append(append([]int32{}, jr1.Right...), -1, -1)
				nullIdx2 := append(append([]int32{}, jr2.Right...), -1, -1)
				for ci := range jb1.Cols {
					g1 := GatherNullWith(heap, jb1.Cols[ci], nullIdx1)
					g2 := GatherNullWith(lean, jb2.Cols[ci], nullIdx2)
					sameValues(t, fmt.Sprintf("gathernull col %d", ci), g1, g2)
				}
			}

			// GroupKeys + GroupAggregate.
			gr1 := GroupKeysWith(heap, one(n, b1.Cols[2], b1.Cols[4]), []*Column{b1.Cols[2], b1.Cols[4]}, workers)
			gr2 := GroupKeysWith(lean, one(n, b2.Cols[2], b2.Cols[4]), []*Column{b2.Cols[2], b2.Cols[4]}, workers)
			if gr1.NumGroups != gr2.NumGroups {
				t.Fatalf("groups: %d vs %d", gr1.NumGroups, gr2.NumGroups)
			}
			sameI32(t, "group ids", gr1.IDs, gr2.IDs)
			sameI32(t, "group reps", gr1.Rep, gr2.Rep)
			specs1 := []AggSpec{{Kind: AggCount}, {Kind: AggSum, Col: b1.Cols[1]}, {Kind: AggMin, Col: b1.Cols[2]}, {Kind: AggMax, Col: b1.Cols[0]}}
			specs2 := []AggSpec{{Kind: AggCount}, {Kind: AggSum, Col: b2.Cols[1]}, {Kind: AggMin, Col: b2.Cols[2]}, {Kind: AggMax, Col: b2.Cols[0]}}
			a1 := GroupAggregateWith(heap, specsIn(len(gr1.IDs), specs1), gr1.IDs, gr1.NumGroups, specs1, workers)
			a2 := GroupAggregateWith(lean, specsIn(len(gr2.IDs), specs2), gr2.IDs, gr2.NumGroups, specs2, workers)
			for si := range a1 {
				sameValues(t, fmt.Sprintf("agg spec %d", si), a1[si], a2[si])
			}

			ar.Release()
		}
	}
}

// TestGCLeanLateMatStaysEncoded pins the point of late materialization:
// a Dict string column gathered under the lean policy stays Dict and
// shares its dictionary arrays with the source (no per-row decode).
func TestGCLeanLateMatStaysEncoded(t *testing.T) {
	src := DictEncode(NewStringColumn([]string{"a", "b", "a", "c", "b", "a"}))
	ar := arena.New()
	lean := Mem{Al: ar}

	g := GatherWith(lean, src, []int{5, 0, 3, 3, 1})
	if g.Enc != Dict {
		t.Fatalf("GatherWith under a pooled Mem: enc = %v, want Dict", g.Enc)
	}
	if &g.Strs[0] != &src.Strs[0] {
		t.Fatalf("GatherWith under a pooled Mem copied the dictionary")
	}
	if !g.Pooled {
		t.Fatalf("arena-backed gather output not marked Pooled")
	}

	gn := GatherNullWith(lean, src, []int32{2, -1, 4})
	if gn.Enc != Dict {
		t.Fatalf("GatherNullWith under a pooled Mem: enc = %v, want Dict", gn.Enc)
	}
	if !gn.Value(1).IsNull() {
		t.Fatalf("negative index did not become NULL")
	}

	// Eager path for contrast: the same gather decodes to Plain.
	if g := GatherWith(Mem{}, src, []int{0, 1}); g.Enc != Plain {
		t.Fatalf("eager gather should decode, got %v", g.Enc)
	}
}

// TestGCLeanDetachOutlivesArena is the kernel-level lifetime property:
// a detached batch keeps its values after the arena that produced it is
// reset and recycled by later "queries" that scribble over the slabs.
func TestGCLeanDetachOutlivesArena(t *testing.T) {
	pool := arena.NewPool()
	ar := pool.Get()
	lean := Mem{Al: ar}

	r := sim.NewRNG(7)
	src := randomLeanBatch(r, 500)
	mask := CompareConstWith(ar, src.Cols[0], GE, IntValue(3))
	got, err := FilterWith(lean, src, mask)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]Value, got.N)
	for i := range want {
		want[i] = got.Row(i)
	}

	detached := DetachBatch(got)
	for _, c := range detached.Cols {
		if c.Pooled {
			t.Fatalf("detached column still marked Pooled")
		}
	}
	ar.Release()

	// Recycle the arena several times and fill it with different data.
	for q := 0; q < 4; q++ {
		ar2 := pool.Get()
		for i := range ar2.Int64s(4096) {
			_ = i
		}
		s := ar2.Strings(4096)
		for i := range s {
			s[i] = "poison"
		}
		ar2.Release()
	}

	for i := range want {
		row := detached.Row(i)
		for j := range row {
			if !row[j].Equal(want[i][j]) {
				t.Fatalf("row %d col %d changed after recycle: %s vs %s", i, j, row[j], want[i][j])
			}
		}
	}
}

// TestGCLeanDetachOneRowOfBigDictionary: detaching a one-row Dict
// column — what a pooled gather of one row out of a dictionary-encoded
// file gives — allocates the same bytes whether the dictionary it shares
// holds a thousand entries or a hundred thousand: the row is detached as
// its value, not as a code plus a copy of the whole dictionary.
func TestGCLeanDetachOneRowOfBigDictionary(t *testing.T) {
	perDetach := func(typ Type, entries int) float64 {
		src := &Column{Type: typ, Len: entries, Enc: Dict, Codes: make([]uint32, entries)}
		for i := range src.Codes {
			src.Codes[i] = uint32(i)
		}
		if typ == String {
			src.Strs = make([]string, entries)
			for i := range src.Strs {
				src.Strs[i] = fmt.Sprintf("value-%06d", i)
			}
		} else {
			src.Ints = make([]int64, entries)
			for i := range src.Ints {
				src.Ints[i] = int64(i) * 3
			}
		}
		ar := arena.New()
		one := GatherWith(Mem{Al: ar}, src, []int{entries / 2})
		if one.Enc != Dict || !one.Pooled {
			t.Fatalf("pooled gather: enc %v pooled %v, want a pooled Dict column", one.Enc, one.Pooled)
		}
		const runs = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			d := DetachColumn(one)
			if d.Pooled || !d.Value(0).Equal(src.Value(entries/2)) {
				t.Fatalf("detached %v, want %v", d.Value(0), src.Value(entries/2))
			}
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	for _, typ := range []Type{Int64, String} {
		small, big := perDetach(typ, 1000), perDetach(typ, 100000)
		t.Logf("%v: %.0f B per detach at 1,000 entries, %.0f B at 100,000", typ, small, big)
		if small > 512 || big > 512 {
			t.Errorf("%v: detaching one row allocates %.0f B (1,000 entries) and %.0f B (100,000 entries); want it bounded by the row, not the dictionary", typ, small, big)
		}
	}
}
