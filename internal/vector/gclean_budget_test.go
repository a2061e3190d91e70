//go:build !race

package vector

import (
	"testing"

	"biglake/internal/arena"
	"biglake/internal/sim"
)

// Per-operator allocs/op budgets, enforced in CI (`make gclean`). Each
// budget is the measured steady-state heap allocation count of the
// kernel running on a warm arena, plus a little headroom for runtime
// jitter — NOT a target to grow into. A failure here means someone put
// a make() or a boxed value back on a hot path; fix the kernel, don't
// raise the number unless the change is deliberate and reviewed.
//
// The counts that remain are output descriptors (Column/Batch headers,
// per-spec accumulator structs), not per-row data: per-row buffers all
// come from the arena.
const (
	budgetCompareConst   = 0
	budgetFilter         = 10 // Column+Batch headers for a 5-col batch
	budgetGather         = 2
	budgetGatherNull     = 2
	budgetHashJoin       = 12 // partition headers + result assembly
	budgetHashJoinN1     = 0  // typed N:1 join, one worker: table, match slots and output all arena
	budgetGroupKeys      = 9  // per-worker table headers + Grouping
	budgetGroupKeysDict  = 0  // dictionary-code grouping: closure-free, all arena
	budgetGroupKeysDense = 0  // direct-address integer grouping, one worker: all arena
	budgetHashJoinDense  = 0  // direct-address N:1 join, one worker: table, match slots and output all arena
	budgetTopK           = 0  // typed top-K, one worker: heap and result all arena
	budgetGroupAggregate = 14 // per-spec partial structs + Value rows
	// The fused walk (COUNT(*), an int and a float SUM over Plain
	// null-free inputs), one group and many: worker, partial and output
	// headers only. Measured 14 and 14.
	budgetFusedAggregate = 16
	budgetMinMax         = 0
	budgetTruthMask      = 0 // nothing beyond the (arena) mask
	budgetSortKey        = 1 // per key; measured 0
	// The fused scan merge, three masked 5-column parts. The two steps it
	// replaced (FilterWith per part + ConcatBatchesWith) measured 34 on
	// the same input.
	budgetFilterConcat = 15
)

// warmKernelWorld builds deterministic inputs sized well past one
// morsel and pre-runs each kernel once so arena slabs exist before
// counting.
type warmKernelWorld struct {
	ar   *arena.Arena
	pool *arena.Pool
	lean Mem
	b    *Batch
	jb   *Batch
	dim  *Batch // one row per value of b's c0: an N:1 build side
	idx  []int
	jidx []int32
	keys []*Column
}

// budgetBatch builds the shapes the scan feeds operators — Plain
// numerics, Dict strings — with deterministic values and nulls. (RLE
// is excluded on purpose: RLE random access decodes eagerly to the
// heap at the operator edge, which is a known cost outside these
// budgets.)
func budgetBatch(r *sim.RNG, n int) *Batch {
	ints := make([]int64, n)
	floats := make([]float64, n)
	strs := make([]string, n)
	bools := make([]bool, n)
	ts := make([]int64, n)
	for i := 0; i < n; i++ {
		ints[i] = int64(r.Intn(12))
		floats[i] = float64(r.Intn(12)) / 2
		strs[i] = [3]string{"aa", "bb", "cc"}[r.Intn(3)]
		bools[i] = r.Intn(2) == 0
		ts[i] = int64(r.Intn(5))
	}
	cols := []*Column{
		NewInt64Column(ints),
		NewFloat64Column(floats),
		DictEncode(NewStringColumn(strs)),
		NewBoolColumn(bools),
		DictEncode(NewTimestampColumn(ts)),
	}
	return MustBatch(NewSchema(
		Field{Name: "c0", Type: Int64}, Field{Name: "c1", Type: Float64},
		Field{Name: "c2", Type: String}, Field{Name: "c3", Type: Bool},
		Field{Name: "c4", Type: Timestamp}), cols)
}

func newWarmKernelWorld() *warmKernelWorld {
	w := &warmKernelWorld{pool: arena.NewPool()}
	w.ar = w.pool.Get()
	w.lean = Mem{Al: w.ar}
	r := sim.NewRNG(42)
	n := MorselRows + 777
	w.b = budgetBatch(r, n)
	w.jb = budgetBatch(r, n/2)
	dimKeys := make([]int64, 12)
	for i := range dimKeys {
		dimKeys[i] = int64(i)
	}
	w.dim = MustBatch(NewSchema(Field{Name: "c0", Type: Int64}), []*Column{NewInt64Column(dimKeys)})
	ri := sim.NewRNG(43)
	w.idx = make([]int, n)
	for i := range w.idx {
		w.idx[i] = ri.Intn(n)
	}
	w.jidx = make([]int32, n)
	for i := range w.jidx {
		w.jidx[i] = int32(ri.Intn(n/2+1)) - 1
	}
	w.keys = []*Column{w.b.Cols[2], w.b.Cols[4]}
	return w
}

// recycle rewinds the arena between measured runs, exactly as the
// engine does between queries, so slab growth never counts as allocs.
func (w *warmKernelWorld) recycle() {
	w.ar.Release()
	w.ar = w.pool.Get()
	w.lean = Mem{Al: w.ar}
}

func measureKernel(t *testing.T, w *warmKernelWorld, name string, budget int, fn func(m Mem)) {
	t.Helper()
	fn(w.lean) // warm slabs
	got := testing.AllocsPerRun(10, func() {
		w.recycle()
		fn(w.lean)
	})
	t.Logf("%s: measured %v allocs/op (budget %d)", name, got, budget)
	if int(got) > budget {
		t.Errorf("%s: %v allocs/op, budget %d — a hot-path heap allocation crept back in", name, got, budget)
	}
}

func TestGCLeanAllocBudgets(t *testing.T) {
	w := newWarmKernelWorld()
	var mask []bool

	measureKernel(t, w, "CompareConstWith", budgetCompareConst, func(m Mem) {
		mask = CompareConstWith(m.Al, w.b.Cols[0], LE, IntValue(6))
	})
	measureKernel(t, w, "FilterWith", budgetFilter, func(m Mem) {
		if _, err := FilterWith(m, w.b, mask); err != nil {
			t.Fatal(err)
		}
	})
	measureKernel(t, w, "GatherWith", budgetGather, func(m Mem) {
		GatherWith(m, w.b.Cols[2], w.idx)
	})
	measureKernel(t, w, "GatherNullWith", budgetGatherNull, func(m Mem) {
		GatherNullWith(m, w.jb.Cols[2], w.jidx)
	})
	measureKernel(t, w, "HashJoinWith", budgetHashJoin, func(m Mem) {
		if _, err := HashJoinWith(m, w.b, w.jb, []int{0, 2}, []int{0, 2}, InnerJoin, 1); err != nil {
			t.Fatal(err)
		}
	})
	// The same keys spread 7 apart: a build range past the density cap,
	// so the typed join hashes.
	spread := func(c *Column) *Batch {
		vals := make([]int64, c.Len)
		for i, v := range c.Ints[:c.Len] {
			vals[i] = 7 * v
		}
		return MustBatch(NewSchema(Field{Name: "c0", Type: Int64}), []*Column{NewInt64Column(vals)})
	}
	sparseFact, sparseDim := spread(w.b.Cols[0]), spread(w.dim.Cols[0])
	measureKernel(t, w, "HashJoinWith/n:1", budgetHashJoinN1, func(m Mem) {
		if res, err := HashJoinWith(m, sparseFact, sparseDim, []int{0}, []int{0}, InnerJoin, 1); err != nil || res.Strategy != JoinN1 || !res.intKey || !res.LeftIdentity {
			t.Fatalf("N:1 join took another path: %+v, %v", res, err)
		}
	})
	measureKernel(t, w, "HashJoinWith/dense", budgetHashJoinDense, func(m Mem) {
		if res, err := HashJoinWith(m, w.b, w.dim, []int{0}, []int{0}, InnerJoin, 1); err != nil || res.Strategy != JoinDense {
			t.Fatalf("dense N:1 join took another path: %+v, %v", res.Strategy, err)
		}
	})
	measureKernel(t, w, "GroupKeysWith/dense", budgetGroupKeysDense, func(m Mem) {
		if g := GroupKeysWith(m, w.b.Cols[:1], w.b.N, 1); g.Strategy != GroupDense {
			t.Fatalf("integer grouping took the %v path", g.Strategy)
		}
	})
	topKeys := []SortKey{ExtractSortKey(Heap, w.b.Cols[1], true), ExtractSortKey(Heap, w.b.Cols[0], true)}
	measureKernel(t, w, "TopK", budgetTopK, func(m Mem) {
		if idx := TopK(m, topKeys, w.b.N, 100); len(idx) != 100 {
			t.Fatalf("TopK returned %d rows, want 100", len(idx))
		}
	})
	measureKernel(t, w, "GroupKeysWith/dict", budgetGroupKeysDict, func(m Mem) {
		if g := GroupKeysWith(m, w.keys[:1], w.b.N, 1); g.Strategy != GroupDict {
			t.Fatalf("dictionary grouping took the %v path", g.Strategy)
		}
	})
	var gr Grouping
	measureKernel(t, w, "GroupKeysWith", budgetGroupKeys, func(m Mem) {
		gr = GroupKeysWith(m, w.keys, w.b.N, 1)
	})
	ids := append([]int32(nil), gr.IDs...) // the measurements below recycle the arena gr came from
	specs := []AggSpec{{Kind: AggCount}, {Kind: AggSum, Col: w.b.Cols[0]}, {Kind: AggMin, Col: w.b.Cols[2]}}
	measureKernel(t, w, "GroupAggregateWith", budgetGroupAggregate, func(m Mem) {
		GroupAggregateWith(m, ids, gr.NumGroups, specs, 1)
	})
	fused := []AggSpec{{Kind: AggCount}, {Kind: AggSum, Col: w.b.Cols[0]}, {Kind: AggSum, Col: w.b.Cols[1]}}
	one := make([]int32, len(ids))
	measureKernel(t, w, "GroupAggregateWith/fused one group", budgetFusedAggregate, func(m Mem) {
		GroupAggregateWith(m, one, 1, fused, 1)
	})
	measureKernel(t, w, "GroupAggregateWith/fused", budgetFusedAggregate, func(m Mem) {
		GroupAggregateWith(m, ids, gr.NumGroups, fused, 1)
	})

	// The typed kernels that took the boxed per-row loops' place.
	measureKernel(t, w, "MinMax", budgetMinMax, func(m Mem) {
		for _, c := range w.b.Cols {
			MinMax(c)
		}
	})
	measureKernel(t, w, "TruthMask", budgetTruthMask, func(m Mem) {
		TruthMask(m.Al, w.b.Cols[3])
	})
	keys := make([]SortKey, len(w.b.Cols))
	measureKernel(t, w, "ExtractSortKey", budgetSortKey*len(keys), func(m Mem) {
		for i, c := range w.b.Cols {
			keys[i] = ExtractSortKey(m.Al, c, i%2 == 0)
		}
	})
	parts := make([]Selection, 3)
	for i, b := range []*Batch{w.b, w.jb, w.b} {
		parts[i], _ = Select(b, CompareConst(b.Cols[0], LE, IntValue(6)))
	}
	measureKernel(t, w, "FilterConcatWith", budgetFilterConcat, func(m Mem) {
		if _, err := FilterConcatWith(m, parts); err != nil {
			t.Fatal(err)
		}
	})
}
