package vector

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"biglake/internal/arena"
	"biglake/internal/sim"
)

// mergeColumn builds an n-row column of type t: Plain, Dict or RLE at
// random, null-free or with about one NULL in eight rows, values from a
// small domain so that Dict and RLE are real encodings.
func mergeColumn(r *sim.RNG, t Type, n int) *Column {
	nulls := r.Intn(2) == 0
	bl := NewBuilder(NewSchema(Field{Name: "c", Type: t}))
	for i := 0; i < n; i++ {
		if nulls && r.Intn(8) == 0 {
			bl.Append(Value{})
			continue
		}
		v := r.Intn(40)
		if r.Intn(4) != 0 {
			v = i / 64 // runs, for RLE
		}
		switch t {
		case Int64, Timestamp:
			bl.Append(Value{Type: t, I: int64(v) - 7})
		case Float64:
			bl.Append(FloatValue(float64(v) / 4))
		case Bool:
			bl.Append(BoolValue(v%3 == 0))
		default:
			bl.Append(Value{Type: t, S: fmt.Sprintf("s%03d", v)})
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

// mergeParts draws the parts of one merge: batches of every type and
// encoding, windows, masks of every density, and the parts a scan
// skips (no batch) or selects nothing from.
func mergeParts(r *sim.RNG, schema Schema) []Selection {
	sizes := []int{0, 1, 37, 700, MorselRows, MorselRows + 333, 2*MorselRows + 5}
	parts := make([]Selection, r.Intn(7))
	for pi := range parts {
		if r.Intn(8) == 0 {
			continue // a quarantined or cold-skipped file
		}
		n := sizes[r.Intn(len(sizes))]
		cols := make([]*Column, schema.Len())
		for ci, f := range schema.Fields {
			cols[ci] = mergeColumn(r, f.Type, n)
		}
		b := MustBatch(schema, cols)
		lo, hi := 0, n
		if r.Intn(3) == 0 {
			lo = r.Intn(n + 1)
			hi = lo + r.Intn(n-lo+1)
		}
		var mask []bool
		if density := r.Intn(4); density > 0 {
			mask = make([]bool, hi-lo)
			for i := range mask {
				mask[i] = density == 3 || r.Intn(100) < 62*(density-1)
			}
		}
		sel, err := Window(b, lo, hi, maskRows(mask, lo))
		if err != nil {
			panic(err)
		}
		parts[pi] = sel
	}
	return parts
}

// dirtyArena returns a recycled arena whose slabs hold garbage, so an
// output slot a merge forgets to write shows up as a wrong value.
func dirtyArena(pool *arena.Pool) *arena.Arena {
	ar := pool.Get()
	for i := range 3 {
		is, fs, bs, us := ar.Int64s(1<<16), ar.Float64s(1<<16), ar.Bools(1<<16), ar.Uint32s(1<<16)
		for j := range is {
			is[j], fs[j], bs[j], us[j] = int64(-j-i), float64(j)+0.5, j%3 != 0, uint32(j*7+i)
		}
		ss := ar.Strings(1 << 12)
		for j := range ss {
			ss[j] = "garbage"
		}
	}
	ar.Release()
	return pool.Get()
}

// physical renders a batch with its physical shape — each column's
// encoding, whether it carries a null array, and its values — so two
// merges compare bit for bit, not just by value.
func physical(b *Batch) string {
	if b == nil {
		return "<nil>"
	}
	var s strings.Builder
	fmt.Fprintf(&s, "%d rows", b.N)
	for ci, c := range b.Cols {
		fmt.Fprintf(&s, "|%d %v nulls=%v:", ci, c.Enc, c.Nulls != nil)
		for i := 0; i < c.Len; i++ {
			s.WriteString(c.Value(i).String())
			s.WriteByte(',')
		}
	}
	return s.String()
}

// zeroAtNulls fails unless every NULL slot of b's Plain columns holds
// the zero value: an unwritten slot of an unzeroed output would still
// hold the garbage a Value read never shows.
func zeroAtNulls(t *testing.T, what string, b *Batch) {
	t.Helper()
	for ci, c := range b.Cols {
		for i, isNull := range c.Nulls {
			if !isNull {
				continue
			}
			if (c.Ints != nil && c.Ints[i] != 0) || (c.Floats != nil && c.Floats[i] != 0) ||
				(c.Bools != nil && c.Bools[i]) || (c.Strs != nil && c.Strs[i] != "") {
				t.Fatalf("%s: col %d NULL row %d holds a value", what, ci, i)
			}
		}
	}
}

// TestScanMergeMatchesSerialOnDirtyMemory: the merge at workers
// {1, 2, 3, 8}, drawing from a recycled arena whose slabs hold garbage,
// equals the serial heap merge value for value, holds zero in every
// NULL slot, and its layout is the same at every worker count. Random parts cover Plain / Dict / RLE,
// NULLs, windows, masks and empty or skipped parts; some merges are big
// enough to fan out, and the test fails if none did.
func TestScanMergeMatchesSerialOnDirtyMemory(t *testing.T) {
	schema := NewSchema(
		Field{Name: "i", Type: Int64}, Field{Name: "f", Type: Float64}, Field{Name: "s", Type: String},
		Field{Name: "b", Type: Bool}, Field{Name: "t", Type: Timestamp},
	)
	pool := arena.NewPool()
	fanned := 0
	for seed := uint64(1); seed <= 40; seed++ {
		parts := mergeParts(sim.NewRNG(seed), schema)
		want, err := FilterConcatWith(Mem{}, parts)
		if err != nil {
			t.Fatal(err)
		}
		var shape string
		for _, w := range []int{1, 2, 3, 8} {
			ar := dirtyArena(pool)
			got, fan, err := FilterConcatWorkers(Mem{Al: ar}, parts, w)
			if err != nil {
				t.Fatal(err)
			}
			what := fmt.Sprintf("seed %d workers %d", seed, w)
			if (got == nil) != (want == nil) {
				t.Fatalf("%s: got %v, want %v", what, got, want)
			}
			if got != nil {
				sameBatches(t, what, want, got)
				zeroAtNulls(t, what, got)
				if w == 1 {
					shape = physical(got)
				} else if physical(got) != shape {
					t.Fatalf("%s: layout differs from one worker", what)
				}
			}
			if fan {
				fanned++
			}
			ar.Release()
		}
	}
	if fanned == 0 {
		t.Fatal("no merge fanned out: the parallel copy went untested")
	}
}

// TestScanMergeHeapMatchesSerialLayout: on the heap the merge at any
// worker count is the serial merge exactly, arrays included.
func TestScanMergeHeapMatchesSerialLayout(t *testing.T) {
	schema := NewSchema(Field{Name: "i", Type: Int64}, Field{Name: "s", Type: String})
	for seed := uint64(1); seed <= 20; seed++ {
		parts := mergeParts(sim.NewRNG(seed+100), schema)
		want, _ := FilterConcatWith(Mem{}, parts)
		got, _, err := FilterConcatWorkers(Mem{}, parts, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: four workers differ from one", seed)
		}
	}
}

// TestTaskWorkersNeedsTwoMorsels: a stage fans out only when two of its
// tasks hold a morsel of work each, and never beyond them.
func TestTaskWorkersNeedsTwoMorsels(t *testing.T) {
	for _, c := range []struct{ workers, big, want int }{
		{8, 0, 1}, {8, 1, 1}, {8, 2, 2}, {2, 24, 2}, {1, 24, 1}, {8, 5, 5},
	} {
		if got := TaskWorkers(c.workers, c.big); got != c.want {
			t.Errorf("TaskWorkers(%d, %d) = %d, want %d", c.workers, c.big, got, c.want)
		}
	}
}

// BenchmarkScanMerge is a warm olap_hot scan's merge: 8 resident parts
// of 25,000 rows (two Int64 columns and one Float64, null-free Plain)
// under a mask that keeps 62% of the rows, copied into a recycled arena
// at one and two workers. ns/row is per input row.
func BenchmarkScanMerge(b *testing.B) {
	const files, rows = 8, 25000
	schema := NewSchema(Field{Name: "k", Type: Int64}, Field{Name: "amount", Type: Int64}, Field{Name: "price", Type: Float64})
	r := sim.NewRNG(62)
	parts := make([]Selection, files)
	for f := range parts {
		ks, amounts, prices := make([]int64, rows), make([]int64, rows), make([]float64, rows)
		mask := make([]bool, rows)
		for i := range ks {
			ks[i], amounts[i], prices[i] = int64(r.Intn(1024)), int64(r.Intn(1000)), r.Float64()*100
			mask[i] = r.Intn(100) < 62
		}
		sel, err := Window(MustBatch(schema, []*Column{NewInt64Column(ks), NewInt64Column(amounts), NewFloat64Column(prices)}), 0, rows, maskRows(mask, 0))
		if err != nil {
			b.Fatal(err)
		}
		parts[f] = sel
	}
	for _, w := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			pool := arena.NewPool()
			for i := 0; i < b.N; i++ {
				ar := pool.Get()
				if _, _, err := FilterConcatWorkers(Mem{Al: ar}, parts, w); err != nil {
					b.Fatal(err)
				}
				ar.Release()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*files*rows), "ns/row")
		})
	}
}
