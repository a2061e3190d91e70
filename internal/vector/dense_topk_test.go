package vector

// Tests and benchmarks of the direct-address kernels (dense.go) and the
// typed top-K (topk.go).

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"biglake/internal/arena"
	"biglake/internal/sim"
)

// benchRows is the fact side of the kernel benchmarks: about one
// olap_hot top-K or GROUP BY input, keys in 0..1023.
const benchRows = 125000

// benchFact builds benchRows rows of (k in 0..keys-1 spread by step,
// amount, price) from a fixed seed.
func benchFact(keys int, step int64) (k, amount *Column, price *Column) {
	r := sim.NewRNG(46)
	ks, amounts, prices := make([]int64, benchRows), make([]int64, benchRows), make([]float64, benchRows)
	for i := range ks {
		ks[i] = int64(r.Intn(keys)) * step
		amounts[i] = int64(i % 1000)
		prices[i] = float64(i%997) / 8
	}
	return NewInt64Column(ks), NewInt64Column(amounts), NewFloat64Column(prices)
}

// BenchmarkGroupKeys groups 125k rows by one integer key of 1,024
// values: consecutive (the direct-address kernel), and 7,919, 2^32 and
// 2^40 apart (the hash kernel, whose table hash must spread keys that
// differ only in their high bits as well as any).
func BenchmarkGroupKeys(b *testing.B) {
	for _, c := range []struct {
		name string
		step int64
		want GroupStrategy
	}{{"dense", 1, GroupDense}, {"hash", 1 << 40, GroupInt64}, {"hash7919", 7919, GroupInt64}, {"hash2^32", 1 << 32, GroupInt64}} {
		k, _, _ := benchFact(1024, c.step)
		in, keys := one(benchRows, k), []*Column{k}
		for _, w := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/workers=%d", c.name, w), func(b *testing.B) {
				pool := arena.NewPool()
				for i := 0; i < b.N; i++ {
					ar := pool.Get()
					if g := GroupKeysWith(Mem{Al: ar}, in, keys, w); g.Strategy != c.want {
						b.Fatalf("grouped by %v, want %v", g.Strategy, c.want)
					}
					ar.Release()
				}
			})
		}
	}
}

// BenchmarkHashJoinN1 joins 125k fact rows to a 1,024-row dimension on
// its unique key 0..1023: the direct-address N:1 join.
func BenchmarkHashJoinN1(b *testing.B) {
	k, _, _ := benchFact(1024, 1)
	fact := MustBatch(NewSchema(Field{Name: "k", Type: Int64}), []*Column{k})
	dk := make([]int64, 1024)
	for i := range dk {
		dk[i] = int64(i)
	}
	dim := MustBatch(NewSchema(Field{Name: "k", Type: Int64}), []*Column{NewInt64Column(dk)})
	for _, w := range []int{1, 2} {
		b.Run(fmt.Sprintf("dense/workers=%d", w), func(b *testing.B) {
			pool := arena.NewPool()
			for i := 0; i < b.N; i++ {
				ar := pool.Get()
				res, err := HashJoinWith(Mem{Al: ar}, []Selection{Whole(fact)}, dim, []int{0}, []int{0}, InnerJoin, w)
				if err != nil || res.Strategy != JoinDense {
					b.Fatalf("joined by %v (%v), want dense", res.Strategy, err)
				}
				ar.Release()
			}
		})
	}
}

// BenchmarkTopK keeps the top 100 of 125k rows by (price DESC, amount
// DESC): olap_hot's top-K.
func BenchmarkTopK(b *testing.B) {
	_, amount, price := benchFact(1024, 1)
	pool := arena.NewPool()
	for i := 0; i < b.N; i++ {
		ar := pool.Get()
		in := one(benchRows, price, amount)
		keys := []SortKey{ExtractSortKey(ar, in, price, true), ExtractSortKey(ar, in, amount, true)}
		if idx := TopK(Mem{Al: ar}, in, keys, 100); len(idx) != 100 {
			b.Fatalf("%d rows, want 100", len(idx))
		}
		ar.Release()
	}
}

// TestTopKMatchesStableSort: TopK's rows are a stable sort's first k
// under the boxed reference comparator — leading keys of every lane,
// with ties, NULLs and integers past 2^53, over several morsels.
func TestTopKMatchesStableSort(t *testing.T) {
	n := 2*MorselRows + 300
	r := sim.NewRNG(25)
	ints, floats, strs := make([]int64, n), make([]float64, n), make([]string, n)
	nulls := make([]bool, n)
	for i := 0; i < n; i++ {
		ints[i] = big + int64(r.Intn(40))
		floats[i] = float64(r.Intn(50)) / 4
		strs[i] = fmt.Sprintf("s%02d", r.Intn(30))
		nulls[i] = r.Intn(9) == 0
	}
	withNulls := NewFloat64Column(append([]float64(nil), floats...))
	withNulls.Nulls = nulls
	cols := []*Column{NewInt64Column(ints), NewFloat64Column(floats), NewStringColumn(strs), DictEncode(NewStringColumn(strs)), withNulls}
	for lead := range cols {
		for _, desc := range []bool{false, true} {
			order := []*Column{cols[lead], cols[(lead+1)%len(cols)]}
			want := make([]int32, n)
			for i := range want {
				want[i] = int32(i)
			}
			sort.SliceStable(want, func(a, b int) bool {
				for k, c := range order {
					cmp := refCompareForSort(c.Value(int(want[a])), c.Value(int(want[b])))
					if k == 0 && desc {
						cmp = -cmp
					}
					if cmp != 0 {
						return cmp < 0
					}
				}
				return false
			})
			in := one(n, order...)
			keys := []SortKey{ExtractSortKey(Heap, in, order[0], desc), ExtractSortKey(Heap, in, order[1], false)}
			for _, k := range []int{0, 1, 7, 100, n - 1, n, n + 5} {
				got := TopK(Mem{}, in, keys, k)
				if wk := want[:min(k, n)]; !reflect.DeepEqual(norm(got), norm(wk)) {
					t.Fatalf("lead %d desc=%v k=%d: rows differ from the stable sort's first k", lead, desc, k)
				}
			}
		}
	}
}

func norm[T int | int32](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return s
}
