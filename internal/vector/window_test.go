package vector

import (
	"fmt"
	"math"
	"testing"

	"biglake/internal/sim"
)

// TestSliceMatchesGather: a window of a column is the same rows a
// gather of them gives, in every encoding, with and without nulls, at
// the start, in the middle and at the end; RLE runs are trimmed at both
// ends; Pooled and Sorted carry over.
func TestSliceMatchesGather(t *testing.T) {
	const n = 40
	for _, nulls := range []bool{false, true} {
		bl := NewBuilder(NewSchema(Field{Name: "c", Type: Int64}))
		for i := 0; i < n; i++ {
			if nulls && i%7 == 3 {
				bl.Append(Value{})
				continue
			}
			bl.Append(IntValue(int64(i / 4))) // runs of four
		}
		plain := bl.Build().Cols[0]
		for _, c := range []*Column{plain, DictEncode(plain), RLEncode(plain)} {
			c.Pooled, c.Sorted = true, true
			for _, w := range [][2]int{{0, 5}, {0, 0}, {6, 17}, {13, 14}, {22, n}, {n, n}, {0, n}} {
				lo, hi := w[0], w[1]
				what := fmt.Sprintf("%v nulls=%v [%d, %d)", c.Enc, nulls, lo, hi)
				s := Slice(c, lo, hi)
				idx := make([]int, 0, hi-lo)
				for i := lo; i < hi; i++ {
					idx = append(idx, i)
				}
				sameValues(t, what, s, GatherWith(Mem{}, c, idx))
				if s.Enc != c.Enc || !s.Pooled || !s.Sorted {
					t.Fatalf("%s: enc %v pooled %v sorted %v", what, s.Enc, s.Pooled, s.Sorted)
				}
				if c.Enc == RLE {
					rows := 0
					for _, r := range s.Runs {
						if r.Count == 0 {
							t.Fatalf("%s: empty run kept", what)
						}
						rows += int(r.Count)
					}
					if rows != hi-lo {
						t.Fatalf("%s: runs cover %d rows", what, rows)
					}
				}
			}
			c.Pooled, c.Sorted = false, false
		}
		b := MustBatch(NewSchema(Field{Name: "a", Type: Int64}, Field{Name: "b", Type: Int64}),
			[]*Column{plain, RLEncode(plain)})
		if sb := SliceBatch(b, 9, 30); sb.N != 21 || sb.Cols[1].Len != 21 || SliceBatch(b, 0, n) != b {
			t.Fatalf("SliceBatch: %d rows", sb.N)
		}
	}
}

// TestSortedOnlyWhereRecorded: Ascending accepts only null-free Plain
// integer columns that never descend, and no kernel output claims the
// mark of a Sorted input — only the scan cache sets it, on what it
// makes resident.
func TestSortedOnlyWhereRecorded(t *testing.T) {
	asc := NewInt64Column([]int64{1, 2, 2, 5, 9, 9, 12})
	if !Ascending(asc) || !Ascending(NewInt64Column(nil)) || !Ascending(NewTimestampColumn([]int64{3, 3, 4})) {
		t.Fatal("an ascending Plain integer column was not recognised")
	}
	withNull := NewInt64Column([]int64{1, 2, 3})
	withNull.Nulls = []bool{false, true, false}
	for what, c := range map[string]*Column{
		"one descent": NewInt64Column([]int64{1, 2, 3, 2, 4}),
		"nulls":       withNull,
		"dict":        DictEncode(asc),
		"rle":         RLEncode(asc),
		"float":       NewFloat64Column([]float64{1, 2, 3}),
		"string":      NewStringColumn([]string{"a", "b"}),
	} {
		if Ascending(c) {
			t.Errorf("%s: reported ascending", what)
		}
	}

	asc.Sorted = true
	b := MustBatch(NewSchema(Field{Name: "id", Type: Int64}), []*Column{asc})
	mask := CompareConst(asc, GE, IntValue(2))
	filtered, err := FilterWith(Mem{}, b, mask)
	if err != nil {
		t.Fatal(err)
	}
	win, err := Window(b, 1, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := FilterConcatWith(Mem{}, []Selection{win})
	if err != nil {
		t.Fatal(err)
	}
	merged2, err := FilterConcatWith(Mem{}, []Selection{win, win})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := Arith(Heap, '+', asc, asc)
	if err != nil {
		t.Fatal(err)
	}
	for what, c := range map[string]*Column{
		"FilterWith":            filtered.Cols[0],
		"GatherWith":            GatherWith(Mem{}, asc, []int{0, 1, 2}),
		"FilterConcatWith":      merged.Cols[0],
		"FilterConcatWith(2)":   merged2.Cols[0],
		"ApplyMask":             ApplyMask(asc, MaskDefault),
		"Arith":                 sum,
		"DictEncode":            DictEncode(asc),
		"Decode(DictEncode(c))": DictEncode(asc).Decode(),
	} {
		if c.Sorted {
			t.Errorf("%s output claims Sorted", what)
		}
	}
}

// TestSortedWindowMatchesCompareConst: on a Sorted column the window
// binary search gives is exactly where CompareConst's mask is true,
// for every operator it takes and literals below, inside, between and
// above the values; NE and non-integer literals are refused.
func TestSortedWindowMatchesCompareConst(t *testing.T) {
	r := sim.NewRNG(11)
	for trial := 0; trial < 200; trial++ {
		n := r.Intn(60)
		xs := make([]int64, n)
		v := int64(r.Intn(20)) - 10
		for i := range xs {
			v += int64(r.Intn(3)) // duplicates and gaps
			xs[i] = v
		}
		if trial == 1 && n > 0 {
			xs[0], xs[n-1] = math.MinInt64, math.MaxInt64
		}
		c := NewInt64Column(xs)
		c.Sorted = Ascending(c)
		keys := []int64{math.MinInt64, math.MaxInt64, -11, 0, v + 1}
		if n > 0 {
			keys = append(keys, xs[0], xs[n-1], xs[r.Intn(n)], xs[r.Intn(n)]+1)
		}
		for _, k := range keys {
			for _, op := range []CmpOp{EQ, LT, LE, GT, GE} {
				for _, lit := range []Value{IntValue(k), TimestampValue(k)} {
					lo, hi, ok := SortedWindow(c, op, lit)
					if !ok {
						t.Fatalf("%v %v refused on a sorted column", op, lit)
					}
					for i, m := range CompareConst(c, op, lit) {
						if in := i >= lo && i < hi; in != m {
							t.Fatalf("xs=%v %v %d: window [%d, %d) disagrees with the mask at row %d", xs, op, k, lo, hi, i)
						}
					}
				}
			}
			for _, lit := range []Value{IntValue(k), FloatValue(1.5), StringValue("7"), BoolValue(true), {}} {
				if _, _, ok := SortedWindow(c, NE, lit); ok {
					t.Fatalf("NE %v was windowed", lit)
				}
			}
			for _, lit := range []Value{FloatValue(float64(k)), StringValue("7"), BoolValue(true), {}} {
				if _, _, ok := SortedWindow(c, EQ, lit); ok {
					t.Fatalf("EQ %v (%v) was windowed", lit, lit.Type)
				}
			}
		}
		c.Sorted = false
		if _, _, ok := SortedWindow(c, EQ, IntValue(0)); ok {
			t.Fatal("a column not marked Sorted was windowed")
		}
	}
}
