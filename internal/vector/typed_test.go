package vector

import (
	"cmp"
	"fmt"
	"math"
	"testing"

	"biglake/internal/arena"
	"biglake/internal/sim"
)

// The boxed per-row loops that the typed kernels in typed.go replaced
// live on here as the reference: every kernel is diffed against its
// loop over {Plain, Dict, RLE} x {no nulls, some nulls, all nulls} x
// every type, with NaN, -0.0/+0.0, integers beyond 2^53 and empty
// columns in the mix. Where a typed kernel deliberately departs from
// Value.Compare the reference says so in place.

const big = int64(1) << 53 // float64 holds every integer up to here exactly

// parityValues is the value pool for one type: few distinct values so
// Dict and RLE have something to encode, and every awkward one.
func parityValues(t Type) []Value {
	switch t {
	case Int64, Timestamp:
		out := []Value{}
		for _, i := range []int64{0, 1, -1, 7, big, big + 1, big + 2, -big - 1, math.MaxInt64, math.MinInt64} {
			out = append(out, Value{Type: t, I: i})
		}
		return out
	case Float64:
		negZero := math.Copysign(0, -1)
		out := []Value{}
		for _, f := range []float64{0, negZero, 1.5, -2.25, math.NaN(), math.Inf(1), math.Inf(-1), 1e300} {
			out = append(out, FloatValue(f))
		}
		return out
	case Bool:
		return []Value{BoolValue(false), BoolValue(true)}
	default:
		out := []Value{}
		for _, s := range []string{"", "a", "ab", "b", "\x00", "zz"} {
			out = append(out, Value{Type: t, S: s})
		}
		return out
	}
}

var parityTypes = []Type{Int64, Timestamp, Float64, Bool, String, Bytes}

// parityColumn builds n rows of type t drawn from pool in short runs;
// nulls is 0 (none), 1 (some) or 2 (all).
func parityColumn(r *sim.RNG, t Type, pool []Value, n, nulls int, enc Encoding) *Column {
	bl := NewBuilder(NewSchema(Field{Name: "c", Type: t}))
	var cur Value
	for i := 0; i < n; i++ {
		if i == 0 || r.Intn(3) == 0 {
			cur = pool[r.Intn(len(pool))]
		}
		switch {
		case nulls == 2, nulls == 1 && r.Intn(4) == 0:
			bl.Append(NullValue)
		default:
			bl.Append(cur)
		}
	}
	c := bl.Build().Cols[0]
	switch enc {
	case Dict:
		return DictEncode(c)
	case RLE:
		return RLEncode(c)
	}
	return c
}

// forParityColumns calls fn for every (type, encoding, null pattern,
// length) cell, with the cell's name and a fresh seeded column builder.
func forParityColumns(t *testing.T, fn func(name string, build func(t Type, pool []Value) *Column, typ Type)) {
	t.Helper()
	for _, typ := range parityTypes {
		for _, enc := range []Encoding{Plain, Dict, RLE} {
			for nulls := 0; nulls <= 2; nulls++ {
				for _, n := range []int{0, 1, 53} {
					for seed := uint64(1); seed <= 3; seed++ {
						name := fmt.Sprintf("%v/%v/nulls%d/n%d/seed%d", typ, enc, nulls, n, seed)
						r := sim.NewRNG(seed*7919 + uint64(n))
						build := func(bt Type, pool []Value) *Column { return parityColumn(r, bt, pool, n, nulls, enc) }
						fn(name, build, typ)
					}
				}
			}
		}
	}
}

// bitEqual is Value equality that tells -0.0 from +0.0 and accepts NaN
// as itself.
func bitEqual(a, b Value) bool {
	return a.Type == b.Type && a.I == b.I && a.S == b.S && a.B == b.B &&
		math.Float64bits(a.F) == math.Float64bits(b.F)
}

func isNaN(v Value) bool { return v.Type == Float64 && v.F != v.F }

func intLike(t Type) bool { return t == Int64 || t == Timestamp }

// refMinMax is the boxed MinMax, with the two departures MinMax
// documents: NaN rows are skipped (Value.Compare reports 0 against
// NaN, so a leading NaN used to stick as both min and max), and
// integers compare exactly (Value.Compare's float64 detour ties
// neighbours beyond 2^53 and keeps the first).
func refMinMax(c *Column) (min, max Value, nullCount int64) {
	cmp := func(a, b Value) int {
		if intLike(a.Type) {
			return cmpInt(a.I, b.I)
		}
		return a.Compare(b)
	}
	for i := 0; i < c.Len; i++ {
		v := c.Value(i)
		if v.IsNull() {
			nullCount++
			continue
		}
		if isNaN(v) {
			continue
		}
		if min.IsNull() || cmp(v, min) < 0 {
			min = v
		}
		if max.IsNull() || cmp(v, max) > 0 {
			max = v
		}
	}
	return min, max, nullCount
}

func TestTypedMinMaxParity(t *testing.T) {
	forParityColumns(t, func(name string, build func(Type, []Value) *Column, typ Type) {
		c := build(typ, parityValues(typ))
		min, max, nulls := MinMax(c, nil)
		rmin, rmax, rnulls := refMinMax(c)
		if !bitEqual(min, rmin) || !bitEqual(max, rmax) || nulls != rnulls {
			t.Fatalf("%s: MinMax = (%v, %v, %d), boxed reference (%v, %v, %d)", name, min, max, nulls, rmin, rmax, rnulls)
		}
		if isNaN(min) || isNaN(max) {
			t.Fatalf("%s: NaN leaked into the range (%v, %v)", name, min, max)
		}
	})
}

// TestTypedMinMaxExactBeyondFloat pins the deliberate departure: past
// 2^53 Value.Compare cannot tell neighbours apart and the old loop kept
// whichever came first; the typed range is exact — and never narrower
// than what any Value.Compare consumer sees.
func TestTypedMinMaxExactBeyondFloat(t *testing.T) {
	c := NewInt64Column([]int64{big + 1, big, big + 2, big + 1})
	if IntValue(big+1).Compare(IntValue(big)) != 0 {
		t.Fatal("premise: Value.Compare is expected to tie 2^53+1 with 2^53")
	}
	min, max, _ := MinMax(c, nil)
	if min.I != big || max.I != big+2 {
		t.Fatalf("MinMax = (%d, %d), want the exact (%d, %d)", min.I, max.I, big, big+2)
	}
	for i := 0; i < c.Len; i++ {
		v := c.Value(i)
		if min.Compare(v) > 0 || max.Compare(v) < 0 {
			t.Fatalf("row %d (%d) falls outside [%d, %d] under Value.Compare", i, v.I, min.I, max.I)
		}
	}
}

func TestTypedMinMaxNaNPositions(t *testing.T) {
	nan := math.NaN()
	for _, tc := range []struct {
		vals     []float64
		min, max float64
		null     bool
	}{
		{[]float64{nan, 1, 2}, 1, 2, false},
		{[]float64{1, nan, 2}, 1, 2, false},
		{[]float64{1, 2, nan}, 1, 2, false},
		{[]float64{nan, nan, 3}, 3, 3, false},
		{[]float64{nan}, 0, 0, true},
		{[]float64{nan, nan}, 0, 0, true},
		{[]float64{nan, nan, 2, -1, nan, 3, 0.5}, -1, 3, false},
	} {
		for _, c := range []*Column{NewFloat64Column(tc.vals), DictEncode(NewFloat64Column(tc.vals)), RLEncode(NewFloat64Column(tc.vals))} {
			min, max, nulls := MinMax(c, nil)
			if nulls != 0 || min.IsNull() != tc.null || max.IsNull() != tc.null {
				t.Fatalf("%v %v: MinMax = (%v, %v, %d)", c.Enc, tc.vals, min, max, nulls)
			}
			if !tc.null && (min.F != tc.min || max.F != tc.max) {
				t.Fatalf("%v %v: MinMax = (%v, %v), want (%v, %v)", c.Enc, tc.vals, min, max, tc.min, tc.max)
			}
		}
	}
}

// TestTypedMinMaxUnreferencedDictEntries: a gathered Dict column keeps
// its source's whole dictionary; only entries a code points at count.
func TestTypedMinMaxUnreferencedDictEntries(t *testing.T) {
	src := DictEncode(NewStringColumn([]string{"m", "a", "z", "m"}))
	ar := arena.New()
	defer ar.Release()
	g := GatherWith(Mem{Al: ar}, src, []int{0, 3})
	if g.Enc != Dict || len(g.Strs) != 3 {
		t.Fatalf("premise: gathered column should stay Dict over the full dictionary, got %v/%d", g.Enc, len(g.Strs))
	}
	min, max, _ := MinMax(g, nil)
	if min.S != "m" || max.S != "m" {
		t.Fatalf("MinMax = (%q, %q), want (m, m)", min.S, max.S)
	}
}

func TestTypedTruthMaskParity(t *testing.T) {
	ar := arena.New()
	defer ar.Release()
	forParityColumns(t, func(name string, build func(Type, []Value) *Column, typ Type) {
		if typ != Bool {
			return
		}
		c := build(Bool, parityValues(Bool))
		for _, al := range []Alloc{Heap, ar} {
			mask := TruthMask(al, c)
			if len(mask) != c.Len {
				t.Fatalf("%s: mask length %d != %d", name, len(mask), c.Len)
			}
			for i := range mask {
				v := c.Value(i)
				if want := !v.IsNull() && v.B; mask[i] != want {
					t.Fatalf("%s: row %d (%v): mask %v, boxed reference %v", name, i, v, mask[i], want)
				}
			}
		}
	})
}

func TestTypedIsNullAtParity(t *testing.T) {
	forParityColumns(t, func(name string, build func(Type, []Value) *Column, typ Type) {
		c := build(typ, parityValues(typ))
		for i := 0; i < c.Len; i++ {
			if got, want := c.IsNullAt(i), c.Value(i).IsNull(); got != want {
				t.Fatalf("%s: IsNullAt(%d) = %v, Value(%d).IsNull() = %v", name, i, got, i, want)
			}
		}
	})
}

func TestTypedDecodeParity(t *testing.T) {
	forParityColumns(t, func(name string, build func(Type, []Value) *Column, typ Type) {
		c := build(typ, parityValues(typ))
		d := c.Decode()
		if d.Enc != Plain || d.Len != c.Len || d.Type != c.Type {
			t.Fatalf("%s: Decode gave %v/%d/%v", name, d.Enc, d.Len, d.Type)
		}
		for i := 0; i < c.Len; i++ {
			if !bitEqual(d.Value(i), c.Value(i)) {
				t.Fatalf("%s: row %d: decoded %v, source %v", name, i, d.Value(i), c.Value(i))
			}
		}
	})
}

// refCompareCols is the boxed CompareCols; two integer operands
// compare exactly where Value.Compare would go through float64.
func refCompareCols(a, b *Column, op CmpOp) []bool {
	mask := make([]bool, a.Len)
	for i := 0; i < a.Len; i++ {
		av, bv := a.Value(i), b.Value(i)
		if av.IsNull() || bv.IsNull() {
			continue
		}
		cmp := av.Compare(bv)
		if intLike(av.Type) && intLike(bv.Type) {
			cmp = cmpInt(av.I, bv.I)
		}
		mask[i] = op.Eval(cmp)
	}
	return mask
}

// forParityPairs calls fn with two equal-length columns for every pair
// of types, a few encodings and null patterns.
func forParityPairs(t *testing.T, fn func(name string, a, b *Column)) {
	t.Helper()
	encs := []Encoding{Plain, Dict, RLE}
	for _, ta := range parityTypes {
		for _, tb := range parityTypes {
			for ei, ea := range encs {
				eb := encs[(ei+1)%len(encs)]
				for nulls := 0; nulls <= 2; nulls++ {
					for _, n := range []int{0, 1, 41} {
						r := sim.NewRNG(uint64(n)*131 + uint64(nulls))
						a := parityColumn(r, ta, parityValues(ta), n, nulls, ea)
						b := parityColumn(r, tb, parityValues(tb), n, (nulls+1)%3, eb)
						fn(fmt.Sprintf("%v(%v) vs %v(%v) nulls%d n%d", ta, ea, tb, eb, nulls, n), a, b)
					}
				}
			}
		}
	}
}

func TestTypedCompareColsParity(t *testing.T) {
	ar := arena.New()
	defer ar.Release()
	forParityPairs(t, func(name string, a, b *Column) {
		for op := EQ; op <= GE; op++ {
			want := refCompareCols(a, b, op)
			for _, al := range []Alloc{Heap, ar} {
				got, err := CompareCols(al, a, b, op)
				if err != nil {
					t.Fatalf("%s %v: %v", name, op, err)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s %v: row %d (%v, %v): typed %v, boxed reference %v", name, op, i, a.Value(i), b.Value(i), got[i], want[i])
					}
				}
			}
		}
	})
	// The departure: exact where the float64 detour ties.
	a, b := NewInt64Column([]int64{big + 1}), NewInt64Column([]int64{big})
	if gt, _ := CompareCols(Heap, a, b, GT); !gt[0] {
		t.Fatal("2^53+1 > 2^53 should hold exactly")
	}
}

// refArith is the boxed element-wise arithmetic the engine used to run
// (expr.go before the typed kernel), verbatim.
func refArith(op byte, l, r *Column) (*Column, error) {
	if !numericType(l.Type) || !numericType(r.Type) {
		if op == '+' && (l.Type == String || r.Type == String) {
			out := &Column{Type: String, Len: l.Len, Enc: Plain, Strs: make([]string, l.Len)}
			for i := 0; i < l.Len; i++ {
				a, b := l.Value(i), r.Value(i)
				if a.IsNull() || b.IsNull() {
					if out.Nulls == nil {
						out.Nulls = make([]bool, l.Len)
					}
					out.Nulls[i] = true
					continue
				}
				out.Strs[i] = a.String() + b.String()
			}
			return out, nil
		}
		return nil, fmt.Errorf("arithmetic over %v and %v", l.Type, r.Type)
	}
	n := l.Len
	floatOut := op == '/' || l.Type == Float64 || r.Type == Float64
	out := &Column{Type: Int64, Len: n, Enc: Plain}
	if floatOut {
		out.Type, out.Floats = Float64, make([]float64, n)
	} else {
		out.Ints = make([]int64, n)
	}
	markNull := func(i int) {
		if out.Nulls == nil {
			out.Nulls = make([]bool, n)
		}
		out.Nulls[i] = true
	}
	for i := 0; i < n; i++ {
		a, b := l.Value(i), r.Value(i)
		if a.IsNull() || b.IsNull() {
			markNull(i)
			continue
		}
		if !floatOut {
			x, y := a.AsInt(), b.AsInt()
			switch op {
			case '+':
				out.Ints[i] = x + y
			case '-':
				out.Ints[i] = x - y
			case '*':
				out.Ints[i] = x * y
			}
			continue
		}
		x, y := a.AsFloat(), b.AsFloat()
		switch op {
		case '+':
			out.Floats[i] = x + y
		case '-':
			out.Floats[i] = x - y
		case '*':
			out.Floats[i] = x * y
		case '/':
			if y == 0 {
				markNull(i)
				continue
			}
			out.Floats[i] = x / y
		}
	}
	return out, nil
}

func TestTypedArithParity(t *testing.T) {
	ar := arena.New()
	defer ar.Release()
	forParityPairs(t, func(name string, a, b *Column) {
		for _, op := range []byte{'+', '-', '*', '/'} {
			want, werr := refArith(op, a, b)
			for _, al := range []Alloc{Heap, ar} {
				got, err := Arith(al, op, a, b)
				if (err == nil) != (werr == nil) {
					t.Fatalf("%s %c: typed err %v, boxed reference err %v", name, op, err, werr)
				}
				if err != nil {
					continue
				}
				if got.Type != want.Type || got.Len != want.Len || got.Enc != Plain || got.Pooled != al.Pooled() {
					t.Fatalf("%s %c: typed %v/%d/%v pooled=%v, boxed reference %v/%d", name, op, got.Type, got.Len, got.Enc, got.Pooled, want.Type, want.Len)
				}
				for i := 0; i < want.Len; i++ {
					if !bitEqual(got.Value(i), want.Value(i)) {
						t.Fatalf("%s %c: row %d (%v, %v): typed %v, boxed reference %v", name, op, i, a.Value(i), b.Value(i), got.Value(i), want.Value(i))
					}
				}
			}
		}
	})
}

// refCompareForSort is the comparator ORDER BY used to run per pair of
// rows: NULLs first, then Value.Compare — except that two integers
// compare as integers, where Value.Compare sees neighbours past 2^53 as
// equal (the sort key departs from it there on purpose).
func refCompareForSort(a, b Value) int {
	switch {
	case a.IsNull() && b.IsNull():
		return 0
	case a.IsNull():
		return -1
	case b.IsNull():
		return 1
	case a.Type != Float64 && b.Type != Float64 && a.numeric() && b.numeric():
		return cmp.Compare(a.I, b.I)
	}
	return a.Compare(b)
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	}
	return 0
}

func TestTypedSortKeyParity(t *testing.T) {
	ar := arena.New()
	defer ar.Release()
	forParityColumns(t, func(name string, build func(Type, []Value) *Column, typ Type) {
		c := build(typ, parityValues(typ))
		for _, desc := range []bool{false, true} {
			for _, al := range []Alloc{Heap, ar} {
				key := ExtractSortKey(al, one(c.Len, c), c, desc)
				for a := 0; a < c.Len; a++ {
					for b := 0; b < c.Len; b++ {
						want := refCompareForSort(c.Value(a), c.Value(b))
						if desc {
							want = -want
						}
						if got := key.compare(0, int32(a), 0, int32(b)); sign(got) != want {
							t.Fatalf("%s desc=%v: rows %d (%v) and %d (%v): typed %d, boxed reference %d", name, desc, a, c.Value(a), b, c.Value(b), got, want)
						}
					}
				}
			}
		}
	})
}

// TestTypedSortKeyOrdersIntegersExactly: integers that differ only
// past float64 precision are ordered as integers, not tied as
// Value.Compare ties them — plain, dictionary and run-length encoded.
func TestTypedSortKeyOrdersIntegersExactly(t *testing.T) {
	c := NewInt64Column([]int64{big + 1, big, big + 1, big})
	for _, col := range []*Column{c, DictEncode(c), RLEncode(c)} {
		for _, desc := range []bool{false, true} {
			key := ExtractSortKey(Heap, one(col.Len, col), col, desc)
			want := 1
			if desc {
				want = -1
			}
			if got := key.compare(0, int32(0), 0, int32(1)); got != want {
				t.Fatalf("%v desc=%v: 2^53+1 against 2^53 compares %d, want %d", col.Enc, desc, got, want)
			}
		}
	}
}

// TestTypedSortKeyDuplicateDictEntries: a dictionary may hold the same
// string twice (masking maps distinct values onto one); both must rank
// equal so the tie falls through to the next key.
func TestTypedSortKeyDuplicateDictEntries(t *testing.T) {
	c := &Column{Type: String, Len: 3, Enc: Dict, Strs: []string{"x", "a", "x"}, Codes: []uint32{0, 2, 1}}
	key := ExtractSortKey(Heap, one(c.Len, c), c, false)
	if key.compare(0, int32(0), 0, int32(1)) != 0 || key.compare(0, int32(2), 0, int32(0)) >= 0 {
		t.Fatalf("ranks: cmp(0,1)=%d cmp(2,0)=%d", key.compare(0, int32(0), 0, int32(1)), key.compare(0, int32(2), 0, int32(0)))
	}
}

// TestFilterAllOrNothing: a mask that selects every row hands back the
// input itself (no copy), one that selects none an empty batch.
func TestFilterAllOrNothing(t *testing.T) {
	ar := arena.New()
	defer ar.Release()
	b := randomLeanBatch(sim.NewRNG(5), 29)
	all := make([]bool, b.N)
	for i := range all {
		all[i] = true
	}
	for _, m := range []Mem{{}, {Al: ar}} {
		got, err := FilterWith(m, b, all)
		if err != nil || got != b {
			t.Fatalf("all-pass filter must return its input (err %v)", err)
		}
		got, err = FilterWith(m, b, make([]bool, b.N))
		if err != nil || got.N != 0 || !got.Schema.Equal(b.Schema) || len(got.Cols) != len(b.Cols) {
			t.Fatalf("none-pass filter: %+v, %v", got, err)
		}
	}
}

// TestFilterConcatMatchesFilterThenAppend diffs the fused scan merge
// against the two steps it replaced — Filter per part, then pairwise
// append (refAppendBatch) — over random encodings, masks (all, none, some, nil)
// and nil parts, on the heap and on an arena.
func TestFilterConcatMatchesFilterThenAppend(t *testing.T) {
	pool := arena.NewPool()
	for seed := uint64(1); seed <= 40; seed++ {
		r := sim.NewRNG(seed)
		parts := make([]Selection, r.Intn(5))
		var want *Batch
		for i := range parts {
			if r.Intn(6) == 0 {
				continue // a file skipped by the scan
			}
			b := randomLeanBatch(r, r.Intn(40))
			filtered := b
			var mask []bool
			if kind := r.Intn(4); kind > 0 {
				mask = make([]bool, b.N)
				for k := range mask {
					mask[k] = kind == 1 || kind == 2 && r.Intn(3) == 0
				}
				var err error
				if filtered, err = Filter(b, mask); err != nil {
					t.Fatal(err)
				}
			}
			var err error
			if parts[i], err = Window(b, 0, b.N, maskRows(mask, 0)); err != nil {
				t.Fatal(err)
			}
			if parts[i].N != filtered.N {
				t.Fatalf("seed %d: Select counted %d rows, Filter kept %d", seed, parts[i].N, filtered.N)
			}
			if want, err = refAppendBatch(want, filtered); err != nil {
				t.Fatal(err)
			}
		}
		ar := pool.Get()
		for _, m := range []Mem{{}, {Al: ar}} {
			got, err := FilterConcatWith(m, parts)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if want == nil {
				if got != nil {
					t.Fatalf("seed %d: no parts must give nil, got %d rows", seed, got.N)
				}
				continue
			}
			if got == nil {
				t.Fatalf("seed %d: got nil, want %d rows", seed, want.N)
			}
			sameBatches(t, fmt.Sprintf("seed %d pooled=%v", seed, m.Pooled()), want, got)
		}
		ar.Release()
	}
}

// refAppendBatch is the pairwise concatenation the scan merge replaced:
// src decoded onto a decoded copy of dst.
func refAppendBatch(dst, src *Batch) (*Batch, error) {
	if dst == nil {
		return src, nil
	}
	if !dst.Schema.Equal(src.Schema) {
		return nil, fmt.Errorf("append schema mismatch %v vs %v", dst.Schema, src.Schema)
	}
	cols := make([]*Column, len(dst.Cols))
	for i := range dst.Cols {
		a, b := dst.Cols[i].Decode(), src.Cols[i].Decode()
		out := &Column{Type: a.Type, Len: a.Len + b.Len, Enc: Plain}
		out.Ints = append(append([]int64{}, a.Ints...), b.Ints...)
		out.Floats = append(append([]float64{}, a.Floats...), b.Floats...)
		out.Bools = append(append([]bool{}, a.Bools...), b.Bools...)
		out.Strs = append(append([]string{}, a.Strs...), b.Strs...)
		if a.Nulls != nil || b.Nulls != nil {
			out.Nulls = make([]bool, a.Len+b.Len)
			copy(out.Nulls, a.Nulls)
			copy(out.Nulls[a.Len:], b.Nulls)
		}
		cols[i] = out
	}
	return &Batch{Schema: dst.Schema, Cols: cols, N: dst.N + src.N}, nil
}

func TestFilterConcatRejectsMismatch(t *testing.T) {
	a := MustBatch(NewSchema(Field{Name: "x", Type: Int64}), []*Column{NewInt64Column([]int64{1})})
	b := MustBatch(NewSchema(Field{Name: "y", Type: Int64}), []*Column{NewInt64Column([]int64{2})})
	if _, err := FilterConcatWith(Mem{}, []Selection{{Batch: a, N: 1}, {Batch: b, N: 1}}); err == nil {
		t.Fatal("schema mismatch must be rejected")
	}
	if _, err := Window(a, 0, 1, []int32{0, 1}); err == nil {
		t.Fatal("more rows than the window holds must be rejected")
	}
}
