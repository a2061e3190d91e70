package vector

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// refApplyMask is the boxed ApplyMask the typed kernels replaced — one
// Value, one fmt call and two allocations per row — kept as the
// definition of what HASH and LAST_FOUR produce.
func refApplyMask(c *Column, kind MaskKind) *Column {
	transform := func(v Value) Value {
		switch kind {
		case MaskHash:
			h := fnv.New64a()
			fmt.Fprintf(h, "%d:%s:%d:%g:%t", v.Type, v.S, v.I, v.F, v.B)
			return StringValue(fmt.Sprintf("hash_%016x", h.Sum64()))
		case MaskLastFour:
			s := v.String()
			if len(s) <= 4 {
				return StringValue(s)
			}
			masked := make([]byte, len(s))
			for i := range masked {
				masked[i] = 'X'
			}
			copy(masked[len(s)-4:], s[len(s)-4:])
			return StringValue(string(masked))
		}
		return v
	}
	if c.Enc == Dict || c.Enc == RLE {
		out := &Column{Type: String, Len: c.Len, Enc: c.Enc}
		out.Codes = c.Codes
		out.Runs = c.Runs
		n := c.dictLen()
		out.Strs = make([]string, n)
		for i := 0; i < n; i++ {
			out.Strs[i] = transform(c.valueAtIdx(uint32(i))).S
		}
		return out
	}
	out := &Column{Type: String, Len: c.Len, Enc: Plain, Strs: make([]string, c.Len)}
	var nulls []bool
	for i := 0; i < c.Len; i++ {
		v := c.Value(i)
		if v.IsNull() {
			if nulls == nil {
				nulls = make([]bool, c.Len)
			}
			nulls[i] = true
			continue
		}
		out.Strs[i] = transform(v).S
	}
	out.Nulls = nulls
	return out
}

// TestMaskKernelParity: the typed HASH and LAST_FOUR kernels produce
// the boxed reference's column — the same strings byte for byte
// (LAST_FOUR over strings of 0 to 5 bytes and multi-byte UTF-8 cut
// byte-wise; %g floats including NaN, ±Inf, ±0; hex bytes), the same
// nulls, the encoding kept and the dictionary masked once.
func TestMaskKernelParity(t *testing.T) {
	for _, tc := range wireCorpus(11, 0, 1, 50, 1000) {
		for _, kind := range []MaskKind{MaskHash, MaskLastFour} {
			want := refApplyMask(tc.col, kind)
			got := ApplyMask(tc.col, kind)
			if !sameColumn(got, want) {
				for i := range want.Strs {
					if i < len(got.Strs) && got.Strs[i] != want.Strs[i] {
						t.Fatalf("%s %v: value %d = %q, want %q", tc.name, kind, i, got.Strs[i], want.Strs[i])
					}
				}
				t.Fatalf("%s %v: masked column differs from the reference", tc.name, kind)
			}
		}
	}
}

// TestMaskKernelAllocs: masking costs allocations per column, not per
// row.
func TestMaskKernelAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, typ := range wireTypes {
		c := wireColumn(rng, typ, Plain, nullsSome, 4096)
		for _, kind := range []MaskKind{MaskHash, MaskLastFour} {
			// the column, its strings, their buffer, the nulls
			if got := testing.AllocsPerRun(10, func() { ApplyMask(c, kind) }); got > 4 {
				t.Errorf("%v %v: ApplyMask allocates %.0f times for 4096 rows, budget 4", typ, kind, got)
			}
		}
	}
}

func TestMaskUnknownKindFailsClosed(t *testing.T) {
	c := NewStringColumn([]string{"secret"})
	out := ApplyMask(c, MaskKind(99))
	if out.Len != 1 || !out.Value(0).IsNull() {
		t.Fatalf("unknown mask kind let %v through", out.Value(0))
	}
}

// refBoxedAggregate is the boxed Aggregate the typed loops replaced.
func refBoxedAggregate(c *Column, kind AggKind, mask []bool) Value {
	count := int64(0)
	var acc Value
	accSet := false
	var sumI int64
	var floats []float64
	for i := 0; i < c.Len; i++ {
		if mask != nil && !mask[i] {
			continue
		}
		v := c.Value(i)
		if v.IsNull() {
			continue
		}
		count++
		switch kind {
		case AggSum:
			if c.Type == Float64 {
				floats = append(floats, v.F)
			} else {
				sumI += v.I
			}
		case AggMin:
			if !accSet || v.Compare(acc) < 0 {
				acc, accSet = v, true
			}
		case AggMax:
			if !accSet || v.Compare(acc) > 0 {
				acc, accSet = v, true
			}
		}
	}
	switch kind {
	case AggCount:
		return IntValue(count)
	case AggSum:
		if count == 0 {
			return NullValue
		}
		if c.Type == Float64 {
			return FloatValue(bigSum(floats))
		}
		return IntValue(sumI)
	case AggMin, AggMax:
		if !accSet {
			return NullValue
		}
		return acc
	}
	return NullValue
}

// sameValue is Value identity: the type, and floats by bits — but any
// NaN for any NaN (which operand's payload an add of two NaNs keeps is
// the instruction's business).
func sameValue(a, b Value) bool {
	return a.Type == b.Type && a.I == b.I && a.S == b.S && a.B == b.B &&
		(math.Float64bits(a.F) == math.Float64bits(b.F) || (a.F != a.F && b.F != b.F))
}

// foldOne is one aggregate of c through a one-input Fold.
func foldOne(c *Column, kind AggKind) Value {
	f := NewFold(Mem{}, []AggKind{kind})
	if err := f.Add([]*Column{c}); err != nil {
		panic(err)
	}
	return f.Finish()[0].Value(0)
}

// TestAggregateKernelParity: the fold returns the boxed reference's
// value — type included — for every kind over every type, encoding and
// null pattern, on empty input, and with float sums bit-equal to the
// exact sum rounded once, however the rows are split into Adds.
func TestAggregateKernelParity(t *testing.T) {
	for _, tc := range wireCorpus(12, 0, 1, 50, 1000) {
		for _, kind := range []AggKind{AggCount, AggSum, AggMin, AggMax} {
			want := refBoxedAggregate(tc.col, kind, nil)
			if got := foldOne(tc.col, kind); !sameValue(got, want) {
				t.Fatalf("%s %v = %#v, want %#v", tc.name, kind, got, want)
			}
		}
	}
	// Row order no longer matters: added in row order these give 1, as
	// two per-Add partials 1 again; the exact sum is 2.
	c := NewFloat64Column([]float64{1e16, 1, -1e16, 1})
	if got := foldOne(c, AggSum); got.F != 2 {
		t.Fatalf("float SUM = %v, want 2 (exact)", got.F)
	}
	f := NewFold(Mem{}, []AggKind{AggSum})
	for _, part := range [][]float64{{1e16, 1}, {-1e16, 1}} {
		if err := f.Add([]*Column{NewFloat64Column(part)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := f.Finish()[0].Value(0); got.F != 2 {
		t.Fatalf("float SUM over two Adds = %v, want 2 (exact)", got.F)
	}
}

// TestAggregateKernelAllocs: once a fold has seen an input, folding
// another batch of it allocates nothing.
func TestAggregateKernelAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, enc := range []Encoding{Plain, Dict} {
		c := wireColumn(rng, Int64, enc, nullsSome, 4096)
		for _, kind := range []AggKind{AggCount, AggSum, AggMin, AggMax} {
			f := NewFold(Mem{}, []AggKind{kind})
			in := []*Column{c}
			if got := testing.AllocsPerRun(10, func() { f.Add(in) }); got != 0 {
				t.Errorf("%v %v: Fold.Add allocates %.0f times, want 0", enc, kind, got)
			}
		}
	}
}

// countAlloc is the heap allocator, counting the elements it hands out.
type countAlloc struct {
	heapAlloc
	n int
}

func (a *countAlloc) Int64s(n int) []int64     { a.n += n; return a.heapAlloc.Int64s(n) }
func (a *countAlloc) Float64s(n int) []float64 { a.n += n; return a.heapAlloc.Float64s(n) }
func (a *countAlloc) Bools(n int) []bool       { a.n += n; return a.heapAlloc.Bools(n) }
func (a *countAlloc) Strings(n int) []string   { a.n += n; return a.heapAlloc.Strings(n) }
func (a *countAlloc) Int32s(n int) []int32     { a.n += n; return a.heapAlloc.Int32s(n) }
func (a *countAlloc) Uint32s(n int) []uint32   { a.n += n; return a.heapAlloc.Uint32s(n) }
func (a *countAlloc) Uint64s(n int) []uint64   { a.n += n; return a.heapAlloc.Uint64s(n) }
func (a *countAlloc) Ints(n int) []int         { a.n += n; return a.heapAlloc.Ints(n) }

// TestAggregateKernelDictNotHashed: an aggregate reads a Dict input's
// values through its codes and never hashes its dictionary, so neither
// the grouped kernel nor the fold allocates anything proportional to
// the dictionary.
func TestAggregateKernelDictNotHashed(t *testing.T) {
	const entries = 1 << 14
	vals := make([]int64, entries)
	for i := range vals {
		vals[i] = int64(i)
	}
	// three rows over the whole dictionary
	c := &Column{Type: Int64, Len: 3, Enc: Dict, Ints: vals, Codes: []uint32{0, entries - 1, 7}}
	ids := make([]int32, c.Len)
	for _, kind := range []AggKind{AggCount, AggSum, AggMin, AggMax} {
		ga := &countAlloc{}
		specs := []AggSpec{{Kind: kind, Col: c}}
		GroupAggregateWith(Mem{Al: ga}, specsIn(len(ids), specs), ids, 1, specs, 2)
		fa := &countAlloc{}
		f := NewFold(Mem{Al: fa}, []AggKind{kind})
		if err := f.Add([]*Column{c}); err != nil {
			t.Fatal(err)
		}
		f.Finish()
		if ga.n >= entries || fa.n >= entries {
			t.Errorf("%v over a %d-entry dictionary: grouped kernel %d elements, fold %d; want fewer than one per entry",
				kind, entries, ga.n, fa.n)
		}
	}
}
