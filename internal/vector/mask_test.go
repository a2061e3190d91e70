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
	var sumF float64
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
				sumF += v.F
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
			return FloatValue(sumF)
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

// TestAggregateKernelParity: the typed loops return the boxed
// reference's value — type included — for every kind over every type,
// encoding and null pattern, with and without a selection mask, on
// empty input, and with float sums bit-equal (so added in row order).
func TestAggregateKernelParity(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, tc := range wireCorpus(12, 0, 1, 50, 1000) {
		masks := [][]bool{nil, make([]bool, tc.col.Len), make([]bool, tc.col.Len)}
		for i := range masks[1] {
			masks[1][i] = rng.Intn(3) > 0
		}
		for mi, mask := range masks {
			for _, kind := range []AggKind{AggCount, AggSum, AggMin, AggMax} {
				want := refBoxedAggregate(tc.col, kind, mask)
				if got := Aggregate(tc.col, kind, mask); !sameValue(got, want) {
					t.Fatalf("%s mask%d %v = %#v, want %#v", tc.name, mi, kind, got, want)
				}
			}
		}
	}
	// Row order is the contract for floats: these three sum differently
	// in any other order.
	c := NewFloat64Column([]float64{1e16, 1, -1e16, 1})
	if got := Aggregate(c, AggSum, nil); got.F != 1 {
		t.Fatalf("float SUM = %v, want 1 (row order)", got.F)
	}
}

func TestAggregateKernelAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, enc := range []Encoding{Plain, Dict} {
		c := wireColumn(rng, Int64, enc, nullsSome, 4096)
		for _, kind := range []AggKind{AggCount, AggSum, AggMin, AggMax} {
			if got := testing.AllocsPerRun(10, func() { Aggregate(c, kind, nil) }); got != 0 {
				t.Errorf("%v %v: Aggregate allocates %.0f times, want 0", enc, kind, got)
			}
		}
	}
}
