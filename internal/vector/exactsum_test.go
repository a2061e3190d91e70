package vector

import (
	"encoding/binary"
	"fmt"
	"math"
	mbig "math/big"
	"math/rand"
	"testing"
)

// bigSum is the reference float SUM: the exact sum of vals in math/big,
// rounded once to the nearest float64, ties to even. NaN if any value is
// NaN or both infinities occur, else an infinity that occurs; an exact
// zero is −0 only when every value is −0.
func bigSum(vals []float64) float64 {
	var nan, pos, neg bool
	allNegZero := true
	acc, term := new(mbig.Int), new(mbig.Int)
	for _, v := range vals {
		switch {
		case v != v:
			nan = true
		case math.IsInf(v, 1):
			pos = true
		case math.IsInf(v, -1):
			neg = true
		default:
			if v != 0 || !math.Signbit(v) {
				allNegZero = false
			}
			// v × 2^1074 is an integer for every finite float64.
			f := new(mbig.Float).SetFloat64(v)
			f.SetMantExp(f, 1074)
			f.Int(term)
			acc.Add(acc, term)
		}
	}
	switch {
	case nan || (pos && neg):
		return math.NaN()
	case pos:
		return math.Inf(1)
	case neg:
		return math.Inf(-1)
	case acc.Sign() == 0 && allNegZero:
		return math.Copysign(0, -1)
	}
	f := new(mbig.Float).SetInt(acc)
	f.SetMantExp(f, -1074)
	r, _ := f.Float64()
	return r
}

func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

// exactSumCases are the edges of the exact SUM, each with its answer.
var exactSumCases = []struct {
	name string
	vals []float64
	want float64
}{
	{"cancellation", []float64{1e16, 1, -1e16, 1}, 2},
	{"tie to even", []float64{1, math.Ldexp(1, -53)}, 1},
	{"tie to even up", []float64{1 + math.Ldexp(1, -52), math.Ldexp(1, -53)}, 1 + math.Ldexp(1, -51)},
	{"sticky breaks the tie", []float64{1, math.Ldexp(1, -53), math.Ldexp(1, -1074)}, 1 + math.Ldexp(1, -52)},
	{"non-dyadic", []float64{0.1, 0.2, 0.3}, 0.6},
	{"subnormals", []float64{math.SmallestNonzeroFloat64, math.SmallestNonzeroFloat64, -math.Ldexp(1, -1073)}, 0},
	{"subnormal to normal", []float64{math.Ldexp(1, -1023), math.Ldexp(1, -1023)}, math.Ldexp(1, -1022)},
	{"only −0", []float64{math.Copysign(0, -1), math.Copysign(0, -1)}, math.Copysign(0, -1)},
	{"±0", []float64{math.Copysign(0, -1), 0}, 0},
	{"cancels to +0", []float64{0.1, -0.1}, 0},
	{"overflow", []float64{math.MaxFloat64, math.MaxFloat64}, math.Inf(1)},
	{"overflow undone", []float64{math.MaxFloat64, math.MaxFloat64, -math.MaxFloat64}, math.MaxFloat64},
	{"negative overflow", []float64{-math.MaxFloat64, -math.MaxFloat64}, math.Inf(-1)},
	{"+Inf", []float64{1, math.Inf(1), 0.1}, math.Inf(1)},
	{"-Inf", []float64{math.Inf(-1), 0.1}, math.Inf(-1)},
	{"both infinities", []float64{math.Inf(1), math.Inf(-1)}, math.NaN()},
	{"NaN", []float64{0.5, math.NaN()}, math.NaN()},
	{"tie broken by a tiny term", []float64{-0.1, -0.2, 1e-300}, -0.3},
}

// TestExactSumCases: every edge sums to its IEEE answer — the reference
// agrees — in one Add, in one Add per value in both orders, and through
// the grouped kernel at every worker count.
func TestExactSumCases(t *testing.T) {
	for _, tc := range exactSumCases {
		if got := bigSum(tc.vals); !sameFloat(got, tc.want) {
			t.Fatalf("%s: reference %v, want %v", tc.name, got, tc.want)
		}
		if got := foldOne(NewFloat64Column(tc.vals), AggSum).F; !sameFloat(got, tc.want) {
			t.Errorf("%s: fold = %v, want %v", tc.name, got, tc.want)
		}
		for _, reverse := range []bool{false, true} {
			f := NewFold(Mem{}, []AggKind{AggSum})
			for i := range tc.vals {
				if reverse {
					i = len(tc.vals) - 1 - i
				}
				if err := f.Add([]*Column{NewFloat64Column(tc.vals[i : i+1])}); err != nil {
					t.Fatal(err)
				}
			}
			if got := f.Finish()[0].Value(0).F; !sameFloat(got, tc.want) {
				t.Errorf("%s: one Add per value (reversed %v) = %v, want %v", tc.name, reverse, got, tc.want)
			}
		}
		// Spread over three morsels, −0 between: −0 is the identity.
		n := 3 * MorselRows
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = math.Copysign(0, -1)
		}
		for i, v := range tc.vals {
			vals[i*MorselRows*3/len(tc.vals)] = v
		}
		for _, w := range workerCounts {
			got := GroupAggregate(make([]int32, n), 1, []AggSpec{{Kind: AggSum, Col: NewFloat64Column(vals)}}, w)
			if v := got[0].Floats[0]; !sameFloat(v, tc.want) {
				t.Errorf("%s: grouped at %d workers = %v, want %v", tc.name, w, v, tc.want)
			}
		}
	}
}

// checkExactSum sums vals through every path — the one-group fused
// walk, the nullable general walk, two groups, and a Fold split into
// random Adds — at workers {1, 2, 3, 8}, and compares each with bigSum.
func checkExactSum(t *testing.T, vals []float64, rng *rand.Rand) {
	t.Helper()
	// Lay the values out over up to three morsels, padded with −0 (the
	// identity) and NULL rows.
	n := len(vals) + rng.Intn(3*MorselRows)
	col := make([]float64, n)
	nulls := make([]bool, n)
	ids := make([]int32, n)
	for i := range col {
		col[i] = math.Copysign(0, -1)
		nulls[i] = rng.Intn(4) == 0
	}
	for k, i := range rng.Perm(n)[:len(vals)] {
		col[i], nulls[i], ids[i] = vals[k], false, int32(rng.Intn(2))
	}
	var byGroup [2][]float64
	for i, v := range col {
		byGroup[ids[i]] = append(byGroup[ids[i]], v)
	}
	want := bigSum(vals)
	plain := NewFloat64Column(col)
	nullable := NewFloat64Column(col)
	nullable.Nulls = nulls
	for _, w := range []int{1, 2, 3, 8} {
		for _, c := range []*Column{plain, nullable} {
			got := GroupAggregate(make([]int32, n), 1, []AggSpec{{Kind: AggSum, Col: c}}, w)[0].Floats[0]
			if !sameFloat(got, want) {
				t.Fatalf("one group, %d workers, nulls %v: %v, want %v (%x)", w, c.Nulls != nil, got, want, vals)
			}
		}
		got := GroupAggregate(ids, 2, []AggSpec{{Kind: AggSum, Col: plain}}, w)[0]
		for g := range byGroup {
			if want := bigSum(byGroup[g]); len(byGroup[g]) > 0 && !sameFloat(got.Floats[g], want) {
				t.Fatalf("group %d, %d workers: %v, want %v (%x)", g, w, got.Floats[g], want, byGroup[g])
			}
		}
	}
	f := NewFold(Mem{}, []AggKind{AggSum})
	for lo := 0; lo < n; {
		hi := min(n, lo+1+rng.Intn(n-lo))
		part := NewFloat64Column(col[lo:hi])
		part.Nulls = nulls[lo:hi]
		if err := f.Add([]*Column{part}); err != nil {
			t.Fatal(err)
		}
		lo = hi
	}
	if got := f.Finish()[0].Value(0).F; !sameFloat(got, want) {
		t.Fatalf("fold over random Adds: %v, want %v (%x)", got, want, vals)
	}
}

// TestExactSumRandom: non-dyadic values, large cancellations,
// subnormals and ±0, against the reference through every path.
func TestExactSumRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	draws := []func() float64{
		func() float64 { return rng.NormFloat64() },
		func() float64 { return float64(rng.Intn(2000)-1000) / 10 },
		func() float64 { return []float64{1e16, -1e16, 0.5, 3e-17}[rng.Intn(4)] },
		func() float64 { return math.Ldexp(rng.Float64(), -1000-rng.Intn(74)) },
		func() float64 { return math.Float64frombits(rng.Uint64()) },
		func() float64 { return []float64{0, math.Copysign(0, -1)}[rng.Intn(2)] },
	}
	for trial := 0; trial < 60; trial++ {
		vals := make([]float64, 1+rng.Intn(50))
		for i := range vals {
			vals[i] = draws[(trial+i)%len(draws)]()
		}
		checkExactSum(t, vals, rng)
	}
}

// FuzzExactSum: random float64 bit patterns, split over random morsel,
// worker, group and Add layouts, sum to the math/big reference's bits.
func FuzzExactSum(f *testing.F) {
	enc := func(vals ...float64) []byte {
		var b []byte
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	for i, tc := range exactSumCases {
		f.Add(enc(tc.vals...), int64(i))
	}
	f.Fuzz(func(t *testing.T, data []byte, layout int64) {
		vals := make([]float64, 0, len(data)/8)
		for ; len(data) >= 8 && len(vals) < 256; data = data[8:] {
			vals = append(vals, math.Float64frombits(binary.LittleEndian.Uint64(data)))
		}
		if len(vals) == 0 {
			return
		}
		checkExactSum(t, vals, rand.New(rand.NewSource(layout)))
	})
}

var floatSumSink []*Column

// BenchmarkFloatSum times a float SUM on dyadic input (the fast path)
// and non-dyadic input (fast path, then the refold), one group and 64
// groups, beside rowOrder: a plain row-order add through the general
// value access, what a float SUM cost when it was folded sequentially.
func BenchmarkFloatSum(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	for _, rows := range []int{1000, 1 << 18} {
		dyadic, nonDyadic := make([]float64, rows), make([]float64, rows)
		ids := make([]int32, rows)
		for i := range dyadic {
			dyadic[i] = float64(rng.Intn(8000)) / 8
			nonDyadic[i] = rng.Float64() * 1000
			ids[i] = int32(rng.Intn(64))
		}
		for _, in := range []struct {
			name string
			vals []float64
		}{{"dyadic", dyadic}, {"nondyadic", nonDyadic}} {
			c := NewFloat64Column(in.vals)
			for _, groups := range []int{1, 64} {
				gid := ids
				if groups == 1 {
					gid = make([]int32, rows)
				}
				specs := []AggSpec{{Kind: AggSum, Col: c}}
				b.Run(fmt.Sprintf("%s/rows=%d/groups=%d", in.name, rows, groups), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						floatSumSink = GroupAggregate(gid, groups, specs, 1)
					}
				})
				b.Run(fmt.Sprintf("%s/rows=%d/groups=%d/rowOrder", in.name, rows, groups), func(b *testing.B) {
					sums := make([]float64, groups)
					ka := valueAccess(c)
					for i := 0; i < b.N; i++ {
						for r := range gid {
							if !ka.null(r) {
								sums[gid[r]] += ka.c.Floats[ka.valIdx(r)]
							}
						}
					}
					floatSumSink = []*Column{NewFloat64Column(sums)}
				})
			}
		}
	}
}
