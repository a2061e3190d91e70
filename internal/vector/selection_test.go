package vector

import (
	"fmt"
	"math"
	"testing"

	"biglake/internal/arena"
	"biglake/internal/sim"
)

// one is the one-piece relation of n rows whose columns are cols.
func one(n int, cols ...*Column) []Selection {
	return []Selection{Whole(&Batch{Cols: cols, N: n})}
}

// specsIn is the one-piece relation of n rows holding the specs' inputs.
func specsIn(n int, specs []AggSpec) []Selection {
	var cols []*Column
	for _, sp := range specs {
		if sp.Col != nil {
			cols = append(cols, sp.Col)
		}
	}
	return one(n, cols...)
}

// maskRows returns the rows from lo on that mask selects, ascending (nil
// for a nil mask: every row).
func maskRows(mask []bool, lo int) []int32 {
	if mask == nil {
		return nil
	}
	rows := []int32{}
	for i, keep := range mask {
		if keep {
			rows = append(rows, int32(lo+i))
		}
	}
	return rows
}

// TestAggregateOverMixedPieces: a relation whose pieces hold one input
// in different encodings — Plain in one, Dict and RLE in others — folds
// each piece's rows once, and an exact float SUM that must refold over
// them (cancelling values, -0) equals the sum over the same rows as one
// batch.
func TestAggregateOverMixedPieces(t *testing.T) {
	schema := NewSchema(Field{Name: "g", Type: Int64}, Field{Name: "x", Type: Float64})
	batch := func(enc Encoding, gs []int64, xs []float64) *Batch {
		x := NewFloat64Column(xs)
		switch enc {
		case Dict:
			x = DictEncode(x)
		case RLE:
			x = RLEncode(x)
		}
		return MustBatch(schema, []*Column{NewInt64Column(gs), x})
	}
	negZero := math.Copysign(0, -1)
	in := []Selection{
		Whole(batch(Plain, []int64{0, 1, 0, 1}, []float64{1e16, 0.1, 0.5, negZero})),
		Whole(batch(Dict, []int64{0, 0, 1, 1}, []float64{0.5, 0.5, 0.2, 0.2})),
		Whole(batch(RLE, []int64{0, 1, 0, 1}, []float64{-1e16, 0.3, -1e16, 0.3})),
		Whole(batch(Plain, []int64{0, 1, 0, 1}, []float64{1e16, negZero, 0.5, 0.1})),
	}
	flat, err := FilterConcatWith(Mem{}, in)
	if err != nil {
		t.Fatal(err)
	}
	whole := []Selection{Whole(flat)}
	for _, w := range []int{1, 2, 3, 8} {
		gp := GroupKeysWith(Mem{}, in, in[0].Batch.Cols[:1], w)
		gb := GroupKeysWith(Mem{}, whole, flat.Cols[:1], w)
		sp := GroupAggregateWith(Mem{}, in, gp.IDs, gp.NumGroups, []AggSpec{{Kind: AggSum, Col: in[0].Batch.Cols[1]}}, w)
		sb := GroupAggregateWith(Mem{}, whole, gb.IDs, gb.NumGroups, []AggSpec{{Kind: AggSum, Col: flat.Cols[1]}}, w)
		for g := 0; g < gp.NumGroups; g++ {
			if x, y := sp[0].Floats[g], sb[0].Floats[g]; math.Float64bits(x) != math.Float64bits(y) {
				t.Fatalf("workers=%d group %d: SUM over pieces %v, over the batch %v", w, g, x, y)
			}
		}
		if got := sp[0].Floats[0]; got != 2 {
			t.Fatalf("workers=%d: cancelling SUM = %v, want 2", w, got)
		}
	}
}

// TestExtendBoundsGatheredRows: Extend gathers a build column into a
// piece's own row space only while the piece holds at least a quarter
// of its batch's rows, and then a Dict column's rows the piece does not
// hold read as NULL, however dirty the arena; a thinner piece — a sparse
// selection or a short window at a file's end — is gathered first, so
// the build column holds its rows alone. Either way each position reads
// the build row it matched, at every worker count.
func TestExtendBoundsGatheredRows(t *testing.T) {
	const rows = 2*MorselRows + 300
	vals := make([]int64, rows)
	for i := range vals {
		vals[i] = int64(i)
	}
	left := MustBatch(NewSchema(Field{Name: "f.v", Type: Int64}), []*Column{NewInt64Column(vals)})
	grp := DictEncode(NewStringColumn([]string{"a", "b", "c"}))
	schema := NewSchema(Field{Name: "f.v", Type: Int64}, Field{Name: "d.grp", Type: String})
	every := func(step int) []int32 {
		var sel []int32
		for r := 0; r < rows; r += step {
			sel = append(sel, int32(r))
		}
		return sel
	}
	dense, _ := Window(left, 0, rows, every(3))
	sparse, _ := Window(left, 0, rows, every(5))
	tail, _ := Window(left, rows-100, rows, nil)
	in := []Selection{dense, sparse, Whole(left), tail}
	pool := arena.NewPool()
	for _, w := range []int{1, 2, 3, 8} {
		ar := dirtyArena(pool)
		match := make([]int32, Count(in))
		for i := range match {
			match[i] = int32(i % 3)
		}
		out := Extend(Mem{Al: ar}, in, []*Column{grp}, match, schema, w)
		pos := 0
		for p, s := range out {
			gathered := in[p].N*4 < rows
			if got := s.Batch.N; (got == s.N) != gathered && s.N != rows {
				t.Fatalf("workers=%d piece %d: %d surviving rows extended over a batch of %d", w, p, s.N, got)
			}
			g := s.Batch.Cols[1]
			for r := 0; r < g.Len && !gathered; r++ {
				if code := g.Codes[r]; code != NullIdx && int(code) >= len(g.Strs) {
					t.Fatalf("workers=%d piece %d: row %d holds code %d past a dictionary of %d", w, p, r, code, len(g.Strs))
				}
			}
			for k, r := range s.Rows(0, s.N) {
				if v, want := s.Batch.Cols[0].Ints[r], in[p].Batch.Cols[0].Ints[in[p].Rows(k, k+1)[0]]; v != want {
					t.Fatalf("workers=%d piece %d position %d: f.v %d, want %d", w, p, k, v, want)
				}
				if got, want := g.Value(int(r)).S, grp.Value(int(match[pos])).S; got != want {
					t.Fatalf("workers=%d piece %d position %d: d.grp %q, want %q", w, p, k, got, want)
				}
				pos++
			}
		}
		ar.Release()
	}
}

// TestIdentityIsBounded: the shared rows a window reads through never
// grow past identCap, and a window past it still reads its own rows.
func TestIdentityIsBounded(t *testing.T) {
	b := &Batch{N: identCap + 10}
	s, err := Window(b, identCap-5, identCap+10, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, r := range s.Rows(0, s.N) {
		if int(r) != identCap-5+k {
			t.Fatalf("position %d reads row %d, want %d", k, r, identCap-5+k)
		}
	}
	if got := identity(identCap + 1); len(got) != identCap+1 || got[identCap] != identCap {
		t.Fatalf("identity past the cap: %d rows", len(got))
	}
	if p := identRows.Load(); p != nil && len(*p) > identCap {
		t.Fatalf("shared rows grew to %d, past the cap of %d", len(*p), identCap)
	}
}

// BenchmarkScanSelect is a warm scan's hand-off to GROUP BY: 8
// resident files of 25k rows (k, amount, price), `amount >= 375`
// selecting ~62% of them, grouped by k with COUNT(*), SUM(amount) and
// SUM(price). "pieces" groups and folds the selections where they lie;
// "concat" first copies the survivors into one batch, as the scan did
// before selections were handed on.
func BenchmarkScanSelect(b *testing.B) {
	const files, rows = 8, 25000
	schema := NewSchema(Field{Name: "k", Type: Int64}, Field{Name: "amount", Type: Int64}, Field{Name: "price", Type: Float64})
	r := sim.NewRNG(62)
	batches := make([]*Batch, files)
	for f := range batches {
		ks, amounts, prices := make([]int64, rows), make([]int64, rows), make([]float64, rows)
		for i := range ks {
			ks[i], amounts[i], prices[i] = int64(r.Intn(1024)), int64(r.Intn(1000)), float64(r.Intn(800))/8
		}
		batches[f] = MustBatch(schema, []*Column{NewInt64Column(ks), NewInt64Column(amounts), NewFloat64Column(prices)})
	}
	in := make([]Selection, files)
	for _, mode := range []string{"pieces", "concat"} {
		for _, w := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/workers=%d", mode, w), func(b *testing.B) {
				pool := arena.NewPool()
				for i := 0; i < b.N; i++ {
					ar := pool.Get()
					m := Mem{Al: ar}
					for f, fb := range batches {
						in[f], _ = Window(fb, 0, rows, SelectConst(ar, fb.Cols[1], 0, rows, nil, GE, IntValue(375)))
					}
					rel := in
					if mode == "concat" {
						out, _, err := FilterConcatWorkers(m, in, w)
						if err != nil {
							b.Fatal(err)
						}
						rel = []Selection{Whole(out)}
					}
					cols := rel[0].Batch.Cols
					g := GroupKeysWith(m, rel, cols[:1], w)
					GroupAggregateWith(m, rel, g.IDs, g.NumGroups, []AggSpec{{Kind: AggCount}, {Kind: AggSum, Col: cols[1]}, {Kind: AggSum, Col: cols[2]}}, w)
					ar.Release()
				}
			})
		}
	}
}
