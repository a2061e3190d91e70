package colfmt

import (
	"math"
	"testing"

	"biglake/internal/vector"
)

// A NaN that was the first non-null value of a float chunk used to
// become both its min and max (Value.Compare reports 0 against NaN, so
// nothing replaced it) and the footer then failed to serialize: the
// batch {NaN, 1, 2} could not be written at all, while {1, NaN, 2}
// could. Statistics now skip NaN wherever it stands; a chunk with
// nothing but NaN has no range and is never skipped.
func TestNaNStatsWriteReadPrune(t *testing.T) {
	nan := math.NaN()
	schema := vector.NewSchema(vector.Field{Name: "f", Type: vector.Float64})
	// One row group per case: NaN first, in the middle, last, the only
	// value, and a group no row of which matches.
	groups := [][]float64{{nan, 1, 2}, {1, nan, 3}, {0, 4, nan}, {nan, nan, nan}, {nan, 0.5, 1}}
	var vals []float64
	for _, g := range groups {
		vals = append(vals, g...)
	}
	b := vector.MustBatch(schema, []*vector.Column{vector.NewFloat64Column(vals)})
	data, err := WriteFile(b, WriterOptions{RowGroupRows: 3})
	if err != nil {
		t.Fatalf("a batch holding NaN must be writable: %v", err)
	}
	footer, err := ReadFooter(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(footer.RowGroups) != len(groups) {
		t.Fatalf("row groups = %d, want %d", len(footer.RowGroups), len(groups))
	}
	wantRange := [][2]float64{{1, 2}, {1, 3}, {0, 4}, {nan, nan}, {0.5, 1}}
	for i, rg := range footer.RowGroups {
		st := rg.Chunks[0].Stats
		min, max := st.Min.ToValue(), st.Max.ToValue()
		if i == 3 {
			if !min.IsNull() || !max.IsNull() || st.Nulls != 0 {
				t.Fatalf("all-NaN group: stats (%v, %v, %d), want no range and no nulls", min, max, st.Nulls)
			}
			continue
		}
		if min.F != wantRange[i][0] || max.F != wantRange[i][1] {
			t.Fatalf("group %d %v: stats (%v, %v), want %v", i, groups[i], min, max, wantRange[i])
		}
	}

	pred := Predicate{Column: "f", Op: vector.GT, Value: vector.FloatValue(1)}
	var want []float64
	for _, v := range vals {
		if v > 1 {
			want = append(want, v)
		}
	}
	r, err := NewVectorizedReader(data, nil, []Predicate{pred})
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if got.N != len(want) {
		t.Fatalf("f > 1 returned %d rows, want %d", got.N, len(want))
	}
	for i, w := range want {
		if v := got.Cols[0].Value(i); v.F != w {
			t.Fatalf("row %d = %v, want %v", i, v, w)
		}
	}
	// Footer pruning skipped only what holds no match: the last group
	// (max 1) goes, the all-NaN group stays because it has no range.
	for i, rg := range footer.RowGroups {
		keep := pred.StatsCanSatisfy(rg.Chunks[0].Stats)
		holdsMatch := false
		for _, v := range groups[i] {
			holdsMatch = holdsMatch || v > 1
		}
		if holdsMatch && !keep {
			t.Fatalf("group %d %v holds a match for %v and was pruned", i, groups[i], pred)
		}
		if wantKeep := i != 4; keep != wantKeep {
			t.Fatalf("group %d %v: kept = %v, want %v", i, groups[i], keep, wantKeep)
		}
	}
	if r.GroupsRead != 4 {
		t.Fatalf("GroupsRead = %d, want 4", r.GroupsRead)
	}
}

// Chunk statistics for integers are exact (vector.MinMax), where a
// boxed scan through Value.Compare's float64 detour, which ties
// neighbours beyond 2^53, kept the first of each tie. The exact range
// contains the boxed one: every group the footer kept with boxed
// statistics it keeps with exact ones, and the non-strict predicates
// (what dynamic partition pruning emits: `>= min AND <= max`) keep
// every group that holds a match. StatsCanSatisfy compares two
// integers exactly, as the compare kernel does, and under that compare
// boxed statistics could exclude a row, so every fold of ranges is
// exact too (TestFileStatsMergeGroupsExactly). (Strict predicates
// beyond 2^53 were once a gap of their own — statistics tied where the
// kernel did not — closed by the exact compare, not by exact
// statistics; TestStatsPruneExactBeyond2To53 in internal/engine covers
// them end to end.)
func TestExactIntStatsStayConservative(t *testing.T) {
	const big = int64(1) << 53
	// Value.Compare ties 2^53+1 with 2^53 and 2^53+3 with 2^53+4, so a
	// boxed scan keeps the first of each pair: [2^53+1, 2^53+3].
	c := vector.NewInt64Column([]int64{big + 1, big, big + 3, big + 4, big + 2})
	var bmin, bmax vector.Value
	for i := 0; i < c.Len; i++ {
		v := c.Value(i)
		if bmin.IsNull() || v.Compare(bmin) < 0 {
			bmin = v
		}
		if bmax.IsNull() || v.Compare(bmax) > 0 {
			bmax = v
		}
	}
	if bmin.I != big+1 || bmax.I != big+3 {
		t.Fatalf("premise: boxed scan gives (%d, %d), expected (%d, %d)", bmin.I, bmax.I, big+1, big+3)
	}
	min, max, nulls := vector.MinMax(c, nil)
	if min.I != big || max.I != big+4 {
		t.Fatalf("MinMax = (%d, %d), want exact (%d, %d)", min.I, max.I, big, big+4)
	}
	boxed := ColumnStats{Min: FromValue(bmin), Max: FromValue(bmax)}
	exact := ColumnStats{Min: FromValue(min), Max: FromValue(max), Nulls: nulls}
	for lit := big - 2; lit <= big+6; lit++ {
		for op := vector.EQ; op <= vector.GE; op++ {
			p := Predicate{Column: "c", Op: op, Value: vector.IntValue(lit)}
			keep := p.StatsCanSatisfy(exact)
			if p.StatsCanSatisfy(boxed) && !keep {
				t.Fatalf("%v: kept with boxed stats [%d, %d], pruned with exact [%d, %d]", p, bmin.I, bmax.I, min.I, max.I)
			}
			strict := op == vector.LT || op == vector.GT || op == vector.NE
			if matches := vector.CountMask(vector.CompareConst(c, op, p.Value)) > 0; matches && !strict && !keep {
				t.Fatalf("%v matches a row but exact stats [%d, %d] prune the group", p, min.I, max.I)
			}
		}
	}
}

// TestFileStatsMergeGroupsExactly: a file's statistics fold its row
// groups' exact ranges with the exact integer compare. Through
// Value.Compare's float64 detour 2^53 ties 2^53+1 and the first group's
// bound is kept, so a file whose groups hold 2^53+1 then 2^53 would
// record min 2^53+1 and an exact prune of `x = 2^53` would drop it.
func TestFileStatsMergeGroupsExactly(t *testing.T) {
	const big = int64(1) << 53
	schema := vector.NewSchema(vector.Field{Name: "x", Type: vector.Int64})
	for _, vals := range [][]int64{{big + 1, big}, {big, big + 1}} {
		b := vector.MustBatch(schema, []*vector.Column{vector.NewInt64Column(vals)})
		data, err := WriteFile(b, WriterOptions{RowGroupRows: 1})
		if err != nil {
			t.Fatal(err)
		}
		footer, err := ReadFooter(data)
		if err != nil {
			t.Fatal(err)
		}
		if len(footer.RowGroups) != 2 {
			t.Fatalf("%v: row groups = %d, want 2", vals, len(footer.RowGroups))
		}
		st := footer.Stats()["x"]
		if st.Min.I != big || st.Max.I != big+1 {
			t.Fatalf("%v: file stats [%d, %d], want [%d, %d]", vals, st.Min.I, st.Max.I, big, big+1)
		}
		for _, p := range []Predicate{
			{Column: "x", Op: vector.EQ, Value: vector.IntValue(big)},
			{Column: "x", Op: vector.LE, Value: vector.IntValue(big)},
			{Column: "x", Op: vector.GT, Value: vector.IntValue(big)},
			{Column: "x", Op: vector.EQ, Value: vector.IntValue(big + 1)},
		} {
			if !p.StatsCanSatisfy(st) {
				t.Fatalf("%v: %v matches a row but the file's stats prune it", vals, p)
			}
		}
	}
}
