package vector

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

// refKey renders the historical string join/group key for a row:
// "%d|%s|" per column — the semantics the typed kernels must match.
func refKey(cols []*Column, row int) (string, bool) {
	var sb strings.Builder
	anyNull := false
	for _, c := range cols {
		v := c.Value(row)
		if v.IsNull() {
			anyNull = true
		}
		fmt.Fprintf(&sb, "%d|%s|", v.Type, v.String())
	}
	return sb.String(), anyNull
}

// refJoin is the sequential string-keyed join the engine used to run.
func refJoin(left, right *Batch, lk, rk []int, kind JoinKind) JoinResult {
	pick := func(b *Batch, keys []int) []*Column {
		out := make([]*Column, len(keys))
		for i, k := range keys {
			out[i] = b.Cols[k]
		}
		return out
	}
	lc, rc := pick(left, lk), pick(right, rk)
	build := map[string][]int32{}
	for r := 0; r < right.N; r++ {
		key, null := refKey(rc, r)
		if null {
			continue
		}
		build[key] = append(build[key], int32(r))
	}
	var res JoinResult
	for l := 0; l < left.N; l++ {
		key, null := refKey(lc, l)
		matches := build[key]
		if null || len(matches) == 0 {
			if kind == LeftOuterJoin {
				res.LeftOuter = append(res.LeftOuter, int32(l))
			}
			continue
		}
		for _, r := range matches {
			res.Left = append(res.Left, int32(l))
			res.Right = append(res.Right, r)
		}
	}
	return res
}

func joinEq(a, b JoinResult) bool {
	norm := func(s []int32) []int32 {
		if len(s) == 0 {
			return nil
		}
		return s
	}
	return reflect.DeepEqual(norm(a.Left), norm(b.Left)) &&
		reflect.DeepEqual(norm(a.Right), norm(b.Right)) &&
		reflect.DeepEqual(norm(a.LeftOuter), norm(b.LeftOuter))
}

func intCol(vals []int64, nulls ...int) *Column {
	c := NewInt64Column(vals)
	for _, i := range nulls {
		if c.Nulls == nil {
			c.Nulls = make([]bool, len(vals))
		}
		c.Nulls[i] = true
	}
	return c
}

func batchOf(cols ...*Column) *Batch {
	fields := make([]Field, len(cols))
	for i, c := range cols {
		fields[i] = Field{Name: fmt.Sprintf("c%d", i), Type: c.Type}
	}
	return MustBatch(Schema{Fields: fields}, cols)
}

var workerCounts = []int{1, 2, 3, 4, 8}

func checkJoinAllWorkers(t *testing.T, left, right *Batch, lk, rk []int, kind JoinKind) {
	t.Helper()
	want := refJoin(left, right, lk, rk, kind)
	for _, w := range workerCounts {
		got, err := HashJoin(left, right, lk, rk, kind, w)
		if err != nil {
			t.Fatalf("HashJoin(workers=%d): %v", w, err)
		}
		if !joinEq(got, want) {
			t.Fatalf("HashJoin(workers=%d) mismatch:\n got %+v\nwant %+v", w, got, want)
		}
	}
}

func TestHashJoinMatchesReference(t *testing.T) {
	left := batchOf(
		intCol([]int64{1, 2, 3, 2, 5, 0}, 5),
		NewStringColumn([]string{"a", "b", "c", "b", "e", "f"}),
	)
	right := batchOf(
		intCol([]int64{2, 2, 3, 7, 0}, 4),
		NewStringColumn([]string{"b", "x", "c", "y", "f"}),
	)
	for _, kind := range []JoinKind{InnerJoin, LeftOuterJoin} {
		checkJoinAllWorkers(t, left, right, []int{0}, []int{0}, kind)
		checkJoinAllWorkers(t, left, right, []int{0, 1}, []int{0, 1}, kind)
	}
}

func TestHashJoinEncodedKeys(t *testing.T) {
	strs := make([]string, 500)
	ints := make([]int64, 500)
	for i := range strs {
		strs[i] = fmt.Sprintf("k%d", i%7)
		ints[i] = int64(i % 5)
	}
	left := batchOf(DictEncode(NewStringColumn(strs)), RLEncode(NewInt64Column(ints)))
	right := batchOf(NewStringColumn(strs[:40]), NewInt64Column(ints[:40]))
	for _, kind := range []JoinKind{InnerJoin, LeftOuterJoin} {
		checkJoinAllWorkers(t, left, right, []int{0, 1}, []int{0, 1}, kind)
	}
}

func TestHashJoinFloatKeys(t *testing.T) {
	nan := math.NaN()
	left := batchOf(NewFloat64Column([]float64{1.5, nan, math.Copysign(0, -1), 0, 2.5}))
	right := batchOf(NewFloat64Column([]float64{nan, 0, 1.5, math.Copysign(0, -1)}))
	for _, kind := range []JoinKind{InnerJoin, LeftOuterJoin} {
		checkJoinAllWorkers(t, left, right, []int{0}, []int{0}, kind)
	}
}

func TestHashJoinTypeMismatchNeverMatches(t *testing.T) {
	// Int64(1) must not match Timestamp(1) or Float64(1.0): type is
	// part of key identity.
	left := batchOf(NewInt64Column([]int64{1, 2}))
	for _, rc := range []*Column{
		NewTimestampColumn([]int64{1, 2}),
		NewFloat64Column([]float64{1, 2}),
	} {
		right := batchOf(rc)
		got, err := HashJoin(left, right, []int{0}, []int{0}, InnerJoin, 2)
		if err != nil || len(got.Left) != 0 {
			t.Fatalf("type-mismatched join produced %d pairs (err %v)", len(got.Left), err)
		}
		got, err = HashJoin(left, right, []int{0}, []int{0}, LeftOuterJoin, 2)
		if err != nil || len(got.LeftOuter) != 2 {
			t.Fatalf("type-mismatched LEFT join: outer=%v err=%v", got.LeftOuter, err)
		}
	}
}

func TestHashJoinEmptyInputs(t *testing.T) {
	empty := batchOf(NewInt64Column(nil))
	full := batchOf(NewInt64Column([]int64{1, 2, 3}))
	for _, kind := range []JoinKind{InnerJoin, LeftOuterJoin} {
		checkJoinAllWorkers(t, empty, full, []int{0}, []int{0}, kind)
		checkJoinAllWorkers(t, full, empty, []int{0}, []int{0}, kind)
		checkJoinAllWorkers(t, empty, empty, []int{0}, []int{0}, kind)
	}
}

func TestHashJoinLarge(t *testing.T) {
	n := 3*MorselRows + 137
	lk := make([]int64, n)
	for i := range lk {
		lk[i] = int64(i*2654435761) % 997
	}
	rk := make([]int64, 2000)
	for i := range rk {
		rk[i] = int64(i*40503) % 997
	}
	left := batchOf(intCol(lk, 17, 4096, 9000))
	right := batchOf(intCol(rk, 3))
	for _, kind := range []JoinKind{InnerJoin, LeftOuterJoin} {
		checkJoinAllWorkers(t, left, right, []int{0}, []int{0}, kind)
	}
}

// refGroup is the sequential string-keyed grouping the engine used.
func refGroup(cols []*Column, n int) (ids []int32, reps []int32) {
	ids = make([]int32, n)
	seen := map[string]int32{}
	for r := 0; r < n; r++ {
		key, _ := refKey(cols, r)
		id, ok := seen[key]
		if !ok {
			id = int32(len(reps))
			seen[key] = id
			reps = append(reps, int32(r))
		}
		ids[r] = id
	}
	return ids, reps
}

func checkGroupAllWorkers(t *testing.T, cols []*Column, n int) Grouping {
	t.Helper()
	wantIDs, wantReps := refGroup(cols, n)
	var first Grouping
	for _, w := range workerCounts {
		g := GroupKeys(cols, n, w)
		if g.NumGroups != len(wantReps) ||
			!reflect.DeepEqual(norm32(g.IDs), norm32(wantIDs)) ||
			!reflect.DeepEqual(norm32(g.Rep), norm32(wantReps)) {
			t.Fatalf("GroupKeys(workers=%d):\n got %+v\nwant ids=%v reps=%v", w, g, wantIDs, wantReps)
		}
		if w == 1 {
			first = g
		}
	}
	return first
}

func norm32(s []int32) []int32 {
	if len(s) == 0 {
		return nil
	}
	return s
}

func TestGroupKeysMatchesReference(t *testing.T) {
	n := 2*MorselRows + 333
	ints := make([]int64, n)
	strs := make([]string, n)
	var nullRows []int
	for i := range ints {
		ints[i] = int64(i % 13)
		strs[i] = fmt.Sprintf("g%d", i%4)
		if i%97 == 0 {
			nullRows = append(nullRows, i)
		}
	}
	ic := intCol(ints, nullRows...)
	checkGroupAllWorkers(t, []*Column{ic}, n)
	checkGroupAllWorkers(t, []*Column{ic, NewStringColumn(strs)}, n)
	checkGroupAllWorkers(t, []*Column{DictEncode(NewStringColumn(strs)), RLEncode(ic.Decode())}, n)
}

func TestGroupKeysFloatAndTypeIdentity(t *testing.T) {
	nan := math.NaN()
	// NaNs group together; -0 and +0 are distinct groups (they render
	// differently); NULL forms its own group.
	c := NewFloat64Column([]float64{nan, 0, math.Copysign(0, -1), nan, 0, 1})
	c.Nulls = []bool{false, false, false, false, false, true}
	checkGroupAllWorkers(t, []*Column{c}, c.Len)
}

func TestGroupKeysNoKeys(t *testing.T) {
	g := GroupKeys(nil, 10, 4)
	if g.NumGroups != 1 || g.Rep[0] != 0 || len(g.IDs) != 10 {
		t.Fatalf("no-key grouping: %+v", g)
	}
	g = GroupKeys(nil, 0, 4)
	if g.NumGroups != 1 || g.Rep[0] != -1 || len(g.IDs) != 0 {
		t.Fatalf("no-key empty grouping: %+v", g)
	}
	g = GroupKeys([]*Column{NewInt64Column(nil)}, 0, 4)
	if g.NumGroups != 0 || len(g.IDs) != 0 {
		t.Fatalf("keyed empty grouping: %+v", g)
	}
}

// refAggregate folds one spec with the historical mask-based path.
func refAggregate(sp AggSpec, ids []int32, numGroups, n int) []Value {
	out := make([]Value, numGroups)
	for g := 0; g < numGroups; g++ {
		mask := make([]bool, n)
		rows := 0
		for i, id := range ids {
			if int(id) == g {
				mask[i] = true
				rows++
			}
		}
		if sp.Col == nil {
			out[g] = IntValue(int64(rows))
			continue
		}
		out[g] = Aggregate(sp.Col, sp.Kind, mask)
	}
	return out
}

func TestGroupAggregateMatchesReference(t *testing.T) {
	n := 2*MorselRows + 501
	keys := make([]int64, n)
	ints := make([]int64, n)
	floats := make([]float64, n)
	strs := make([]string, n)
	ts := make([]int64, n)
	var nullRows []int
	for i := 0; i < n; i++ {
		keys[i] = int64(i % 37)
		ints[i] = int64((i*7919)%1000) - 500
		floats[i] = float64(i%100) * 0.1
		strs[i] = fmt.Sprintf("s%03d", (i*31)%200)
		ts[i] = int64(i * 1000)
		if i%53 == 0 {
			nullRows = append(nullRows, i)
		}
	}
	floats[5] = math.NaN()
	floats[MorselRows+7] = math.NaN()
	floats[17] = math.Copysign(0, -1)
	fc := NewFloat64Column(floats)
	g := GroupKeys([]*Column{NewInt64Column(keys)}, n, 4)

	specs := []AggSpec{
		{Kind: AggCount, Col: nil},
		{Kind: AggCount, Col: intCol(ints, nullRows...)},
		{Kind: AggSum, Col: intCol(ints, nullRows...)},
		{Kind: AggSum, Col: fc},
		{Kind: AggSum, Col: NewStringColumn(strs)},
		{Kind: AggMin, Col: intCol(ints, nullRows...)},
		{Kind: AggMax, Col: intCol(ints, nullRows...)},
		{Kind: AggMin, Col: fc},
		{Kind: AggMax, Col: fc},
		{Kind: AggMin, Col: NewStringColumn(strs)},
		{Kind: AggMax, Col: NewStringColumn(strs)},
		{Kind: AggMin, Col: NewTimestampColumn(ts)},
		{Kind: AggMax, Col: NewTimestampColumn(ts)},
		{Kind: AggMin, Col: DictEncode(NewStringColumn(strs))},
		{Kind: AggMax, Col: RLEncode(intCol(ints, nullRows...))},
		{Kind: AggMin, Col: NewBoolColumn(makeBools(n))},
		{Kind: AggMax, Col: NewBoolColumn(makeBools(n))},
	}
	for _, w := range workerCounts {
		got := GroupAggregate(g.IDs, g.NumGroups, specs, w)
		for s, sp := range specs {
			want := refAggregate(sp, g.IDs, g.NumGroups, n)
			if !valuesBitEqual(got[s], want) {
				t.Fatalf("spec %d (%v, col %v) workers=%d:\n got %v\nwant %v",
					s, sp.Kind, colType(sp.Col), w, got[s], want)
			}
		}
	}
}

func TestGroupAggregateEmptyAndAllNull(t *testing.T) {
	// Zero rows with grouping: no groups, no values.
	out := GroupAggregate(nil, 0, []AggSpec{{Kind: AggCount}}, 4)
	if len(out[0]) != 0 {
		t.Fatalf("empty aggregate: %v", out)
	}
	// All-null column: SUM/MIN/MAX are NULL, COUNT is 0.
	n := 6
	c := intCol(make([]int64, n), 0, 1, 2, 3, 4, 5)
	ids := make([]int32, n)
	out = GroupAggregate(ids, 1, []AggSpec{
		{Kind: AggSum, Col: c}, {Kind: AggMin, Col: c}, {Kind: AggCount, Col: c},
	}, 4)
	if !out[0][0].IsNull() || !out[1][0].IsNull() || out[2][0].I != 0 {
		t.Fatalf("all-null aggregate: %v", out)
	}
}

func makeBools(n int) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = i%3 == 0
	}
	return out
}

func colType(c *Column) Type {
	if c == nil {
		return Invalid
	}
	return c.Type
}

// valuesBitEqual compares aggregate outputs bit-exactly (floats by
// bits, so +0 != -0 and NaN == NaN — result determinism, not SQL
// equality).
func valuesBitEqual(a, b []Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Type != y.Type || x.I != y.I || x.S != y.S || x.B != y.B {
			return false
		}
		if math.Float64bits(x.F) != math.Float64bits(y.F) {
			return false
		}
	}
	return true
}

func TestHeadAndGatherNull(t *testing.T) {
	base := intCol([]int64{10, 20, 30, 40, 50}, 2)
	for _, c := range []*Column{base, DictEncode(base.Decode()), RLEncode(base.Decode())} {
		h := Head(c, 3)
		if h.Len != 3 {
			t.Fatalf("Head len %d", h.Len)
		}
		for i := 0; i < 3; i++ {
			if !h.Value(i).Equal(c.Value(i)) {
				t.Fatalf("Head(%v) row %d: %v != %v", c.Enc, i, h.Value(i), c.Value(i))
			}
		}
		g := GatherNullWith(Mem{}, c, []int32{4, -1, 2, 0})
		want := []Value{IntValue(50), NullValue, NullValue, IntValue(10)}
		for i, wv := range want {
			if !g.Value(i).Equal(wv) {
				t.Fatalf("GatherNullWith(%v) row %d: %v != %v", c.Enc, i, g.Value(i), wv)
			}
		}
	}
}
