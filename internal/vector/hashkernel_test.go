package vector

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"biglake/internal/sim"
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
	left := func(r JoinResult) []int32 {
		if r.LeftIdentity {
			r.Left = make([]int32, len(r.Right))
			for i := range r.Left {
				r.Left[i] = int32(i)
			}
		}
		return r.Left
	}
	return reflect.DeepEqual(norm(left(a)), norm(left(b))) &&
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
		out[g] = refBoxedAggregate(sp.Col, sp.Kind, mask)
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
			if !valuesBitEqual(colValues(got[s]), want) {
				t.Fatalf("spec %d (%v, col %v) workers=%d:\n got %v\nwant %v",
					s, sp.Kind, colType(sp.Col), w, got[s], want)
			}
		}
	}
}

func TestGroupAggregateEmptyAndAllNull(t *testing.T) {
	// Zero rows with grouping: no groups, no values.
	out := GroupAggregate(nil, 0, []AggSpec{{Kind: AggCount}}, 4)
	if out[0].Len != 0 {
		t.Fatalf("empty aggregate: %v", out)
	}
	// All-null column: SUM/MIN/MAX are NULL, COUNT is 0.
	n := 6
	c := intCol(make([]int64, n), 0, 1, 2, 3, 4, 5)
	ids := make([]int32, n)
	out = GroupAggregate(ids, 1, []AggSpec{
		{Kind: AggSum, Col: c}, {Kind: AggMin, Col: c}, {Kind: AggCount, Col: c},
	}, 4)
	if !out[0].IsNullAt(0) || !out[1].IsNullAt(0) || out[2].Value(0).I != 0 {
		t.Fatalf("all-null aggregate: %v", out)
	}
}

// colValues boxes a kernel's output column.
func colValues(c *Column) []Value {
	out := make([]Value, c.Len)
	for i := range out {
		out[i] = c.Value(i)
	}
	return out
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
		h := Slice(c, 0, 3)
		if h.Len != 3 {
			t.Fatalf("Head len %d", h.Len)
		}
		for i := 0; i < 3; i++ {
			if !h.Value(i).Equal(c.Value(i)) {
				t.Fatalf("Slice(%v) row %d: %v != %v", c.Enc, i, h.Value(i), c.Value(i))
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

// sweepKey is key number j of a type's domain. The float domain opens
// with NaN and both zeros: every NaN is one key, the zeros are two.
func sweepKey(t Type, j int) Value {
	switch t {
	case Int64:
		return IntValue(int64(j)*7 - 20)
	case Timestamp:
		return TimestampValue(int64(j) * 1_000_003)
	case Float64:
		switch j {
		case 0:
			return FloatValue(math.NaN())
		case 1:
			return FloatValue(0)
		case 2:
			return FloatValue(math.Copysign(0, -1))
		}
		return FloatValue(float64(j) / 4)
	default:
		return StringValue(fmt.Sprintf("key-%d", j))
	}
}

// sweepColumn builds a one-column batch of the given key numbers (-1 =
// NULL) in the given encoding.
func sweepColumn(t Type, enc Encoding, keys []int) *Batch {
	bl := NewBuilder(NewSchema(Field{Name: "k", Type: t}))
	for _, j := range keys {
		if j < 0 {
			bl.Append(NullValue)
		} else {
			bl.Append(sweepKey(t, j))
		}
	}
	b := bl.Build()
	switch enc {
	case Dict:
		b.Cols[0] = DictEncode(b.Cols[0])
	case RLE:
		b.Cols[0] = RLEncode(b.Cols[0])
	}
	return b
}

// joinShape is one point of the sweep's data dimensions.
type joinShape struct {
	name            string
	rows, build     int     // probe rows, distinct build keys
	dup, null, miss float64 // build rows repeating a key; NULL keys on both sides; probe rows with no build key
}

// sweepKind is one key type of the path sweep; for Int64 also the
// layout of its values, key j being base + step·j (wrapping).
type sweepKind struct {
	typ        Type
	base, step int64
}

func (k sweepKind) String() string {
	if k.typ == Int64 {
		return fmt.Sprintf("%v(%d+%d·j)", k.typ, k.base, k.step)
	}
	return k.typ.String()
}

// sweepKinds are the sweep's key kinds: every type, and integers laid
// out densely (consecutive keys from MinInt64, below MaxInt64 and below
// zero, so the direct-address kernels index from a range's either
// extreme) and sparsely (one key per 2^40, which must take the hash
// kernels).
var sweepKinds = []sweepKind{
	{typ: Int64, base: -20, step: 7}, {typ: Timestamp}, {typ: Float64}, {typ: String},
	{typ: Int64, base: math.MinInt64, step: 1},
	{typ: Int64, base: math.MaxInt64 - 1<<12, step: 1},
	{typ: Int64, base: -3000, step: 1},
	{typ: Int64, base: -1 << 50, step: 1 << 40},
}

// sparse reports whether keys of this kind span 2^40 or more, beyond
// every density cap: two distinct ones do when they are 2^40 apart.
func (k sweepKind) sparse(keys []int) bool {
	if k.step < 1<<40 {
		return false
	}
	first := -1
	for _, j := range keys {
		switch {
		case j < 0:
		case first < 0:
			first = j
		case j != first:
			return true
		}
	}
	return false
}

// column builds a one-column batch of kind k holding keys (-1 = NULL).
func (k sweepKind) column(enc Encoding, keys []int) *Batch {
	if k.typ != Int64 {
		return sweepColumn(k.typ, enc, keys)
	}
	vals := make([]Value, len(keys))
	for i, j := range keys {
		vals[i] = NullValue
		if j >= 0 {
			vals[i] = IntValue(k.base + k.step*int64(j))
		}
	}
	bl := NewBuilder(NewSchema(Field{Name: "k", Type: Int64}))
	for _, v := range vals {
		bl.Append(v)
	}
	b := bl.Build()
	switch enc {
	case Dict:
		b.Cols[0] = DictEncode(b.Cols[0])
	case RLE:
		b.Cols[0] = RLEncode(b.Cols[0])
	}
	return b
}

// TestJoinGroupPathParity sweeps {rows, build cardinality, duplicate
// rate, NULL rate, miss rate} x {Plain, Dict, RLE} x {Int64 laid out
// sparsely and densely, Timestamp, Float64, String} x {inner, left
// outer} x workers {1, 2, 3, 8} against refJoin and refGroup, and fails
// if the inputs stopped reaching any of the kernels' paths: which one
// runs is chosen by the data, so a sweep that no longer reaches one no
// longer tests it. A key one value per 2^40 apart must never take a
// direct-address kernel.
func TestJoinGroupPathParity(t *testing.T) {
	two, three := MorselRows+133, 2*MorselRows+77 // morsels
	shapes := []joinShape{
		{name: "one build row", rows: 40, build: 1},
		{name: "n:1 all match", rows: two, build: 64},
		{name: "n:1 some miss", rows: three, build: 1000, miss: 0.25},
		{name: "n:1 nulls", rows: two, build: 300, null: 0.05, miss: 0.1},
		{name: "duplicate build keys", rows: three, build: 200, dup: 0.3, miss: 0.1},
		{name: "duplicates and nulls", rows: two, build: 200, dup: 0.3, null: 0.05, miss: 0.5},
		{name: "every row misses", rows: 500, build: 50, miss: 1},
	}
	var joinPaths struct{ n1, n1Int, dense, general, identity, compacted int }
	groupPaths := map[GroupStrategy]int{}
	r := sim.NewRNG(22)
	for _, sh := range shapes {
		for _, kd := range sweepKinds {
			for _, enc := range []Encoding{Plain, Dict, RLE} {
				pick := func(j int) int {
					if r.Float64() < sh.null {
						return -1
					}
					return j
				}
				var rk []int
				for j := 0; j < sh.build; j++ {
					rk = append(rk, pick(j))
					if r.Float64() < sh.dup {
						rk = append(rk, pick(r.Intn(j+1)))
					}
				}
				lk := make([]int, sh.rows)
				for i := range lk {
					if r.Float64() < sh.miss {
						lk[i] = pick(sh.build + r.Intn(8))
					} else {
						lk[i] = pick(r.Intn(sh.build))
					}
				}
				left, right := kd.column(enc, lk), kd.column(enc, rk)
				what := fmt.Sprintf("%s/%v/%v", sh.name, kd, enc)

				for _, kind := range []JoinKind{InnerJoin, LeftOuterJoin} {
					want := refJoin(left, right, []int{0}, []int{0}, kind)
					for _, w := range []int{1, 2, 3, 8} {
						got, err := HashJoinWith(Mem{}, []Selection{Whole(left)}, right, []int{0}, []int{0}, kind, w)
						if err != nil {
							t.Fatalf("%s workers=%d: %v", what, w, err)
						}
						switch {
						case got.Strategy == JoinDense:
							joinPaths.dense++
							if kd.sparse(rk) {
								t.Fatalf("%s workers=%d: a key 2^40 apart took the direct-address join", what, w)
							}
						case got.intKey:
							joinPaths.n1Int++
						case got.Strategy == JoinN1:
							joinPaths.n1++
						default:
							joinPaths.general++
						}
						if got.LeftIdentity {
							joinPaths.identity++
							if got.Left != nil || len(got.Right) != left.N {
								t.Fatalf("%s workers=%d: LeftIdentity with Left=%v, %d pairs for %d rows", what, w, got.Left, len(got.Right), left.N)
							}
							got.Left = make([]int32, left.N)
							for i := range got.Left {
								got.Left[i] = int32(i)
							}
						} else if got.Strategy == JoinN1 || got.Strategy == JoinDense {
							joinPaths.compacted++
						}
						if !joinEq(got, want) {
							t.Fatalf("%s kind=%d workers=%d (%v):\n got %+v\nwant %+v", what, kind, w, got.Strategy, got, want)
						}
					}
				}
				g := checkGroupAllWorkers(t, []*Column{left.Cols[0]}, left.N)
				groupPaths[g.Strategy]++
				checkPiecesMatchBatch(t, what, r, left, right)
				if kd.sparse(lk) && g.Strategy == GroupDense {
					t.Fatalf("%s: a key 2^40 apart took the direct-address grouping", what)
				}
			}
		}
	}
	t.Logf("join paths %+v, group paths %v", joinPaths, groupPaths)
	if joinPaths.n1 == 0 || joinPaths.n1Int == 0 || joinPaths.dense == 0 || joinPaths.general == 0 || joinPaths.identity == 0 || joinPaths.compacted == 0 {
		t.Errorf("sweep missed a join path: %+v", joinPaths)
	}
	for _, s := range []GroupStrategy{GroupHash, GroupDict, GroupInt64, GroupDense} {
		if groupPaths[s] == 0 {
			t.Errorf("sweep never took the %v grouping path: %v", s, groupPaths)
		}
	}
}

// pieceShapes splits b's rows into a relation of consecutive pieces
// over b of every shape a scan hands on — an empty one, a window, a
// selection whose survivors straddle morsel boundaries, and one that
// holds every row of its window — and returns it with its rows
// materialized, the one-piece relation the kernels must answer alike.
func pieceShapes(r *sim.RNG, b *Batch) ([]Selection, *Batch) {
	cut := func(f float64) int { return int(f * float64(b.N)) }
	a, c, d := cut(0.1), cut(0.3), cut(0.8)
	var sel []int32
	for i := c; i < d; i++ {
		if r.Intn(100) < 62 {
			sel = append(sel, int32(i))
		}
	}
	all := make([]int32, b.N-d)
	for i := range all {
		all[i] = int32(d + i)
	}
	pieces := []Selection{
		{Batch: b, Lo: 0, Hi: a, Sel: []int32{}},
		{Batch: b, Lo: a, Hi: c, N: c - a},
		{Batch: b, Lo: c, Hi: d, Sel: sel, N: len(sel)},
		{Batch: b, Lo: d, Hi: b.N, Sel: all, N: len(all)},
	}
	flat, err := FilterConcatWith(Mem{}, pieces)
	if err != nil {
		panic(err)
	}
	return pieces, flat
}

// checkPiecesMatchBatch: the join, the grouping, the aggregates and
// the top-K over left cut into pieces of every shape answer, at every
// worker count, exactly as over the same rows as one batch — pairs,
// group IDs and first rows are positions of the relation either way.
func checkPiecesMatchBatch(t *testing.T, what string, r *sim.RNG, left, right *Batch) {
	t.Helper()
	pieces, flat := pieceShapes(r, left)
	whole := []Selection{Whole(flat)}
	pc, fc := left.Cols[0], flat.Cols[0]
	for _, w := range []int{1, 2, 3, 8} {
		for _, kind := range []JoinKind{InnerJoin, LeftOuterJoin} {
			got, err1 := HashJoinWith(Mem{}, pieces, right, []int{0}, []int{0}, kind, w)
			want, err2 := HashJoinWith(Mem{}, whole, right, []int{0}, []int{0}, kind, w)
			if err1 != nil || err2 != nil || got.LeftIdentity != want.LeftIdentity || !joinEq(got, want) {
				t.Fatalf("%s kind=%d workers=%d: join over pieces %+v, over the batch %+v (%v, %v)", what, kind, w, got, want, err1, err2)
			}
		}
		gp := GroupKeysWith(Mem{}, pieces, []*Column{pc}, w)
		gb := GroupKeysWith(Mem{}, whole, []*Column{fc}, w)
		if gp.NumGroups != gb.NumGroups || !reflect.DeepEqual(norm32(gp.IDs), norm32(gb.IDs)) || !reflect.DeepEqual(norm32(gp.Rep), norm32(gb.Rep)) {
			t.Fatalf("%s workers=%d: grouping over pieces differs from over the batch", what, w)
		}
		specs := func(c *Column) []AggSpec {
			return []AggSpec{{Kind: AggCount}, {Kind: AggCount, Col: c}, {Kind: AggSum, Col: c}, {Kind: AggMin, Col: c}, {Kind: AggMax, Col: c}}
		}
		ap := GroupAggregateWith(Mem{}, pieces, gp.IDs, gp.NumGroups, specs(pc), w)
		ab := GroupAggregateWith(Mem{}, whole, gb.IDs, gb.NumGroups, specs(fc), w)
		for s := range ap {
			for g := 0; g < gp.NumGroups; g++ {
				if x, y := ap[s].Value(g), ab[s].Value(g); x.Type != y.Type || x.String() != y.String() {
					t.Fatalf("%s workers=%d: aggregate %d group %d over pieces %v, over the batch %v", what, w, s, g, x, y)
				}
			}
		}
		for _, k := range []int{1, 7, flat.N} {
			tp := TopK(Mem{}, pieces, []SortKey{ExtractSortKey(Heap, pieces, pc, true)}, k)
			tb := TopK(Mem{}, whole, []SortKey{ExtractSortKey(Heap, whole, fc, true)}, k)
			if !reflect.DeepEqual(norm32(tp), norm32(tb)) {
				t.Fatalf("%s workers=%d: top-%d over pieces %v, over the batch %v", what, w, k, tp, tb)
			}
		}
	}
}

// TestDictKeyDuplicateEntries: a dictionary is not a set. Two entries
// may hold one key (two NaN payloads, or a writer that did not
// deduplicate) and must land in one group and match one another; -0.0
// and +0.0 are two keys; the NULL code is a group of its own and matches
// nothing.
func TestDictKeyDuplicateEntries(t *testing.T) {
	nan2 := math.Float64frombits(math.Float64bits(math.NaN()) ^ 1)
	if nan2 == nan2 {
		t.Fatal("second NaN payload is not a NaN")
	}
	floats := &Column{Type: Float64, Enc: Dict, Floats: []float64{1.5, math.NaN(), 0, nan2, math.Copysign(0, -1), 1.5}}
	strs := &Column{Type: String, Enc: Dict, Strs: []string{"a", "b", "a", "c"}}
	for _, c := range []*Column{floats, strs} {
		d := c.dictLen()
		c.Len = 8 * d
		c.Codes = make([]uint32, c.Len)
		for i := range c.Codes {
			c.Codes[i] = uint32((i*5 + i/d) % (d + 1))
			if c.Codes[i] == uint32(d) {
				c.Codes[i] = NullIdx
			}
		}
		if g := checkGroupAllWorkers(t, []*Column{c}, c.Len); g.Strategy != GroupDict {
			t.Fatalf("%v dictionary of %d entries over %d rows grouped by %v, want dict", c.Type, d, c.Len, g.Strategy)
		}
		for _, kind := range []JoinKind{InnerJoin, LeftOuterJoin} {
			checkJoinAllWorkers(t, batchOf(c), batchOf(Slice(c, 0, d+2)), []int{0}, []int{0}, kind)
		}
	}
}

// TestN1ProbeConcurrentWriters is the race-detector target for the N:1
// probe (`make gclean` runs it under -race -count=5): eight workers
// write match slots, miss counts and compacted ranges of one shared
// output, and must produce what one worker does — for the typed
// integer loops (hashed and direct-address) and the hashed one, with
// and without misses.
func TestN1ProbeConcurrentWriters(t *testing.T) {
	n := 16*MorselRows + 5
	for _, kd := range []sweepKind{{typ: Int64, base: -20, step: 7}, {typ: Int64, base: -20, step: 1}, {typ: String}} {
		strategy := JoinN1
		if kd.typ == Int64 && kd.step == 1 {
			strategy = JoinDense
		}
		for _, miss := range []float64{0, 0.2} {
			r := sim.NewRNG(7)
			rk := make([]int, 500)
			for i := range rk {
				rk[i] = i
			}
			lk := make([]int, n)
			for i := range lk {
				lk[i] = r.Intn(len(rk))
				if r.Float64() < miss {
					lk[i] += len(rk)
				}
			}
			left, right := kd.column(Plain, lk), kd.column(Plain, rk)
			for _, kind := range []JoinKind{InnerJoin, LeftOuterJoin} {
				want, err := HashJoinWith(Mem{}, []Selection{Whole(left)}, right, []int{0}, []int{0}, kind, 1)
				if err != nil || want.Strategy != strategy || want.intKey != (kd.typ == Int64) || want.LeftIdentity != (miss == 0) {
					t.Fatalf("%v miss=%v: one worker took another path: %+v, %v", kd, miss, want.Strategy, err)
				}
				got, err := HashJoinWith(Mem{}, []Selection{Whole(left)}, right, []int{0}, []int{0}, kind, 8)
				if err != nil || !joinEq(got, want) || got.LeftIdentity != want.LeftIdentity {
					t.Fatalf("%v miss=%v kind=%d: eight workers disagree with one (err %v)", kd, miss, kind, err)
				}
			}
		}
	}
}
