package vector

import (
	"testing"
	"testing/quick"

	"biglake/internal/sim"
)

func TestTypeRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Type
	}{
		{"INT64", Int64}, {"int", Int64}, {"FLOAT64", Float64}, {"double", Float64},
		{"bool", Bool}, {"STRING", String}, {"bytes", Bytes}, {"timestamp", Timestamp},
	} {
		got, err := TypeFromString(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("TypeFromString(%q) = %v, %v", tc.in, got, err)
		}
	}
	if _, err := TypeFromString("GEOGRAPHY"); err == nil {
		t.Fatal("unknown type should error")
	}
}

func TestSchemaOps(t *testing.T) {
	s := NewSchema(Field{"a", Int64}, Field{"b", String}, Field{"c", Float64})
	if s.Index("b") != 1 || s.Index("zzz") != -1 {
		t.Fatal("Index")
	}
	sub, err := s.Select([]string{"c", "a"})
	if err != nil {
		t.Fatal(err)
	}
	if sub.Len() != 2 || sub.Fields[0].Name != "c" || sub.Fields[1].Name != "a" {
		t.Fatalf("Select = %v", sub)
	}
	if _, err := s.Select([]string{"nope"}); err == nil {
		t.Fatal("select missing column should error")
	}
	if !s.Equal(s) || s.Equal(sub) {
		t.Fatal("Equal")
	}
}

func TestValueCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{IntValue(1), IntValue(2), -1},
		{IntValue(2), IntValue(2), 0},
		{IntValue(3), IntValue(2), 1},
		{IntValue(2), FloatValue(2.5), -1},
		{FloatValue(2.5), IntValue(2), 1},
		{StringValue("a"), StringValue("b"), -1},
		{BoolValue(false), BoolValue(true), -1},
		{BoolValue(true), BoolValue(true), 0},
		{TimestampValue(10), TimestampValue(5), 1},
	}
	for _, tc := range cases {
		if got := tc.a.Compare(tc.b); got != tc.want {
			t.Errorf("%v.Compare(%v) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestValueEqualNulls(t *testing.T) {
	if !NullValue.Equal(NullValue) {
		t.Fatal("NULL == NULL for Equal (used for dedup, not SQL eval)")
	}
	if NullValue.Equal(IntValue(0)) || IntValue(0).Equal(NullValue) {
		t.Fatal("NULL != 0")
	}
	if !IntValue(2).Equal(FloatValue(2.0)) {
		t.Fatal("cross-numeric equality")
	}
}

func buildMixedColumn() *Column {
	c := NewStringColumn([]string{"us", "de", "us", "fr", "us", "de", "jp", "us"})
	return c
}

func TestDictEncodeDecode(t *testing.T) {
	c := buildMixedColumn()
	d := DictEncode(c)
	if d.Enc != Dict {
		t.Fatal("not dict encoded")
	}
	if len(d.Strs) != 4 {
		t.Fatalf("dictionary size %d, want 4", len(d.Strs))
	}
	back := d.Decode()
	for i := 0; i < c.Len; i++ {
		if !back.Value(i).Equal(c.Value(i)) {
			t.Fatalf("row %d: %v != %v", i, back.Value(i), c.Value(i))
		}
	}
}

func TestDictEncodeWithNulls(t *testing.T) {
	c := NewInt64Column([]int64{1, 0, 2, 1})
	c.Nulls = []bool{false, true, false, false}
	d := DictEncode(c)
	if d.Codes[1] != NullIdx {
		t.Fatal("null row should map to NullIdx")
	}
	if !d.Value(1).IsNull() {
		t.Fatal("Value at null row")
	}
	back := d.Decode()
	if !back.Value(1).IsNull() || back.Value(0).AsInt() != 1 {
		t.Fatal("decode round trip with nulls")
	}
}

func TestRLEncodeDecode(t *testing.T) {
	c := NewInt64Column([]int64{5, 5, 5, 7, 7, 9, 5, 5})
	r := RLEncode(c)
	if r.Enc != RLE {
		t.Fatal("not RLE")
	}
	if len(r.Runs) != 4 {
		t.Fatalf("runs = %d, want 4", len(r.Runs))
	}
	back := r.Decode()
	for i := 0; i < c.Len; i++ {
		if back.Value(i).AsInt() != c.Value(i).AsInt() {
			t.Fatalf("row %d mismatch", i)
		}
	}
}

func TestRLEncodeNullRuns(t *testing.T) {
	c := NewStringColumn([]string{"a", "", "", "b"})
	c.Nulls = []bool{false, true, true, false}
	r := RLEncode(c)
	if !r.Value(1).IsNull() || !r.Value(2).IsNull() {
		t.Fatal("null run lost")
	}
	if r.Value(3).S != "b" {
		t.Fatal("value after null run")
	}
}

func TestCompareConstPlain(t *testing.T) {
	c := NewInt64Column([]int64{1, 5, 3, 5, 9})
	mask := CompareConst(c, GE, IntValue(5))
	want := []bool{false, true, false, true, true}
	for i := range want {
		if mask[i] != want[i] {
			t.Fatalf("mask = %v", mask)
		}
	}
}

func TestCompareConstNullsAreFalse(t *testing.T) {
	c := NewInt64Column([]int64{1, 99, 3})
	c.Nulls = []bool{false, true, false}
	mask := CompareConst(c, GT, IntValue(0))
	if mask[1] {
		t.Fatal("NULL row must compare false")
	}
	if !mask[0] || !mask[2] {
		t.Fatal("non-null rows")
	}
}

func TestCompareConstDictMatchesPlain(t *testing.T) {
	plain := buildMixedColumn()
	dict := DictEncode(plain)
	for _, op := range []CmpOp{EQ, NE, LT, LE, GT, GE} {
		pm := CompareConst(plain, op, StringValue("fr"))
		dm := CompareConst(dict, op, StringValue("fr"))
		for i := range pm {
			if pm[i] != dm[i] {
				t.Fatalf("op %v row %d: plain %v dict %v", op, i, pm[i], dm[i])
			}
		}
	}
}

func TestCompareConstRLEMatchesPlain(t *testing.T) {
	plain := NewInt64Column([]int64{2, 2, 2, 8, 8, 1, 1, 1, 1})
	rle := RLEncode(plain)
	for _, op := range []CmpOp{EQ, NE, LT, LE, GT, GE} {
		pm := CompareConst(plain, op, IntValue(2))
		rm := CompareConst(rle, op, IntValue(2))
		for i := range pm {
			if pm[i] != rm[i] {
				t.Fatalf("op %v row %d", op, i)
			}
		}
	}
}

func TestCompareConstMixedNumeric(t *testing.T) {
	c := NewInt64Column([]int64{1, 2, 3})
	mask := CompareConst(c, GT, FloatValue(1.5))
	if mask[0] || !mask[1] || !mask[2] {
		t.Fatalf("mask = %v", mask)
	}
	f := NewFloat64Column([]float64{0.5, 2.5})
	mask = CompareConst(f, LT, IntValue(1))
	if !mask[0] || mask[1] {
		t.Fatalf("float col vs int const: %v", mask)
	}
}

func TestCompareCols(t *testing.T) {
	a := NewInt64Column([]int64{1, 5, 3})
	b := NewInt64Column([]int64{1, 4, 9})
	mask, err := CompareCols(Heap, a, b, EQ)
	if err != nil {
		t.Fatal(err)
	}
	if !mask[0] || mask[1] || mask[2] {
		t.Fatalf("mask = %v", mask)
	}
	short := NewInt64Column([]int64{1})
	if _, err := CompareCols(Heap, a, short, EQ); err == nil {
		t.Fatal("length mismatch should error")
	}
}

func TestBooleanKernels(t *testing.T) {
	a := []bool{true, true, false, false}
	b := []bool{true, false, true, false}
	and, or, not := And(a, b), Or(a, b), Not(a)
	if !and[0] || and[1] || and[2] || and[3] {
		t.Fatal("And")
	}
	if !or[0] || !or[1] || !or[2] || or[3] {
		t.Fatal("Or")
	}
	if not[0] || !not[2] {
		t.Fatal("Not")
	}
	if CountMask(a) != 2 {
		t.Fatal("CountMask")
	}
}

func TestFilterAndGather(t *testing.T) {
	schema := NewSchema(Field{"id", Int64}, Field{"name", String})
	b := MustBatch(schema, []*Column{
		NewInt64Column([]int64{1, 2, 3, 4}),
		NewStringColumn([]string{"a", "b", "c", "d"}),
	})
	out, err := Filter(b, []bool{true, false, true, false})
	if err != nil {
		t.Fatal(err)
	}
	if out.N != 2 || out.Cols[0].Ints[1] != 3 || out.Cols[1].Strs[0] != "a" {
		t.Fatalf("filtered = %+v", out)
	}
	if _, err := Filter(b, []bool{true}); err == nil {
		t.Fatal("bad mask length should error")
	}
}

func TestFilterPreservesNulls(t *testing.T) {
	schema := NewSchema(Field{"v", Int64})
	c := NewInt64Column([]int64{1, 2, 3})
	c.Nulls = []bool{false, true, false}
	b := MustBatch(schema, []*Column{c})
	out, _ := Filter(b, []bool{true, true, false})
	if !out.Cols[0].Value(1).IsNull() {
		t.Fatal("null lost through filter")
	}
}

func TestGatherFromRLE(t *testing.T) {
	c := RLEncode(NewStringColumn([]string{"x", "x", "y", "y", "z"}))
	out := GatherWith(Mem{}, c, []int{4, 0, 2})
	if out.Strs[0] != "z" || out.Strs[1] != "x" || out.Strs[2] != "y" {
		t.Fatalf("gather = %v", out.Strs)
	}
}

func TestIsNullMaskAcrossEncodings(t *testing.T) {
	plain := NewInt64Column([]int64{1, 0, 3})
	plain.Nulls = []bool{false, true, false}
	dict := DictEncode(plain)
	rle := RLEncode(plain)
	for _, c := range []*Column{plain, dict, rle} {
		m := IsNullMask(c)
		if m[0] || !m[1] || m[2] {
			t.Fatalf("enc %v mask = %v", c.Enc, m)
		}
	}
}

func TestMaskNullify(t *testing.T) {
	c := NewStringColumn([]string{"secret", "data"})
	m := ApplyMask(c, MaskNullify)
	if !m.Value(0).IsNull() || !m.Value(1).IsNull() {
		t.Fatal("nullify mask")
	}
}

func TestMaskDefault(t *testing.T) {
	c := NewInt64Column([]int64{42, 7})
	m := ApplyMask(c, MaskDefault)
	if m.Value(0).AsInt() != 0 || m.Value(1).AsInt() != 0 {
		t.Fatal("default mask")
	}
}

func TestMaskHashDeterministicAndIrreversible(t *testing.T) {
	c := NewStringColumn([]string{"alice@x.com", "bob@x.com", "alice@x.com"})
	m := ApplyMask(c, MaskHash)
	if m.Value(0).S != m.Value(2).S {
		t.Fatal("same input must hash identically")
	}
	if m.Value(0).S == m.Value(1).S {
		t.Fatal("different inputs collided")
	}
	if m.Value(0).S == "alice@x.com" {
		t.Fatal("hash must not leak the value")
	}
}

func TestMaskHashOnDictOperatesOnDictionary(t *testing.T) {
	c := DictEncode(buildMixedColumn())
	m := ApplyMask(c, MaskHash)
	if m.Enc != Dict {
		t.Fatal("dict encoding should be preserved through masking")
	}
	plainMasked := ApplyMask(buildMixedColumn(), MaskHash)
	for i := 0; i < c.Len; i++ {
		if m.Value(i).S != plainMasked.Value(i).S {
			t.Fatalf("row %d: dict-masked %q != plain-masked %q", i, m.Value(i).S, plainMasked.Value(i).S)
		}
	}
}

func TestMaskLastFour(t *testing.T) {
	c := NewStringColumn([]string{"4111111111111234", "abc"})
	m := ApplyMask(c, MaskLastFour)
	if m.Value(0).S != "XXXXXXXXXXXX1234" {
		t.Fatalf("masked = %q", m.Value(0).S)
	}
	if m.Value(1).S != "abc" {
		t.Fatalf("short string = %q", m.Value(1).S)
	}
}

func TestMaskPreservesNulls(t *testing.T) {
	c := NewStringColumn([]string{"a", ""})
	c.Nulls = []bool{false, true}
	m := ApplyMask(c, MaskHash)
	if !m.Value(1).IsNull() {
		t.Fatal("hash mask should keep NULL as NULL")
	}
}

func TestAggregates(t *testing.T) {
	c := NewInt64Column([]int64{5, 1, 9, 3})
	if got := foldOne(c, AggCount); got.AsInt() != 4 {
		t.Fatalf("count = %v", got)
	}
	if got := foldOne(c, AggSum); got.AsInt() != 18 {
		t.Fatalf("sum = %v", got)
	}
	if got := foldOne(c, AggMin); got.AsInt() != 1 {
		t.Fatalf("min = %v", got)
	}
	if got := foldOne(c, AggMax); got.AsInt() != 9 {
		t.Fatalf("max = %v", got)
	}
}

func TestAggregatesWithMaskAndNulls(t *testing.T) {
	c := NewInt64Column([]int64{5, 1, 9, 3})
	c.Nulls = []bool{false, false, true, false}
	b, err := Filter(MustBatch(NewSchema(Field{"v", Int64}), []*Column{c}), []bool{true, false, true, true})
	if err != nil {
		t.Fatal(err)
	}
	c = b.Cols[0]
	if got := foldOne(c, AggCount); got.AsInt() != 2 { // rows 0 and 3; row 2 null
		t.Fatalf("count = %v", got)
	}
	if got := foldOne(c, AggSum); got.AsInt() != 8 {
		t.Fatalf("sum = %v", got)
	}
}

func TestAggregateEmptyInput(t *testing.T) {
	c := NewFloat64Column(nil)
	if got := foldOne(c, AggCount); got.AsInt() != 0 {
		t.Fatal("count of empty")
	}
	if got := foldOne(c, AggMin); !got.IsNull() {
		t.Fatal("min of empty should be NULL")
	}
	if got := foldOne(c, AggSum); !got.IsNull() {
		t.Fatal("sum of empty should be NULL")
	}
}

func TestAggregateFloatSum(t *testing.T) {
	c := NewFloat64Column([]float64{1.5, 2.25})
	if got := foldOne(c, AggSum); got.AsFloat() != 3.75 {
		t.Fatalf("sum = %v", got)
	}
}

func TestMinMax(t *testing.T) {
	c := NewStringColumn([]string{"pear", "apple", "zebra"})
	c.Nulls = []bool{false, false, false}
	min, max, nulls := MinMax(c, nil)
	if min.S != "apple" || max.S != "zebra" || nulls != 0 {
		t.Fatalf("MinMax = %v %v %d", min, max, nulls)
	}
	c.Nulls = []bool{true, false, true}
	min, max, nulls = MinMax(c, nil)
	if min.S != "apple" || max.S != "apple" || nulls != 2 {
		t.Fatalf("MinMax with nulls = %v %v %d", min, max, nulls)
	}
}

func TestBuilderRoundTrip(t *testing.T) {
	schema := NewSchema(Field{"id", Int64}, Field{"name", String}, Field{"score", Float64})
	bl := NewBuilder(schema)
	bl.Append(IntValue(1), StringValue("a"), FloatValue(1.5))
	bl.Append(IntValue(2), NullValue, FloatValue(2.5))
	b := bl.Build()
	if b.N != 2 {
		t.Fatal("rows")
	}
	row := b.Row(1)
	if row[0].AsInt() != 2 || !row[1].IsNull() || row[2].AsFloat() != 2.5 {
		t.Fatalf("row = %v", row)
	}
}

func TestBuilderArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("wrong arity should panic")
		}
	}()
	NewBuilder(NewSchema(Field{"a", Int64})).Append(IntValue(1), IntValue(2))
}

func TestBatchProject(t *testing.T) {
	schema := NewSchema(Field{"a", Int64}, Field{"b", String})
	b := MustBatch(schema, []*Column{NewInt64Column([]int64{1}), NewStringColumn([]string{"x"})})
	p, err := b.Project([]string{"b"})
	if err != nil {
		t.Fatal(err)
	}
	if p.Schema.Len() != 1 || p.Cols[0].Strs[0] != "x" {
		t.Fatal("project")
	}
}

func TestNewBatchValidation(t *testing.T) {
	schema := NewSchema(Field{"a", Int64})
	if _, err := NewBatch(schema, []*Column{NewStringColumn([]string{"x"})}); err == nil {
		t.Fatal("type mismatch should error")
	}
	if _, err := NewBatch(schema, nil); err == nil {
		t.Fatal("column count mismatch should error")
	}
	s2 := NewSchema(Field{"a", Int64}, Field{"b", Int64})
	if _, err := NewBatch(s2, []*Column{NewInt64Column([]int64{1}), NewInt64Column([]int64{1, 2})}); err == nil {
		t.Fatal("length mismatch should error")
	}
}

func TestConcatTwoBatches(t *testing.T) {
	schema := NewSchema(Field{"a", Int64})
	b1 := MustBatch(schema, []*Column{NewInt64Column([]int64{1, 2})})
	b2 := MustBatch(schema, []*Column{NewInt64Column([]int64{3})})
	out, err := Concat([]*Batch{b1, b2})
	if err != nil {
		t.Fatal(err)
	}
	if out.N != 3 || out.Cols[0].Ints[2] != 3 {
		t.Fatalf("concat = %+v", out.Cols[0])
	}
	out, err = Concat([]*Batch{b2})
	if err != nil || out.N != 1 {
		t.Fatal("concat of one")
	}
	other := MustBatch(NewSchema(Field{"x", String}), []*Column{NewStringColumn([]string{"q"})})
	if _, err := Concat([]*Batch{b1, other}); err == nil {
		t.Fatal("schema mismatch should error")
	}
}

func TestWireRoundTripPlain(t *testing.T) {
	schema := NewSchema(Field{"id", Int64}, Field{"nm", String}, Field{"sc", Float64}, Field{"ok", Bool}, Field{"ts", Timestamp})
	bl := NewBuilder(schema)
	bl.Append(IntValue(-7), StringValue("héllo"), FloatValue(3.14), BoolValue(true), TimestampValue(999))
	bl.Append(IntValue(1<<40), NullValue, FloatValue(-0.5), BoolValue(false), TimestampValue(0))
	b := bl.Build()
	for _, keep := range []bool{false, true} {
		data := EncodeBatch(b, keep)
		back, err := DecodeBatch(data)
		if err != nil {
			t.Fatal(err)
		}
		if !back.Schema.Equal(b.Schema) || back.N != b.N {
			t.Fatal("schema/rows")
		}
		for i := 0; i < b.N; i++ {
			want, got := b.Row(i), back.Row(i)
			for j := range want {
				if !want[j].Equal(got[j]) {
					t.Fatalf("keep=%v row %d col %d: %v != %v", keep, i, j, got[j], want[j])
				}
			}
		}
	}
}

func TestWireKeepEncodingsPreservesDict(t *testing.T) {
	schema := NewSchema(Field{"c", String})
	dict := DictEncode(buildMixedColumn())
	b := MustBatch(schema, []*Column{dict})
	data := EncodeBatch(b, true)
	back, err := DecodeBatch(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Cols[0].Enc != Dict {
		t.Fatal("dict encoding lost on wire")
	}
	plain := EncodeBatch(b, false)
	decoded, _ := DecodeBatch(plain)
	if decoded.Cols[0].Enc != Plain {
		t.Fatal("keep=false should decode")
	}
}

func TestWireEncodedSmallerForRepetitiveData(t *testing.T) {
	// The A4 ablation premise: dict/RLE retention shrinks the payload
	// for low-cardinality columns.
	n := 10000
	vals := make([]string, n)
	for i := range vals {
		vals[i] = []string{"alpha", "beta", "gamma"}[i%3]
	}
	schema := NewSchema(Field{"c", String})
	b := MustBatch(schema, []*Column{DictEncode(NewStringColumn(vals))})
	kept := len(EncodeBatch(b, true))
	plain := len(EncodeBatch(b, false))
	if kept*2 >= plain {
		t.Fatalf("dict wire %d should be <half of plain wire %d", kept, plain)
	}
}

func TestWireRejectsCorrupt(t *testing.T) {
	if _, err := DecodeBatch([]byte{1, 2, 3}); err == nil {
		t.Fatal("garbage should fail")
	}
	schema := NewSchema(Field{"a", Int64})
	b := MustBatch(schema, []*Column{NewInt64Column([]int64{1})})
	data := EncodeBatch(b, false)
	data[0] ^= 0xFF // corrupt magic
	if _, err := DecodeBatch(data); err == nil {
		t.Fatal("bad magic should fail")
	}
}

func TestPropertyWireRoundTrip(t *testing.T) {
	schema := NewSchema(Field{"i", Int64}, Field{"s", String})
	if err := quick.Check(func(ints []int64, strs []string) bool {
		n := len(ints)
		if len(strs) < n {
			n = len(strs)
		}
		bl := NewBuilder(schema)
		for i := 0; i < n; i++ {
			bl.Append(IntValue(ints[i]), StringValue(strs[i]))
		}
		b := bl.Build()
		back, err := DecodeBatch(EncodeBatch(b, false))
		if err != nil || back.N != n {
			return false
		}
		for i := 0; i < n; i++ {
			if back.Cols[0].Ints[i] != ints[i] || back.Cols[1].Strs[i] != strs[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyEncodingsAgree(t *testing.T) {
	// For any generated int column, Plain/Dict/RLE must agree on every
	// comparison kernel — the invariant behind operating directly on
	// encoded data.
	r := sim.NewRNG(99)
	for trial := 0; trial < 25; trial++ {
		n := 1 + r.Intn(200)
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = int64(r.Intn(5)) // low cardinality to exercise runs
		}
		plain := NewInt64Column(vals)
		dict := DictEncode(plain)
		rle := RLEncode(plain)
		target := IntValue(int64(r.Intn(5)))
		for _, op := range []CmpOp{EQ, NE, LT, LE, GT, GE} {
			pm := CompareConst(plain, op, target)
			dm := CompareConst(dict, op, target)
			rm := CompareConst(rle, op, target)
			for i := range pm {
				if pm[i] != dm[i] || pm[i] != rm[i] {
					t.Fatalf("trial %d op %v row %d disagree", trial, op, i)
				}
			}
		}
	}
}

func TestDistinctCount(t *testing.T) {
	plain := buildMixedColumn()
	var e ChunkEncoder
	for _, c := range []*Column{plain, DictEncode(plain), RLEncode(plain)} {
		if got := e.Encode(c, true).Distinct; got != 4 {
			t.Fatalf("%v distinct = %d, want 4", c.Enc, got)
		}
	}
}

func TestEmptyBatch(t *testing.T) {
	schema := NewSchema(Field{"a", Int64})
	b := EmptyBatch(schema)
	if b.N != 0 || len(b.Cols) != 1 {
		t.Fatal("empty batch shape")
	}
	data := EncodeBatch(b, false)
	back, err := DecodeBatch(data)
	if err != nil || back.N != 0 {
		t.Fatalf("empty round trip: %v", err)
	}
}
