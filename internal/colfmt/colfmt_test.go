package colfmt

import (
	"fmt"
	"testing"
	"testing/quick"

	"biglake/internal/sim"
	"biglake/internal/vector"
)

func sampleSchema() vector.Schema {
	return vector.NewSchema(
		vector.Field{Name: "id", Type: vector.Int64},
		vector.Field{Name: "country", Type: vector.String},
		vector.Field{Name: "amount", Type: vector.Float64},
	)
}

func sampleBatch(n int, seed uint64) *vector.Batch {
	r := sim.NewRNG(seed)
	countries := []string{"us", "de", "fr", "jp", "br"}
	bl := vector.NewBuilder(sampleSchema())
	for i := 0; i < n; i++ {
		bl.Append(
			vector.IntValue(int64(i)),
			vector.StringValue(countries[r.Intn(len(countries))]),
			vector.FloatValue(float64(r.Intn(10000))/100),
		)
	}
	return bl.Build()
}

func writeSample(t *testing.T, n int) []byte {
	t.Helper()
	file, err := WriteFile(sampleBatch(n, 1), WriterOptions{RowGroupRows: 100})
	if err != nil {
		t.Fatal(err)
	}
	return file
}

func TestWriteReadRoundTrip(t *testing.T) {
	want := sampleBatch(250, 1)
	file, err := WriteFile(want, WriterOptions{RowGroupRows: 100})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewVectorizedReader(file, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if got.N != want.N {
		t.Fatalf("rows %d, want %d", got.N, want.N)
	}
	for i := 0; i < want.N; i++ {
		wr, gr := want.Row(i), got.Row(i)
		for j := range wr {
			if !wr[j].Equal(gr[j]) {
				t.Fatalf("row %d col %d: %v != %v", i, j, gr[j], wr[j])
			}
		}
	}
}

func TestFooterContents(t *testing.T) {
	file := writeSample(t, 250)
	f, err := ReadFooter(file)
	if err != nil {
		t.Fatal(err)
	}
	if f.Rows != 250 {
		t.Fatalf("rows = %d", f.Rows)
	}
	if len(f.RowGroups) != 3 { // 100+100+50
		t.Fatalf("row groups = %d", len(f.RowGroups))
	}
	if f.RowGroups[2].Rows != 50 {
		t.Fatalf("last group rows = %d", f.RowGroups[2].Rows)
	}
	st, ok := f.ColumnStatsFor("id")
	if !ok {
		t.Fatal("no id stats")
	}
	if st.Min.ToValue().AsInt() != 0 || st.Max.ToValue().AsInt() != 249 {
		t.Fatalf("id stats = %+v", st)
	}
	if _, ok := f.ColumnStatsFor("nope"); ok {
		t.Fatal("unknown column should not have stats")
	}
}

func TestFooterSize(t *testing.T) {
	file := writeSample(t, 50)
	n, err := FooterSize(file)
	if err != nil {
		t.Fatal(err)
	}
	if n <= 8 || n > int64(len(file)) {
		t.Fatalf("footer size = %d of %d", n, len(file))
	}
	if _, err := FooterSize([]byte("tiny")); err == nil {
		t.Fatal("non-file should error")
	}
}

func TestReadFooterRejectsCorrupt(t *testing.T) {
	if _, err := ReadFooter([]byte("not a columnar file at all")); err == nil {
		t.Fatal("bad magic should error")
	}
	file := writeSample(t, 10)
	file[len(file)-5] ^= 0xFF // corrupt footer length region
	if _, err := ReadFooter(file); err == nil {
		t.Fatal("corrupt footer should error")
	}
}

func TestProjection(t *testing.T) {
	file := writeSample(t, 120)
	r, err := NewVectorizedReader(file, []string{"country"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if b.Schema.Len() != 1 || b.Schema.Fields[0].Name != "country" || b.N != 120 {
		t.Fatalf("projected = %v x %d", b.Schema, b.N)
	}
	if _, err := NewVectorizedReader(file, []string{"ghost"}, nil); err == nil {
		t.Fatal("unknown projection column should error")
	}
}

func TestPredicatePushdownResults(t *testing.T) {
	file := writeSample(t, 300)
	preds := []Predicate{{Column: "id", Op: vector.GE, Value: vector.IntValue(290)}}
	r, err := NewVectorizedReader(file, nil, preds)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if b.N != 10 {
		t.Fatalf("filtered rows = %d, want 10", b.N)
	}
	for i := 0; i < b.N; i++ {
		if b.Column("id").Value(i).AsInt() < 290 {
			t.Fatal("predicate violated")
		}
	}
}

func TestRowGroupSkipping(t *testing.T) {
	// id is monotonically increasing, so a selective id predicate must
	// skip all but one row group without decoding them.
	file := writeSample(t, 1000) // 10 groups of 100
	preds := []Predicate{{Column: "id", Op: vector.EQ, Value: vector.IntValue(555)}}
	r, err := NewVectorizedReader(file, nil, preds)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if b.N != 1 {
		t.Fatalf("rows = %d", b.N)
	}
	if r.GroupsRead != 1 || r.GroupsSkipped != 9 {
		t.Fatalf("read %d skipped %d, want 1/9", r.GroupsRead, r.GroupsSkipped)
	}
}

func TestPredicateOnUnprojectedColumn(t *testing.T) {
	file := writeSample(t, 200)
	preds := []Predicate{{Column: "id", Op: vector.LT, Value: vector.IntValue(5)}}
	r, err := NewVectorizedReader(file, []string{"country"}, preds)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if b.N != 5 || b.Schema.Len() != 1 {
		t.Fatalf("got %d rows schema %v", b.N, b.Schema)
	}
}

func TestRowReaderMatchesVectorized(t *testing.T) {
	file := writeSample(t, 500)
	preds := []Predicate{{Column: "country", Op: vector.EQ, Value: vector.StringValue("de")}}
	vr, err := NewVectorizedReader(file, []string{"id", "amount"}, preds)
	if err != nil {
		t.Fatal(err)
	}
	vb, err := vr.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	rr, err := NewRowReader(file, []string{"id", "amount"}, preds)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := rr.ReadAllColumnar()
	if err != nil {
		t.Fatal(err)
	}
	if vb.N != rb.N {
		t.Fatalf("vectorized %d rows, row-oriented %d", vb.N, rb.N)
	}
	for i := 0; i < vb.N; i++ {
		va, ra := vb.Row(i), rb.Row(i)
		for j := range va {
			if !va[j].Equal(ra[j]) {
				t.Fatalf("row %d col %d mismatch", i, j)
			}
		}
	}
}

func TestRowReaderUnknownColumn(t *testing.T) {
	file := writeSample(t, 10)
	if _, err := NewRowReader(file, []string{"ghost"}, nil); err == nil {
		t.Fatal("unknown column should error")
	}
}

func TestStatsCanSatisfy(t *testing.T) {
	st := ColumnStats{Min: FromValue(vector.IntValue(10)), Max: FromValue(vector.IntValue(20))}
	cases := []struct {
		op   vector.CmpOp
		val  int64
		want bool
	}{
		{vector.EQ, 15, true}, {vector.EQ, 5, false}, {vector.EQ, 25, false},
		{vector.LT, 10, false}, {vector.LT, 11, true},
		{vector.LE, 10, true}, {vector.LE, 9, false},
		{vector.GT, 20, false}, {vector.GT, 19, true},
		{vector.GE, 20, true}, {vector.GE, 21, false},
		{vector.NE, 15, true},
	}
	for _, tc := range cases {
		p := Predicate{Column: "c", Op: tc.op, Value: vector.IntValue(tc.val)}
		if got := p.StatsCanSatisfy(st); got != tc.want {
			t.Errorf("%v %d: got %v, want %v", tc.op, tc.val, got, tc.want)
		}
	}
	// NE over a constant chunk equal to the value with no nulls: skippable.
	constSt := ColumnStats{Min: FromValue(vector.IntValue(7)), Max: FromValue(vector.IntValue(7))}
	p := Predicate{Column: "c", Op: vector.NE, Value: vector.IntValue(7)}
	if p.StatsCanSatisfy(constSt) {
		t.Fatal("NE over all-equal chunk should be skippable")
	}
	// All-null chunk is skippable for any comparison.
	nullSt := ColumnStats{Nulls: 5}
	if (Predicate{Column: "c", Op: vector.EQ, Value: vector.IntValue(1)}).StatsCanSatisfy(nullSt) {
		t.Fatal("all-null chunk should be skippable")
	}
}

func TestWriterSchemaMismatch(t *testing.T) {
	w := NewWriter(sampleSchema(), WriterOptions{})
	other := vector.MustBatch(vector.NewSchema(vector.Field{Name: "x", Type: vector.Int64}),
		[]*vector.Column{vector.NewInt64Column([]int64{1})})
	if err := w.WriteBatch(other); err == nil {
		t.Fatal("schema mismatch should error")
	}
}

func TestMultipleWriteBatchCalls(t *testing.T) {
	w := NewWriter(sampleSchema(), WriterOptions{RowGroupRows: 64})
	total := 0
	for i := 0; i < 5; i++ {
		b := sampleBatch(50, uint64(i+1))
		if err := w.WriteBatch(b); err != nil {
			t.Fatal(err)
		}
		total += b.N
	}
	file, _, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	f, _ := ReadFooter(file)
	if f.Rows != int64(total) {
		t.Fatalf("rows = %d, want %d", f.Rows, total)
	}
	for _, rg := range f.RowGroups[:len(f.RowGroups)-1] {
		if rg.Rows != 64 {
			t.Fatalf("group rows = %d, want 64", rg.Rows)
		}
	}
}

func TestEncodingsChosenForLowCardinality(t *testing.T) {
	// country has 5 distinct values over many rows: chunk must be
	// encoded, making the file much smaller than the disabled-encoding
	// variant.
	b := sampleBatch(5000, 3)
	enc, err := WriteFile(b, WriterOptions{RowGroupRows: 5000})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := WriteFile(b, WriterOptions{RowGroupRows: 5000, DisableEncodings: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) >= len(plain) {
		t.Fatalf("encoded file %d >= plain file %d", len(enc), len(plain))
	}
}

func TestEmptyFile(t *testing.T) {
	w := NewWriter(sampleSchema(), WriterOptions{})
	file, _, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	f, err := ReadFooter(file)
	if err != nil || f.Rows != 0 {
		t.Fatalf("empty footer: %v rows=%d", err, f.Rows)
	}
	r, err := NewVectorizedReader(file, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.ReadAll()
	if err != nil || b.N != 0 {
		t.Fatalf("empty read: %v n=%d", err, b.N)
	}
}

func TestEvalPredicates(t *testing.T) {
	b := sampleBatch(100, 4)
	rows, err := EvalPredicates(b, []Predicate{
		{Column: "id", Op: vector.GE, Value: vector.IntValue(10)},
		{Column: "id", Op: vector.LT, Value: vector.IntValue(20)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 || rows[0] != 10 || rows[9] != 19 {
		t.Fatalf("matched rows %v, want 10..19", rows)
	}
	if _, err := EvalPredicates(b, []Predicate{{Column: "ghost", Op: vector.EQ, Value: vector.IntValue(1)}}); err == nil {
		t.Fatal("missing predicate column should error")
	}
}

func TestPropertyRoundTripArbitraryRowCounts(t *testing.T) {
	if err := quick.Check(func(nRaw uint16) bool {
		n := int(nRaw % 600)
		b := sampleBatch(n, uint64(nRaw)+7)
		file, err := WriteFile(b, WriterOptions{RowGroupRows: 97})
		if err != nil {
			return false
		}
		r, err := NewVectorizedReader(file, nil, nil)
		if err != nil {
			return false
		}
		got, err := r.ReadAll()
		if err != nil || got.N != n {
			return false
		}
		for i := 0; i < n; i += 13 {
			if got.Column("id").Value(i).AsInt() != b.Column("id").Value(i).AsInt() {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyPruningNeverLosesRows(t *testing.T) {
	// Any id range predicate must return exactly the rows a full scan
	// filter would — pruning is an optimization, never a semantics
	// change.
	file := writeSample(t, 730)
	r := sim.NewRNG(21)
	for trial := 0; trial < 20; trial++ {
		lo := int64(r.Intn(730))
		preds := []Predicate{{Column: "id", Op: vector.GE, Value: vector.IntValue(lo)}}
		vr, err := NewVectorizedReader(file, []string{"id"}, preds)
		if err != nil {
			t.Fatal(err)
		}
		b, err := vr.ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		if int64(b.N) != 730-lo {
			t.Fatalf("lo=%d got %d rows, want %d", lo, b.N, 730-lo)
		}
	}
}

func TestChunkOutOfBounds(t *testing.T) {
	file := writeSample(t, 10)
	if _, err := ReadChunk(file, ChunkMeta{Column: "x", Offset: int64(len(file)), Length: 10}); err == nil {
		t.Fatal("oob chunk should error")
	}
}

func BenchmarkVectorizedVsRowReader(b *testing.B) {
	batch := sampleBatch(20000, 5)
	file, err := WriteFile(batch, WriterOptions{RowGroupRows: 4096})
	if err != nil {
		b.Fatal(err)
	}
	preds := []Predicate{{Column: "country", Op: vector.EQ, Value: vector.StringValue("de")}}
	b.Run("vectorized", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r, _ := NewVectorizedReader(file, []string{"id", "amount"}, preds)
			if _, err := r.ReadAll(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("row_oriented", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r, _ := NewRowReader(file, []string{"id", "amount"}, preds)
			if _, err := r.ReadAllColumnar(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func ExampleWriteFile() {
	bl := vector.NewBuilder(vector.NewSchema(vector.Field{Name: "id", Type: vector.Int64}))
	bl.Append(vector.IntValue(1))
	bl.Append(vector.IntValue(2))
	file, _ := WriteFile(bl.Build(), WriterOptions{})
	footer, _ := ReadFooter(file)
	fmt.Println(footer.Rows)
	// Output: 2
}
