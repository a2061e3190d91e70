package colfmt

// The writer's one pass per chunk: values a float64 comparison merges
// (−0 and 0, integers beyond 2^53) stay apart on disk, NaN stays NaN, a
// batch cut into row groups writes the bytes a per-group gather would,
// and the footer the writer hands over is the one a reader parses.

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"testing"

	"biglake/internal/sim"
	"biglake/internal/vector"
)

// readAll decodes a whole file through the vectorized reader.
func readAll(t testing.TB, file []byte) *vector.Batch {
	t.Helper()
	r, err := NewVectorizedReader(file, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// firstChunk decodes the file's first chunk of column ci as stored.
func firstChunk(t *testing.T, file []byte, ci int) (*vector.Column, ChunkMeta) {
	t.Helper()
	f, err := ReadFooter(file)
	if err != nil {
		t.Fatal(err)
	}
	m := f.RowGroups[0].Chunks[ci]
	c, err := ReadChunk(file, m)
	if err != nil {
		t.Fatal(err)
	}
	return c, m
}

// largeIntRuns is 32 rows of 2^53 then 32 of 2^53+1: two runs that a
// float64 comparison sees as one.
func largeIntRuns() []int64 {
	v := make([]int64, 64)
	for i := range v {
		v[i] = 1 << 53
		if i >= 32 {
			v[i]++
		}
	}
	return v
}

// signedZeroNaN is {−0, 0, NaN} × 8.
func signedZeroNaN() []float64 {
	var fs []float64
	for i := 0; i < 8; i++ {
		fs = append(fs, math.Copysign(0, -1), 0, math.NaN())
	}
	return fs
}

// TestWriteFileKeepsLargeIntRuns: a 64-row chunk of 32 × 2^53 then
// 32 × (2^53+1) is two runs and two distinct values, and reads back row
// for row — Int64 and Timestamp alike.
func TestWriteFileKeepsLargeIntRuns(t *testing.T) {
	v := largeIntRuns()
	for _, c := range []*vector.Column{vector.NewInt64Column(v), vector.NewTimestampColumn(v)} {
		b := vector.MustBatch(vector.NewSchema(vector.Field{Name: "x", Type: c.Type}), []*vector.Column{c})
		file, err := WriteFile(b, WriterOptions{})
		if err != nil {
			t.Fatal(err)
		}
		stored, m := firstChunk(t, file, 0)
		if stored.Enc != vector.RLE || len(stored.Runs) != 2 || m.Stats.Distinct != 2 {
			t.Fatalf("%v: stored %v with %d runs, Distinct %d; want 2 runs, 2 distinct", c.Type, stored.Enc, len(stored.Runs), m.Stats.Distinct)
		}
		back := readAll(t, file).Cols[0].Decode()
		for i, want := range v {
			if back.Ints[i] != want {
				t.Fatalf("%v row %d reads %d, wrote %d", c.Type, i, back.Ints[i], want)
			}
		}
	}
}

// TestWriteFileInfBounds: a chunk holding ±Inf is written, its footer
// bounds are ±Inf through JSON and back, and a predicate past the
// largest finite float still finds the file.
func TestWriteFileInfBounds(t *testing.T) {
	b := vector.MustBatch(vector.NewSchema(vector.Field{Name: "f", Type: vector.Float64}),
		[]*vector.Column{vector.NewFloat64Column([]float64{1, math.Inf(-1), 0.5, math.Inf(1)})})
	w := NewWriter(b.Schema, WriterOptions{})
	if err := w.WriteBatch(b); err != nil {
		t.Fatal(err)
	}
	file, footer, err := w.Finish()
	if err != nil {
		t.Fatalf("writing ±Inf: %v", err)
	}
	read, err := ReadFooter(file)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []*Footer{footer, read} {
		st := f.Stats()["f"]
		if min, max := st.Min.ToValue().F, st.Max.ToValue().F; !math.IsInf(min, -1) || !math.IsInf(max, 1) {
			t.Fatalf("bounds [%v, %v], want [-Inf, +Inf]", min, max)
		}
		for _, p := range []Predicate{{Column: "f", Op: vector.GT, Value: vector.FloatValue(math.MaxFloat64)},
			{Column: "f", Op: vector.LT, Value: vector.FloatValue(-math.MaxFloat64)}} {
			if !p.StatsCanSatisfy(st) {
				t.Fatalf("%v %v pruned a file holding ±Inf", p.Op, p.Value)
			}
		}
	}
	r, err := NewVectorizedReader(file, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range b.Cols[0].Floats {
		if v := got.Cols[0].Value(i).F; v != want {
			t.Fatalf("row %d reads back %v, want %v", i, v, want)
		}
	}
}

// TestWriteFileSignedZeroAndNaN: {−0, 0, NaN} × 8 is a 3-entry
// dictionary; every −0 reads back −0, every 0 reads back +0 and every
// NaN reads back NaN.
func TestWriteFileSignedZeroAndNaN(t *testing.T) {
	fs := signedZeroNaN()
	b := vector.MustBatch(vector.NewSchema(vector.Field{Name: "f", Type: vector.Float64}),
		[]*vector.Column{vector.NewFloat64Column(fs)})
	file, err := WriteFile(b, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	stored, m := firstChunk(t, file, 0)
	if stored.Enc != vector.Dict || len(stored.Floats) != 3 || m.Stats.Distinct != 3 {
		t.Fatalf("stored %v with %d entries, Distinct %d; want a 3-entry dictionary", stored.Enc, len(stored.Floats), m.Stats.Distinct)
	}
	back := readAll(t, file).Cols[0].Decode()
	for i, want := range fs {
		if !sameFloat(back.Floats[i], want) {
			t.Fatalf("row %d reads %v (bits %x), wrote bits %x", i, back.Floats[i], math.Float64bits(back.Floats[i]), math.Float64bits(want))
		}
	}
}

// sameFloat is bit equality, except that NaN need only stay NaN.
func sameFloat(got, want float64) bool {
	if want != want {
		return got != got
	}
	return math.Float64bits(got) == math.Float64bits(want)
}

// gathered is what writing a multi-group batch used to start from: each
// column gathered to Plain, NULL rows zero, no NULL array without a
// NULL.
func gathered(b *vector.Batch, lo, hi int) *vector.Batch {
	idx := make([]int, hi-lo)
	for i := range idx {
		idx[i] = lo + i
	}
	cols := make([]*vector.Column, len(b.Cols))
	for i, c := range b.Cols {
		cols[i] = vector.GatherWith(vector.Mem{}, c, idx)
	}
	return vector.MustBatch(b.Schema, cols)
}

// TestWriteBatchWindowsMatchGather: a batch that spans row groups is
// written as if each group were gathered out of it — Dict and RLE
// inputs as Plain, a NULL row's stray value as zero, a NULL array
// dropped where a group holds no NULL — while a batch that fills one
// group keeps its columns' encodings.
func TestWriteBatchWindowsMatchGather(t *testing.T) {
	const n = 40
	ints, floats, strs := make([]int64, n), make([]float64, n), make([]string, n)
	nulls := make([]bool, n)
	for i := range ints {
		ints[i], floats[i], strs[i] = int64(i/7), float64(i%3), []string{"a", "b"}[i%2]
		nulls[i] = i >= 30 && i%2 == 0
	}
	stray := vector.NewFloat64Column(append([]float64(nil), floats...))
	stray.Nulls = nulls
	stray.Floats[32] = 99 // a NULL row's leftover value
	schema := vector.NewSchema(
		vector.Field{Name: "r", Type: vector.Int64},
		vector.Field{Name: "f", Type: vector.Float64},
		vector.Field{Name: "d", Type: vector.String},
		vector.Field{Name: "z", Type: vector.Int64},
	)
	zeroNulls := vector.NewInt64Column(make([]int64, n))
	zeroNulls.Nulls = make([]bool, n) // a NULL array without a NULL
	b := vector.MustBatch(schema, []*vector.Column{
		vector.RLEncode(vector.NewInt64Column(ints)), stray,
		vector.DictEncode(vector.NewStringColumn(strs)), zeroNulls,
	})
	for _, rows := range []int{8, 13, 39} {
		got, err := WriteFile(b, WriterOptions{RowGroupRows: rows})
		if err != nil {
			t.Fatal(err)
		}
		w := NewWriter(schema, WriterOptions{RowGroupRows: rows})
		for lo := 0; lo < n; lo += rows {
			if err := w.WriteBatch(gathered(b, lo, min(lo+rows, n))); err != nil {
				t.Fatal(err)
			}
		}
		want, _, err := w.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("RowGroupRows %d: windowed file differs from the per-group gather", rows)
		}
	}
	file, err := WriteFile(b, WriterOptions{RowGroupRows: n})
	if err != nil {
		t.Fatal(err)
	}
	for ci, want := range map[int]vector.Encoding{0: vector.RLE, 2: vector.Dict} {
		if c, _ := firstChunk(t, file, ci); c.Enc != want {
			t.Fatalf("one-group batch: column %d stored %v, want it kept %v", ci, c.Enc, want)
		}
	}
}

// TestFinishFooterIsReadFooter: the footer Finish hands over is the one
// ReadFooter parses from the bytes, over random batches split across
// several WriteBatch calls and row groups, and over chunks whose stats
// JSON cannot hold as written (a −0 bound, invalid UTF-8).
func TestFinishFooterIsReadFooter(t *testing.T) {
	check := func(name string, batches []*vector.Batch, opts WriterOptions) {
		t.Helper()
		w := NewWriter(batches[0].Schema, opts)
		for _, b := range batches {
			if err := w.WriteBatch(b); err != nil {
				t.Fatal(err)
			}
		}
		file, footer, err := w.Finish()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		read, err := ReadFooter(file)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(footer, read) {
			t.Fatalf("%s: handed-over footer\n%+v\nReadFooter\n%+v", name, footer, read)
		}
	}
	for seed := uint64(1); seed <= 20; seed++ {
		rng := sim.NewRNG(seed)
		batches := []*vector.Batch{randomBatch(rng, rng.Intn(200)), randomBatch(rng, 1+rng.Intn(200))}
		check(fmt.Sprintf("seed %d", seed), batches, WriterOptions{RowGroupRows: 1 + rng.Intn(64), DisableEncodings: seed%4 == 0})
	}
	for name, b := range edgeBatches() {
		check(name, []*vector.Batch{b}, WriterOptions{})
	}
	check("empty", []*vector.Batch{vector.EmptyBatch(sampleSchema())}, WriterOptions{})
}

// edgeBatches are one-column batches whose chunks sit on the edges of
// the encoding and the footer: the merged values above, a −0 bound,
// bytes that are not UTF-8, a NULL-only and an all-NaN chunk.
func edgeBatches() map[string]*vector.Batch {
	one := func(typ vector.Type, c *vector.Column) *vector.Batch {
		c.Type = typ
		return vector.MustBatch(vector.NewSchema(vector.Field{Name: "c", Type: typ}), []*vector.Column{c})
	}
	nullOnly := vector.NewInt64Column(make([]int64, 5))
	nullOnly.Nulls = []bool{true, true, true, true, true}
	return map[string]*vector.Batch{
		"large int runs":  one(vector.Int64, vector.NewInt64Column(largeIntRuns())),
		"signed zero NaN": one(vector.Float64, vector.NewFloat64Column(signedZeroNaN())),
		"negative zero":   one(vector.Float64, vector.NewFloat64Column([]float64{math.Copysign(0, -1), 1, 2})),
		"invalid utf8":    one(vector.Bytes, vector.NewStringColumn([]string{"\xff\xfe", "ok", "a\xc3"})),
		"null only":       one(vector.Int64, nullOnly),
		"all NaN":         one(vector.Float64, vector.NewFloat64Column([]float64{math.NaN(), math.NaN()})),
	}
}

// typedDistinct counts the distinct non-NULL values of rows [lo, hi)
// of c under the writer's key identity.
func typedDistinct(c *vector.Column, lo, hi int) int64 {
	seen := map[string]bool{}
	for i := lo; i < hi; i++ {
		v := c.Value(i)
		switch {
		case v.IsNull():
			continue
		case v.Type == vector.Float64 && v.F != v.F:
			seen["NaN"] = true
		case v.Type == vector.Float64:
			seen[fmt.Sprint(math.Float64bits(v.F))] = true
		default:
			seen[v.String()] = true
		}
	}
	return int64(len(seen))
}

// fuzzBatch reads rows of 9 bytes: a flag byte and 8 value bytes. The
// flags NULL each column, repeat the previous row (so runs and NULL
// runs form) and pick the integer's neighbourhood: ±2^53 or the int64
// extremes. The float is the value bytes' bit pattern, the string their
// low bytes, not necessarily UTF-8.
func fuzzBatch(data []byte) *vector.Batch {
	schema := vector.NewSchema(
		vector.Field{Name: "f", Type: vector.Float64},
		vector.Field{Name: "i", Type: vector.Int64},
		vector.Field{Name: "s", Type: vector.Bytes},
		vector.Field{Name: "b", Type: vector.Bool},
	)
	bases := []int64{1 << 53, -(1 << 53), math.MaxInt64, math.MinInt64}
	bl := vector.NewBuilder(schema)
	var prev []vector.Value
	for ; len(data) >= 9; data = data[9:] {
		flags, u := data[0], binary.LittleEndian.Uint64(data[1:9])
		if flags&0x10 != 0 && prev != nil {
			bl.Append(prev...)
			continue
		}
		row := []vector.Value{
			vector.FloatValue(math.Float64frombits(u)),
			vector.IntValue(bases[flags>>5&3] + int64(int8(u))),
			vector.BytesValue(data[1 : 1+u>>60%4]),
			vector.BoolValue(u&1 == 1),
		}
		for c := range row {
			if flags&(1<<c) != 0 {
				row[c] = vector.NullValue
			}
		}
		bl.Append(row...)
		prev = row
	}
	return bl.Build()
}

// FuzzWriteFileRoundTrip: every value a file is written with reads back
// bit for bit (NaN as NaN), each chunk's Distinct stat is the typed
// distinct count of its rows, and the footer Finish hands over is the
// one ReadFooter parses.
func FuzzWriteFileRoundTrip(f *testing.F) {
	seed := func(rows ...[]byte) []byte {
		var out []byte
		for _, r := range rows {
			out = append(out, r...)
		}
		return out
	}
	row := func(flags byte, u uint64) []byte {
		return binary.LittleEndian.AppendUint64([]byte{flags}, u)
	}
	negZero, nan := math.Float64bits(math.Copysign(0, -1)), math.Float64bits(math.NaN())
	f.Add(seed(row(0, negZero), row(0, 0), row(0, nan), row(0x10, 0), row(0x10, 0), row(0x0f, 0)), uint8(3))
	f.Add(seed(row(0, 0), row(0x10, 0), row(0, 1), row(0x10, 0), row(0x60, 0xff), row(0x70, 0)), uint8(64))
	f.Add(seed(row(0x20, 0x7ff0000000000001), row(0x40, 0xfff8000000000002), row(0x03, 7)), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, groupRows uint8) {
		b := fuzzBatch(data)
		opts := WriterOptions{RowGroupRows: 1 + int(groupRows%64), DisableEncodings: groupRows >= 192}
		w := NewWriter(b.Schema, opts)
		half := b.N / 2
		for _, part := range []*vector.Batch{vector.SliceBatch(b, 0, half), vector.SliceBatch(b, half, b.N)} {
			if err := w.WriteBatch(part); err != nil {
				t.Fatal(err)
			}
		}
		file, footer, err := w.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if read, err := ReadFooter(file); err != nil || !reflect.DeepEqual(footer, read) {
			t.Fatalf("handed-over footer differs from ReadFooter (err %v)", err)
		}
		back := readAll(t, file)
		for ci, in := range b.Cols {
			got := back.Cols[ci].Decode()
			for r := 0; r < b.N; r++ {
				want, have := in.Value(r), got.Value(r)
				ok := want.IsNull() == have.IsNull()
				if ok && !want.IsNull() {
					ok = want.Type == have.Type && want.I == have.I && want.S == have.S && want.B == have.B && sameFloat(have.F, want.F)
				}
				if !ok {
					t.Fatalf("column %s row %d reads %v, wrote %v", b.Schema.Fields[ci].Name, r, have, want)
				}
			}
		}
		lo := 0
		for _, rg := range footer.RowGroups {
			hi := lo + int(rg.Rows)
			for ci, m := range rg.Chunks {
				if want := typedDistinct(b.Cols[ci], lo, hi); m.Stats.Distinct != want {
					t.Fatalf("rows [%d, %d) column %s: Distinct %d, typed distinct count %d", lo, hi, m.Column, m.Stats.Distinct, want)
				}
			}
			lo = hi
		}
	})
}

// benchShapes are batches shaped like the benchmark's tables: a
// bench.wide file (32,768 rows: ten Int64 columns — a constant, a
// sequence, low and high cardinality, six wide randoms — four Float64,
// a 16-tag string and a 4,096-address string), a bench.orders file
// (8,192 rows: id, amount, price, one of eight statuses) and one 64-row
// bench.events insert.
func benchShapes() []struct {
	name string
	b    *vector.Batch
} {
	rng := sim.NewRNG(7)
	u := func(n int) int64 { return int64(rng.Intn(n)) }
	tags := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta",
		"iota", "kappa", "lambda", "mu", "nu", "xi", "omicron", "pi"}
	ints := func(n int, f func(i int) int64) *vector.Column {
		v := make([]int64, n)
		for i := range v {
			v[i] = f(i)
		}
		return vector.NewInt64Column(v)
	}
	floats := func(n int, f func() float64) *vector.Column {
		v := make([]float64, n)
		for i := range v {
			v[i] = f()
		}
		return vector.NewFloat64Column(v)
	}
	strs := func(n int, f func() string) *vector.Column {
		v := make([]string, n)
		for i := range v {
			v[i] = f()
		}
		return vector.NewStringColumn(v)
	}
	emails := make([]string, 4096)
	for i := range emails {
		emails[i] = fmt.Sprintf("user%05d@mail%d.example.com", i, i%7)
	}
	batch := func(cols ...*vector.Column) *vector.Batch {
		fields := make([]vector.Field, len(cols))
		for i, c := range cols {
			fields[i] = vector.Field{Name: fmt.Sprintf("c%d", i), Type: c.Type}
		}
		return vector.MustBatch(vector.NewSchema(fields...), cols)
	}
	const wide, orders, events = 32768, 8192, 64
	wideCols := []*vector.Column{
		ints(wide, func(int) int64 { return 3 }),
		ints(wide, func(i int) int64 { return int64(3*wide + i) }),
		ints(wide, func(int) int64 { return u(1000) }),
		ints(wide, func(int) int64 { return u(1_000_000) }),
	}
	for c := 0; c < 6; c++ {
		wideCols = append(wideCols, ints(wide, func(int) int64 { return u(1<<40) << 8 }))
	}
	wideCols = append(wideCols, floats(wide, func() float64 { return float64(u(80_000)) / 8 }))
	for c := 0; c < 3; c++ {
		wideCols = append(wideCols, floats(wide, func() float64 { return float64(u(1_000_000)) / 64 }))
	}
	wideCols = append(wideCols, strs(wide, func() string { return tags[u(16)] }), strs(wide, func() string { return emails[u(4096)] }))
	return []struct {
		name string
		b    *vector.Batch
	}{
		{"wide", batch(wideCols...)},
		{"orders", batch(ints(orders, func(i int) int64 { return int64(i) }), ints(orders, func(int) int64 { return u(1000) }),
			floats(orders, func() float64 { return float64(u(7976)) / 8 }), strs(orders, func() string { return tags[u(8)] }))},
		{"events", batch(ints(events, func(i int) int64 { return int64(1000 + i) }), ints(events, func(int) int64 { return u(8) }),
			ints(events, func(int) int64 { return u(1000) }), strs(events, func() string { return tags[u(16)] }))},
	}
}

// BenchmarkWriteFile encodes each shape as one file at the default
// row-group size, as a load, an INSERT or an Optimize does.
func BenchmarkWriteFile(b *testing.B) {
	for _, s := range benchShapes() {
		b.Run(s.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := WriteFile(s.b, WriterOptions{}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*s.b.N), "ns/row")
		})
	}
}
