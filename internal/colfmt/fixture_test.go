package colfmt

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"testing"

	"biglake/internal/vector"
)

var updateFixture = flag.Bool("update-fixture", false, "rewrite testdata/format-v1.blk from this build's writer")

const fixturePath = "testdata/format-v1.blk"

// fixtureBatch is 300 rows of every type: long and short varints, float
// extremes (the footer's JSON statistics cannot hold NaN or ±Inf, and
// the writer's dictionary folds -0 into 0), multi-byte and empty
// strings, nulls, and columns repetitive enough that the writer picks
// DICT and RLE chunks. With three row groups of 128 rows the file holds
// every encoding.
func fixtureBatch() *vector.Batch {
	schema := vector.NewSchema(
		vector.Field{Name: "id", Type: vector.Int64},
		vector.Field{Name: "big", Type: vector.Int64},
		vector.Field{Name: "ts", Type: vector.Timestamp},
		vector.Field{Name: "price", Type: vector.Float64},
		vector.Field{Name: "ok", Type: vector.Bool},
		vector.Field{Name: "tag", Type: vector.String},
		vector.Field{Name: "email", Type: vector.String},
		vector.Field{Name: "blob", Type: vector.Bytes},
		vector.Field{Name: "run", Type: vector.Int64},
	)
	floats := []float64{0, 1.5, -2.25, math.MaxFloat64, -math.MaxFloat64, 1e-300, 1.0 / 3}
	tags := []string{"alpha", "", "β-beta", "gamma"}
	bl := vector.NewBuilder(schema)
	for i := int64(0); i < 300; i++ {
		row := []vector.Value{
			vector.IntValue(i),
			vector.IntValue((i - 150) * (1 << 40)),
			vector.TimestampValue(1_700_000_000_000_000_000 + i*1e9),
			vector.FloatValue(floats[i%int64(len(floats))]),
			vector.BoolValue(i%3 == 0),
			vector.StringValue(tags[i%int64(len(tags))]),
			vector.StringValue(fmt.Sprintf("user%03d@example.com", i*7%300)),
			vector.BytesValue([]byte{byte(i), 0, 0xff, byte(i >> 1)}),
			vector.IntValue(i / 100),
		}
		if i%11 == 0 {
			row[3], row[5], row[6] = vector.NullValue, vector.NullValue, vector.NullValue
		}
		if i >= 128 && i < 256 {
			row[1] = vector.NullValue // an all-NULL chunk
		}
		bl.Append(row...)
	}
	return bl.Build()
}

// TestFormatFixture: the file format did not move. testdata/format-v1.blk
// was written by the commit before the column codec was rewritten
// (`go test ./internal/colfmt -run TestFormatFixture -update-fixture`
// there); this build must write the same bytes for the same rows — so
// that build reads this one's files — and must read the committed bytes,
// every chunk CRC-verified, back to the same rows.
func TestFormatFixture(t *testing.T) {
	b := fixtureBatch()
	file, err := WriteFile(b, WriterOptions{RowGroupRows: 128})
	if err != nil {
		t.Fatal(err)
	}
	if *updateFixture {
		if err := os.WriteFile(fixturePath, file, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(fixturePath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(file, want) {
		t.Fatalf("this build writes %d bytes that differ from the committed %d-byte fixture: the format at rest changed", len(file), len(want))
	}

	if err := Verify(want); err != nil {
		t.Fatal(err)
	}
	r, err := NewVectorizedReader(want, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if got.N != b.N || !got.Schema.Equal(b.Schema) {
		t.Fatalf("fixture reads back as %d rows of %v", got.N, got.Schema)
	}
	for i := 0; i < b.N; i++ {
		for j, v := range got.Row(i) {
			w := b.Cols[j].Value(i)
			if v.Type != w.Type || v.I != w.I || v.S != w.S || v.B != w.B || math.Float64bits(v.F) != math.Float64bits(w.F) {
				t.Fatalf("row %d column %s = %#v, want %#v", i, b.Schema.Fields[j].Name, v, w)
			}
		}
	}
	seen := map[vector.Encoding]bool{}
	footer, err := ReadFooter(want)
	if err != nil {
		t.Fatal(err)
	}
	for _, rg := range footer.RowGroups {
		for _, ch := range rg.Chunks {
			c, err := ReadChunk(want, ch)
			if err != nil {
				t.Fatal(err)
			}
			seen[c.Enc] = true
		}
	}
	if !seen[vector.Plain] || !seen[vector.Dict] || !seen[vector.RLE] {
		t.Fatalf("fixture chunks use encodings %v: it should hold all three", seen)
	}
}
