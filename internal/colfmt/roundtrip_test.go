package colfmt

// Round-trip property test: random typed columns (dictionary-friendly
// low-cardinality strings, RLE-friendly runs, nulls, multiple and
// empty row groups) must decode to exactly the values encoded, the
// two readers must agree with each other, and every footer stat
// (min/max/null count) must match the decoded data it describes. The
// differential oracle trusts colfmt decoding as its ground truth, so
// this is the layer its guarantees bottom out in.

import (
	"errors"
	"fmt"
	"testing"

	"biglake/internal/integrity"
	"biglake/internal/sim"
	"biglake/internal/vector"
)

// randomBatch builds a seeded batch shaped to exercise the encoder's
// choices: runs, low cardinality, nulls, negative and extreme values.
func randomBatch(rng *sim.RNG, rows int) *vector.Batch {
	schema := vector.NewSchema(
		vector.Field{Name: "i", Type: vector.Int64},
		vector.Field{Name: "f", Type: vector.Float64},
		vector.Field{Name: "s", Type: vector.String},
		vector.Field{Name: "b", Type: vector.Bool},
		vector.Field{Name: "ts", Type: vector.Timestamp},
	)
	words := []string{"aa", "bb", "cc", "dd"}
	bl := vector.NewBuilder(schema)
	runVal := int64(0)
	runLeft := 0
	for r := 0; r < rows; r++ {
		if runLeft == 0 { // RLE-friendly runs in the int column
			runVal = int64(rng.Intn(5))
			runLeft = 1 + rng.Intn(12)
		}
		runLeft--
		null := func(p int) bool { return rng.Intn(100) < p }
		iv := vector.IntValue(runVal)
		if null(10) {
			iv = vector.NullValue
		}
		fv := vector.FloatValue(float64(rng.Intn(2000)-1000) * 0.5)
		if null(15) {
			fv = vector.NullValue
		}
		sv := vector.StringValue(words[rng.Intn(len(words))])
		if null(10) {
			sv = vector.NullValue
		}
		bv := vector.BoolValue(rng.Intn(2) == 0)
		if null(20) {
			bv = vector.NullValue
		}
		tv := vector.TimestampValue(20240101 + int64(rng.Intn(365)))
		if null(5) {
			tv = vector.NullValue
		}
		bl.Append(iv, fv, sv, bv, tv)
	}
	return bl.Build()
}

func valuesEqual(a, b vector.Value) bool {
	if a.IsNull() || b.IsNull() {
		return a.IsNull() && b.IsNull()
	}
	if a.Type != b.Type {
		return false
	}
	switch a.Type {
	case vector.Float64:
		return a.F == b.F
	case vector.String, vector.Bytes:
		return a.S == b.S
	case vector.Bool:
		return a.B == b.B
	default:
		return a.I == b.I
	}
}

func TestRoundTripProperty(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := sim.NewRNG(seed)
			rows := 1 + rng.Intn(300)
			in := randomBatch(rng, rows)
			// Small row groups force several groups per file.
			opts := WriterOptions{RowGroupRows: 1 + rng.Intn(64)}
			if seed%4 == 0 {
				opts.DisableEncodings = true // plain baseline must agree too
			}
			file, err := WriteFile(in, opts)
			if err != nil {
				t.Fatal(err)
			}

			// Vectorized reader round-trip.
			vr, err := NewVectorizedReader(file, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			out, err := vr.ReadAll()
			if err != nil {
				t.Fatal(err)
			}
			if out.N != in.N {
				t.Fatalf("rows: %d != %d", out.N, in.N)
			}
			if !out.Schema.Equal(in.Schema) {
				t.Fatalf("schema drift: %v vs %v", out.Schema, in.Schema)
			}
			for r := 0; r < in.N; r++ {
				want, got := in.Row(r), out.Row(r)
				for c := range want {
					if !valuesEqual(want[c], got[c]) {
						t.Fatalf("row %d col %s: %v != %v", r, in.Schema.Fields[c].Name, got[c], want[c])
					}
				}
			}

			// Row reader must agree with the vectorized reader.
			rr, err := NewRowReader(file, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			for r := 0; ; r++ {
				row, err := rr.Next()
				if err != nil {
					t.Fatal(err)
				}
				if row == nil {
					if r != in.N {
						t.Fatalf("row reader stopped at %d of %d", r, in.N)
					}
					break
				}
				for c := range row {
					if !valuesEqual(row[c], in.Row(r)[c]) {
						t.Fatalf("row reader row %d col %d: %v != %v", r, c, row[c], in.Row(r)[c])
					}
				}
			}

			verifyFooterStats(t, file, in)
		})
	}
}

// verifyFooterStats recomputes per-row-group min/max/null counts from
// the source batch and requires the footer to match exactly.
func verifyFooterStats(t *testing.T, file []byte, in *vector.Batch) {
	t.Helper()
	footer, err := ReadFooter(file)
	if err != nil {
		t.Fatal(err)
	}
	start := 0
	for gi, rg := range footer.RowGroups {
		end := start + int(rg.Rows)
		if end > in.N {
			t.Fatalf("row group %d overruns batch: %d > %d", gi, end, in.N)
		}
		for _, ch := range rg.Chunks {
			ci := in.Schema.Index(ch.Column)
			if ci < 0 {
				t.Fatalf("row group %d: unknown column %q", gi, ch.Column)
			}
			var min, max vector.Value
			nulls := int64(0)
			for r := start; r < end; r++ {
				v := in.Row(r)[ci]
				if v.IsNull() {
					nulls++
					continue
				}
				if min.IsNull() || v.Compare(min) < 0 {
					min = v
				}
				if max.IsNull() || v.Compare(max) > 0 {
					max = v
				}
			}
			if ch.Stats.Nulls != nulls {
				t.Fatalf("group %d col %s: footer nulls %d, data %d", gi, ch.Column, ch.Stats.Nulls, nulls)
			}
			if !valuesEqual(ch.Stats.Min.ToValue(), min) {
				t.Fatalf("group %d col %s: footer min %v, data %v", gi, ch.Column, ch.Stats.Min.ToValue(), min)
			}
			if !valuesEqual(ch.Stats.Max.ToValue(), max) {
				t.Fatalf("group %d col %s: footer max %v, data %v", gi, ch.Column, ch.Stats.Max.ToValue(), max)
			}
		}
		start = end
	}
	if start != in.N {
		t.Fatalf("row groups cover %d of %d rows", start, in.N)
	}
}

// TestRoundTripBitFlips is the corruption arm of the round-trip
// property: every byte of a written file is covered by a checksum
// (chunk CRCs, footer CRC, or the trailer fields those checks parse),
// so flipping ANY single bit must make Verify return a typed
// integrity error — never a silent success, never an untyped panic or
// garbage decode. CRC-32C detects all single-bit errors, so there is
// no lucky flip.
func TestRoundTripBitFlips(t *testing.T) {
	flip := func(file []byte, bit int) []byte {
		out := append([]byte(nil), file...)
		out[bit/8] ^= 1 << (bit % 8)
		return out
	}
	check := func(t *testing.T, file []byte, bit int) {
		t.Helper()
		bad := flip(file, bit)
		err := Verify(bad)
		if err == nil {
			t.Fatalf("bit %d (byte %d of %d): flip verified clean", bit, bit/8, len(file))
		}
		if !errors.Is(err, integrity.ErrCorrupt) {
			t.Fatalf("bit %d: flip produced untyped error: %v", bit, err)
		}
		// The real read path must refuse it too (typed), not decode
		// garbage rows.
		if vr, rerr := NewVectorizedReader(bad, nil, nil); rerr == nil {
			if _, rerr = vr.ReadAll(); rerr == nil {
				t.Fatalf("bit %d: corrupt file decoded without error", bit)
			} else if !errors.Is(rerr, integrity.ErrCorrupt) {
				t.Fatalf("bit %d: read path error untyped: %v", bit, rerr)
			}
		} else if !errors.Is(rerr, integrity.ErrCorrupt) {
			t.Fatalf("bit %d: reader constructor error untyped: %v", bit, rerr)
		}
	}

	// Exhaustive over a small file: every single bit.
	rng := sim.NewRNG(77)
	small := randomBatch(rng, 8)
	file, err := WriteFile(small, WriterOptions{RowGroupRows: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(file); err != nil {
		t.Fatalf("pristine file failed verification: %v", err)
	}
	for bit := 0; bit < len(file)*8; bit++ {
		check(t, file, bit)
	}

	// Sampled over larger seeded files: 64 random flips each.
	for seed := uint64(1); seed <= 5; seed++ {
		rng := sim.NewRNG(seed ^ 0xb17f11b5)
		in := randomBatch(rng, 50+rng.Intn(200))
		file, err := WriteFile(in, WriterOptions{RowGroupRows: 1 + rng.Intn(64)})
		if err != nil {
			t.Fatal(err)
		}
		if err := Verify(file); err != nil {
			t.Fatalf("seed %d: pristine file failed verification: %v", seed, err)
		}
		for i := 0; i < 64; i++ {
			check(t, file, rng.Intn(len(file)*8))
		}
	}
}

// TestRoundTripEmpty pins the degenerate shapes: a zero-row file and
// an empty row group produced by flushing an empty batch.
func TestRoundTripEmpty(t *testing.T) {
	schema := vector.NewSchema(
		vector.Field{Name: "i", Type: vector.Int64},
		vector.Field{Name: "s", Type: vector.String},
	)
	empty := vector.NewBuilder(schema).Build()
	file, err := WriteFile(empty, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	vr, err := NewVectorizedReader(file, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := vr.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if out.N != 0 {
		t.Fatalf("rows = %d, want 0", out.N)
	}
	if !out.Schema.Equal(schema) {
		t.Fatalf("schema lost on empty file: %v", out.Schema)
	}

	// Writer-level: an empty WriteBatch between real ones must not
	// corrupt grouping or stats.
	w := NewWriter(schema, WriterOptions{RowGroupRows: 4})
	bl := vector.NewBuilder(schema)
	bl.Append(vector.IntValue(1), vector.StringValue("a"))
	if err := w.WriteBatch(bl.Build()); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteBatch(vector.NewBuilder(schema).Build()); err != nil {
		t.Fatal(err)
	}
	bl2 := vector.NewBuilder(schema)
	bl2.Append(vector.IntValue(2), vector.StringValue("b"))
	if err := w.WriteBatch(bl2.Build()); err != nil {
		t.Fatal(err)
	}
	data, _, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	vr2, err := NewVectorizedReader(data, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	out2, err := vr2.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if out2.N != 2 {
		t.Fatalf("rows = %d, want 2", out2.N)
	}
	if out2.Row(0)[0].I != 1 || out2.Row(1)[0].I != 2 {
		t.Fatalf("rows = %v / %v", out2.Row(0), out2.Row(1))
	}
}
