package vector

import (
	"strings"
	"testing"
)

func TestStringerCoverage(t *testing.T) {
	for typ, want := range map[Type]string{
		Int64: "INT64", Float64: "FLOAT64", Bool: "BOOL",
		String: "STRING", Bytes: "BYTES", Timestamp: "TIMESTAMP", Invalid: "INVALID",
	} {
		if typ.String() != want {
			t.Errorf("%d.String() = %q", typ, typ.String())
		}
	}
	for op, want := range map[CmpOp]string{
		EQ: "=", NE: "!=", LT: "<", LE: "<=", GT: ">", GE: ">=",
	} {
		if op.String() != want {
			t.Errorf("op String = %q, want %q", op.String(), want)
		}
	}
	for m, want := range map[MaskKind]string{
		MaskNone: "NONE", MaskNullify: "NULLIFY", MaskHash: "HASH",
		MaskDefault: "DEFAULT", MaskLastFour: "LAST_FOUR",
	} {
		if m.String() != want {
			t.Errorf("mask String = %q, want %q", m.String(), want)
		}
	}
	for a, want := range map[AggKind]string{
		AggCount: "COUNT", AggSum: "SUM", AggMin: "MIN", AggMax: "MAX",
	} {
		if a.String() != want {
			t.Errorf("agg String = %q, want %q", a.String(), want)
		}
	}
	for e, want := range map[Encoding]string{Plain: "PLAIN", Dict: "DICT", RLE: "RLE"} {
		if e.String() != want {
			t.Errorf("enc String = %q, want %q", e.String(), want)
		}
	}
}

func TestValueStringRendering(t *testing.T) {
	cases := map[string]Value{
		"NULL": NullValue,
		"42":   IntValue(42),
		"1.5":  FloatValue(1.5),
		"true": BoolValue(true),
		"hi":   StringValue("hi"),
		"6869": BytesValue([]byte("hi")), // hex
		"99":   TimestampValue(99),
	}
	for want, v := range cases {
		if got := v.String(); got != want {
			t.Errorf("%+v.String() = %q, want %q", v, got, want)
		}
	}
}

func TestSchemaString(t *testing.T) {
	s := NewSchema(Field{"a", Int64}, Field{"b", String})
	if got := s.String(); !strings.Contains(got, "a INT64") || !strings.Contains(got, "b STRING") {
		t.Fatalf("schema String = %q", got)
	}
}

func TestBoolAndTimestampColumns(t *testing.T) {
	bc := NewBoolColumn([]bool{true, false, true})
	if bc.Len != 3 || !bc.Value(0).B || bc.Value(1).B {
		t.Fatalf("bool column = %+v", bc)
	}
	if bc.IsNullAt(0) {
		t.Fatal("IsNullAt on non-null")
	}
	tc := NewTimestampColumn([]int64{10, 20})
	if tc.Type != Timestamp || tc.Value(1).AsInt() != 20 {
		t.Fatalf("ts column = %+v", tc)
	}

	// Comparisons on bool columns exercise cmpBool.
	mask := CompareConst(bc, EQ, BoolValue(true))
	if !mask[0] || mask[1] || !mask[2] {
		t.Fatalf("bool compare = %v", mask)
	}
	mask = CompareConst(bc, LT, BoolValue(true)) // false < true
	if mask[0] || !mask[1] {
		t.Fatalf("bool LT = %v", mask)
	}
}

func TestDictEncodeAllTypes(t *testing.T) {
	cols := []*Column{
		NewInt64Column([]int64{1, 1, 2}),
		NewFloat64Column([]float64{0.5, 0.5, 1.5}),
		NewBoolColumn([]bool{true, true, false}),
		NewTimestampColumn([]int64{7, 7, 9}),
	}
	for _, c := range cols {
		d := DictEncode(c)
		if d.Enc != Dict {
			t.Fatalf("%v not dict encoded", c.Type)
		}
		for i := 0; i < c.Len; i++ {
			if !d.Value(i).Equal(c.Value(i)) {
				t.Fatalf("%v round trip row %d", c.Type, i)
			}
		}
		// Re-encoding an encoded column is a no-op.
		if DictEncode(d) != d {
			t.Fatal("double encode should return the column")
		}
	}
}

func TestBatchColumnLookup(t *testing.T) {
	b := MustBatch(NewSchema(Field{"a", Int64}), []*Column{NewInt64Column([]int64{1})})
	if b.Column("a") == nil || b.Column("ghost") != nil {
		t.Fatal("Column lookup")
	}
	if b.Schema.Len() != 1 {
		t.Fatal("Len")
	}
}

func TestEncodeDecodeColumnStandalone(t *testing.T) {
	c := DictEncode(NewStringColumn([]string{"x", "y", "x"}))
	data := EncodeColumn(c)
	back, err := DecodeColumn(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Enc != Dict || back.Len != 3 || back.Value(2).S != "x" {
		t.Fatalf("column round trip = %+v", back)
	}
	if _, err := DecodeColumn([]byte{0xFF}); err == nil {
		t.Fatal("garbage column should fail")
	}
	if _, err := DecodeColumn(nil); err == nil {
		t.Fatal("empty column should fail")
	}
}

func TestDecodeColumnTruncations(t *testing.T) {
	c := RLEncode(NewInt64Column([]int64{5, 5, 6}))
	data := EncodeColumn(c)
	for cut := 1; cut < len(data); cut += 3 {
		if _, err := DecodeColumn(data[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded successfully", cut)
		}
	}
}

func TestConcatWithNullsOnBothSides(t *testing.T) {
	schema := NewSchema(Field{"v", Int64})
	a := NewInt64Column([]int64{1, 2})
	a.Nulls = []bool{false, true}
	bcol := NewInt64Column([]int64{3})
	bcol.Nulls = []bool{true}
	got, err := Concat([]*Batch{
		MustBatch(schema, []*Column{a}),
		MustBatch(schema, []*Column{bcol}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Cols[0].Value(1).IsNull() || !got.Cols[0].Value(2).IsNull() || got.Cols[0].Value(0).AsInt() != 1 {
		t.Fatalf("concat nulls = %v %v %v", got.Cols[0].Value(0), got.Cols[0].Value(1), got.Cols[0].Value(2))
	}
}

func TestValueAsFloatNonNumeric(t *testing.T) {
	if StringValue("x").AsFloat() != 0 {
		t.Fatal("non-numeric AsFloat should be 0")
	}
	if FloatValue(2.5).AsInt() != 2 {
		t.Fatal("AsInt truncates floats")
	}
}
