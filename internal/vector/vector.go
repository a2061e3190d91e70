// Package vector implements the columnar in-memory batch format and
// vectorized evaluation kernels used throughout the repository — the
// stand-in for BigQuery's Superluminal library and the Apache Arrow
// batches the Storage Read API emits (§2.2.1, §3.4).
//
// Columns carry one of three physical encodings: PLAIN, DICT
// (dictionary codes over a value dictionary) and RLE (run-length
// runs over a per-run value array). Kernels evaluate predicates,
// projections, masking and partial aggregates directly on the encoded
// representation where possible — evaluating a dictionary predicate
// once per dictionary entry rather than once per row is the heart of
// the §3.4 vectorized-reader result.
package vector

import (
	"fmt"
	"strings"
)

// Type is a column's logical type.
type Type uint8

// Logical column types.
const (
	Invalid Type = iota
	Int64
	Float64
	Bool
	String
	Bytes
	Timestamp // int64 nanoseconds since simulated epoch
)

// String returns the SQL-ish name of the type.
func (t Type) String() string {
	switch t {
	case Int64:
		return "INT64"
	case Float64:
		return "FLOAT64"
	case Bool:
		return "BOOL"
	case String:
		return "STRING"
	case Bytes:
		return "BYTES"
	case Timestamp:
		return "TIMESTAMP"
	default:
		return "INVALID"
	}
}

// TypeFromString parses a type name (case-insensitive).
func TypeFromString(s string) (Type, error) {
	switch strings.ToUpper(s) {
	case "INT64", "INT", "INTEGER", "BIGINT":
		return Int64, nil
	case "FLOAT64", "FLOAT", "DOUBLE":
		return Float64, nil
	case "BOOL", "BOOLEAN":
		return Bool, nil
	case "STRING", "VARCHAR", "TEXT":
		return String, nil
	case "BYTES":
		return Bytes, nil
	case "TIMESTAMP":
		return Timestamp, nil
	}
	return Invalid, fmt.Errorf("vector: unknown type %q", s)
}

// Field is one named, typed column in a schema.
type Field struct {
	Name string
	Type Type
}

// Schema is an ordered list of fields.
type Schema struct {
	Fields []Field
}

// NewSchema builds a schema from fields.
func NewSchema(fields ...Field) Schema { return Schema{Fields: fields} }

// Index returns the position of the named field, or -1.
func (s Schema) Index(name string) int {
	for i, f := range s.Fields {
		if f.Name == name {
			return i
		}
	}
	return -1
}

// Len returns the number of fields.
func (s Schema) Len() int { return len(s.Fields) }

// Select returns a schema with only the named fields, in the given
// order.
func (s Schema) Select(names []string) (Schema, error) {
	out := Schema{Fields: make([]Field, 0, len(names))}
	for _, n := range names {
		i := s.Index(n)
		if i < 0 {
			return Schema{}, fmt.Errorf("vector: no column %q in schema", n)
		}
		out.Fields = append(out.Fields, s.Fields[i])
	}
	return out, nil
}

// Equal reports field-for-field schema equality.
func (s Schema) Equal(o Schema) bool {
	if len(s.Fields) != len(o.Fields) {
		return false
	}
	for i := range s.Fields {
		if s.Fields[i] != o.Fields[i] {
			return false
		}
	}
	return true
}

func (s Schema) String() string {
	parts := make([]string, len(s.Fields))
	for i, f := range s.Fields {
		parts[i] = f.Name + " " + f.Type.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Value is a single dynamically-typed SQL value. Null is represented
// by the zero Value (Type == Invalid).
type Value struct {
	Type Type
	I    int64   // Int64, Timestamp
	F    float64 // Float64
	S    string  // String, Bytes
	B    bool    // Bool
}

// Convenience constructors.
func IntValue(v int64) Value       { return Value{Type: Int64, I: v} }
func FloatValue(v float64) Value   { return Value{Type: Float64, F: v} }
func BoolValue(v bool) Value       { return Value{Type: Bool, B: v} }
func StringValue(v string) Value   { return Value{Type: String, S: v} }
func BytesValue(v []byte) Value    { return Value{Type: Bytes, S: string(v)} }
func TimestampValue(v int64) Value { return Value{Type: Timestamp, I: v} }

// NullValue is the SQL NULL.
var NullValue = Value{}

// IsNull reports whether the value is SQL NULL.
func (v Value) IsNull() bool { return v.Type == Invalid }

// Compare orders two non-null values of the same type family:
// -1, 0, +1. Numeric types compare across Int64/Float64/Timestamp.
func (v Value) Compare(o Value) int {
	if v.numeric() && o.numeric() {
		a, b := v.asFloat(), o.asFloat()
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		}
		return 0
	}
	switch v.Type {
	case String, Bytes:
		return strings.Compare(v.S, o.S)
	case Bool:
		switch {
		case !v.B && o.B:
			return -1
		case v.B && !o.B:
			return 1
		}
		return 0
	}
	return 0
}

func (v Value) numeric() bool {
	return v.Type == Int64 || v.Type == Float64 || v.Type == Timestamp
}

func (v Value) asFloat() float64 {
	if v.Type == Float64 {
		return v.F
	}
	return float64(v.I)
}

// AsFloat returns the numeric value as float64 (0 for non-numerics).
func (v Value) AsFloat() float64 {
	if !v.numeric() {
		return 0
	}
	return v.asFloat()
}

// AsInt returns the numeric value as int64.
func (v Value) AsInt() int64 {
	if v.Type == Float64 {
		return int64(v.F)
	}
	return v.I
}

// String renders the value for display.
func (v Value) String() string {
	switch v.Type {
	case Invalid:
		return "NULL"
	case Int64, Timestamp:
		return fmt.Sprintf("%d", v.I)
	case Float64:
		return fmt.Sprintf("%g", v.F)
	case Bool:
		return fmt.Sprintf("%t", v.B)
	case String:
		return v.S
	case Bytes:
		return fmt.Sprintf("%x", v.S)
	}
	return "?"
}

// Equal reports deep equality including null-ness.
func (v Value) Equal(o Value) bool {
	if v.IsNull() || o.IsNull() {
		return v.IsNull() && o.IsNull()
	}
	if v.numeric() && o.numeric() {
		return v.asFloat() == o.asFloat()
	}
	if v.Type != o.Type {
		return false
	}
	return v.Compare(o) == 0
}

// Encoding is a column's physical representation.
type Encoding uint8

// Physical encodings.
const (
	Plain Encoding = iota
	Dict           // Codes index into the value arrays (the dictionary)
	RLE            // Runs of (count, value-index) pairs
)

func (e Encoding) String() string {
	switch e {
	case Plain:
		return "PLAIN"
	case Dict:
		return "DICT"
	case RLE:
		return "RLE"
	}
	return "?"
}

// Run is one run-length run: Count repetitions of the value at
// ValIdx in the column's value arrays. ValIdx == NullIdx means a run
// of NULLs.
type Run struct {
	Count  uint32
	ValIdx uint32
}

// NullIdx is the sentinel value-index that marks NULL in Dict codes
// and RLE runs.
const NullIdx = ^uint32(0)

// Column is one column of data in some physical encoding.
//
//   - Plain: value arrays have Len entries; Nulls (if non-nil) flags
//     NULL rows.
//   - Dict: Codes has Len entries indexing the value arrays (the
//     dictionary); code NullIdx is NULL.
//   - RLE: Runs' counts sum to Len; each run's ValIdx indexes the
//     value arrays; ValIdx NullIdx is NULL.
type Column struct {
	Type  Type
	Len   int
	Enc   Encoding
	Nulls []bool // Plain only; nil means no nulls

	Ints   []int64   // Int64, Timestamp
	Floats []float64 // Float64
	Bools  []bool    // Bool
	Strs   []string  // String, Bytes

	Codes []uint32 // Dict
	Runs  []Run    // RLE

	// Pooled marks backing arrays carved from a recycled query arena:
	// the column is only valid until the query releases its arena, so
	// any consumer retaining it past that point must DetachColumn
	// first. Heap-owned columns leave this false.
	Pooled bool
	// Sorted marks a null-free Plain Int64/Timestamp column whose values
	// never decrease (see Ascending). Only the scan cache (once, when it
	// makes a decoded column resident) and the Big Metadata prune index
	// (on its min and max columns, when it builds them) set it; readers
	// find a predicate's rows by binary search (SortedWindow). Kernels
	// build their outputs without it; a slice inherits it.
	Sorted bool
}

// NewInt64Column builds a plain Int64 column.
func NewInt64Column(vals []int64) *Column {
	return &Column{Type: Int64, Len: len(vals), Enc: Plain, Ints: vals}
}

// NewFloat64Column builds a plain Float64 column.
func NewFloat64Column(vals []float64) *Column {
	return &Column{Type: Float64, Len: len(vals), Enc: Plain, Floats: vals}
}

// NewStringColumn builds a plain String column.
func NewStringColumn(vals []string) *Column {
	return &Column{Type: String, Len: len(vals), Enc: Plain, Strs: vals}
}

// NewBoolColumn builds a plain Bool column.
func NewBoolColumn(vals []bool) *Column {
	return &Column{Type: Bool, Len: len(vals), Enc: Plain, Bools: vals}
}

// NewTimestampColumn builds a plain Timestamp column.
func NewTimestampColumn(vals []int64) *Column {
	return &Column{Type: Timestamp, Len: len(vals), Enc: Plain, Ints: vals}
}

// dictLen returns the number of dictionary/run values stored.
func (c *Column) dictLen() int {
	switch c.Type {
	case Int64, Timestamp:
		return len(c.Ints)
	case Float64:
		return len(c.Floats)
	case Bool:
		return len(c.Bools)
	case String, Bytes:
		return len(c.Strs)
	}
	return 0
}

// valueAtIdx returns the dictionary value at idx.
func (c *Column) valueAtIdx(idx uint32) Value {
	if idx == NullIdx {
		return NullValue
	}
	switch c.Type {
	case Int64:
		return IntValue(c.Ints[idx])
	case Timestamp:
		return TimestampValue(c.Ints[idx])
	case Float64:
		return FloatValue(c.Floats[idx])
	case Bool:
		return BoolValue(c.Bools[idx])
	case String:
		return StringValue(c.Strs[idx])
	case Bytes:
		return Value{Type: Bytes, S: c.Strs[idx]}
	}
	return NullValue
}

// Value returns the logical value at row i, resolving the encoding.
func (c *Column) Value(i int) Value {
	return c.valueAtIdx(c.valIdxOf(i))
}

// IsNullAt reports whether row i is NULL.
func (c *Column) IsNullAt(i int) bool {
	return c.valIdxOf(i) == NullIdx
}

// valIdxOf returns the value-array index of row i, resolving the
// encoding: NullIdx for a NULL (and a row past an RLE column's runs).
func (c *Column) valIdxOf(i int) uint32 {
	switch c.Enc {
	case Plain:
		if c.Nulls != nil && c.Nulls[i] {
			return NullIdx
		}
		return uint32(i)
	case Dict:
		return c.Codes[i]
	case RLE:
		for _, r := range c.Runs {
			if i < int(r.Count) {
				return r.ValIdx
			}
			i -= int(r.Count)
		}
	}
	return NullIdx
}

// Decode returns a PLAIN copy of the column, expanding Dict/RLE. NULL
// rows hold the type's zero value.
func (c *Column) Decode() *Column {
	if c.Enc == Plain {
		return c
	}
	out := &Column{Type: c.Type, Len: c.Len, Enc: Plain}
	if c.Len == 0 {
		return out
	}
	nullAt := func(i int) {
		if out.Nulls == nil {
			out.Nulls = make([]bool, c.Len)
		}
		out.Nulls[i] = true
	}
	switch c.Type {
	case Int64, Timestamp:
		out.Ints = make([]int64, c.Len)
		copySelected(out.Ints, c.Ints, c, 0, c.Len, nil, nullAt)
	case Float64:
		out.Floats = make([]float64, c.Len)
		copySelected(out.Floats, c.Floats, c, 0, c.Len, nil, nullAt)
	case Bool:
		out.Bools = make([]bool, c.Len)
		copySelected(out.Bools, c.Bools, c, 0, c.Len, nil, nullAt)
	case String, Bytes:
		out.Strs = make([]string, c.Len)
		copySelected(out.Strs, c.Strs, c, 0, c.Len, nil, nullAt)
	}
	return out
}

func zeroOf(t Type) Value {
	switch t {
	case Int64:
		return IntValue(0)
	case Timestamp:
		return TimestampValue(0)
	case Float64:
		return FloatValue(0)
	case Bool:
		return BoolValue(false)
	case String:
		return StringValue("")
	case Bytes:
		return Value{Type: Bytes}
	}
	return NullValue
}

// Batch is a set of equal-length columns with a schema.
type Batch struct {
	Schema Schema
	Cols   []*Column
	N      int
}

// NewBatch assembles a batch, validating column lengths.
func NewBatch(schema Schema, cols []*Column) (*Batch, error) {
	if len(cols) != schema.Len() {
		return nil, fmt.Errorf("vector: %d columns for %d fields", len(cols), schema.Len())
	}
	n := 0
	if len(cols) > 0 {
		n = cols[0].Len
	}
	for i, c := range cols {
		if c.Len != n {
			return nil, fmt.Errorf("vector: column %d length %d != %d", i, c.Len, n)
		}
		if c.Type != schema.Fields[i].Type {
			return nil, fmt.Errorf("vector: column %d type %v != field type %v", i, c.Type, schema.Fields[i].Type)
		}
	}
	return &Batch{Schema: schema, Cols: cols, N: n}, nil
}

// MustBatch is NewBatch panicking on error, for tests and literals.
func MustBatch(schema Schema, cols []*Column) *Batch {
	b, err := NewBatch(schema, cols)
	if err != nil {
		panic(err)
	}
	return b
}

// EmptyBatch returns a zero-row batch for a schema.
func EmptyBatch(schema Schema) *Batch {
	cols := make([]*Column, schema.Len())
	for i, f := range schema.Fields {
		cols[i] = &Column{Type: f.Type, Enc: Plain}
	}
	return &Batch{Schema: schema, Cols: cols}
}

// Column returns the column for a field name, or nil.
func (b *Batch) Column(name string) *Column {
	i := b.Schema.Index(name)
	if i < 0 {
		return nil
	}
	return b.Cols[i]
}

// Row materializes row i as a value slice (slow path, for tests, row
// readers and result rendering).
func (b *Batch) Row(i int) []Value {
	out := make([]Value, len(b.Cols))
	for j, c := range b.Cols {
		out[j] = c.Value(i)
	}
	return out
}

// Project returns a batch with only the named columns.
func (b *Batch) Project(names []string) (*Batch, error) {
	schema, err := b.Schema.Select(names)
	if err != nil {
		return nil, err
	}
	cols := make([]*Column, len(names))
	for i, n := range names {
		cols[i] = b.Cols[b.Schema.Index(n)]
	}
	return &Batch{Schema: schema, Cols: cols, N: b.N}, nil
}

// Builder builds a batch row-at-a-time; used by loaders and tests.
type Builder struct {
	schema Schema
	rows   [][]Value
}

// NewBuilder returns a builder for schema.
func NewBuilder(schema Schema) *Builder { return &Builder{schema: schema} }

// Append adds a row. It panics if the arity is wrong (programmer
// error).
func (bl *Builder) Append(vals ...Value) {
	if len(vals) != bl.schema.Len() {
		panic(fmt.Sprintf("vector: row arity %d != schema %d", len(vals), bl.schema.Len()))
	}
	bl.rows = append(bl.rows, vals)
}

// Len returns the number of buffered rows.
func (bl *Builder) Len() int { return len(bl.rows) }

// Build materializes the plain-encoded batch.
func (bl *Builder) Build() *Batch {
	n := len(bl.rows)
	cols := make([]*Column, bl.schema.Len())
	for j, f := range bl.schema.Fields {
		c := &Column{Type: f.Type, Len: n, Enc: Plain}
		var nulls []bool
		for i := 0; i < n; i++ {
			v := bl.rows[i][j]
			if v.IsNull() {
				if nulls == nil {
					nulls = make([]bool, n)
				}
				nulls[i] = true
				v = zeroOf(f.Type)
			}
			switch f.Type {
			case Int64, Timestamp:
				c.Ints = append(c.Ints, v.I)
			case Float64:
				c.Floats = append(c.Floats, v.F)
			case Bool:
				c.Bools = append(c.Bools, v.B)
			case String, Bytes:
				c.Strs = append(c.Strs, v.S)
			}
		}
		c.Nulls = nulls
		cols[j] = c
	}
	return &Batch{Schema: bl.schema, Cols: cols, N: n}
}
