package scan

import (
	"fmt"
	"math/bits"

	"biglake/internal/colfmt"
	"biglake/internal/vector"
)

// Columns is the set of a table's columns a read produces: a bitset
// over positions in the table schema (Source.Table.Schema). nil is
// every column — what a rewrite (DML, Optimize) and Repair read; a
// non-nil set with no bit is no column at all, and the read still
// returns the file's row count. A statement resolves its set once, so
// a file costs it neither an allocation nor a string.
type Columns []uint64

// NewColumns returns the empty set over a schema of n fields, drawn
// from al (nil = heap).
func NewColumns(al vector.Alloc, n int) Columns {
	if al == nil {
		al = vector.Heap
	}
	return al.Uint64s((n + 63) / 64)
}

// ColumnsOf returns the set of the named columns of schema; names the
// schema does not have are left out.
func ColumnsOf(schema vector.Schema, names ...string) Columns {
	c := NewColumns(nil, schema.Len())
	for _, name := range names {
		c.AddNamed(schema, name)
	}
	return c
}

// Add puts the column at position i in the set.
func (c Columns) Add(i int) { c[i>>6] |= 1 << (i & 63) }

// AddNamed puts schema's column of that name in the set, if there is
// one.
func (c Columns) AddNamed(schema vector.Schema, name string) {
	if i := schema.Index(name); i >= 0 {
		c.Add(i)
	}
}

// AddPredicates puts the columns of schema that preds filter on in the
// set.
func (c Columns) AddPredicates(schema vector.Schema, preds []colfmt.Predicate) {
	for _, p := range preds {
		c.AddNamed(schema, p.Column)
	}
}

// Has reports whether the column at position i is in the set.
func (c Columns) Has(i int) bool {
	return c == nil || (i>>6 < len(c) && c[i>>6]&(1<<(i&63)) != 0)
}

// Count returns how many columns of an n-field schema are in the set.
func (c Columns) Count(n int) int {
	if c == nil {
		return n
	}
	k := 0
	for _, w := range c {
		k += bits.OnesCount64(w)
	}
	return k
}

// Project returns schema restricted to the set, in schema's order.
func (c Columns) Project(schema vector.Schema) vector.Schema {
	if c == nil {
		return schema
	}
	var out vector.Schema
	for i, f := range schema.Fields {
		if c.Has(i) {
			out.Fields = append(out.Fields, f)
		}
	}
	return out
}

// covers checks that every predicate column the table has is in the
// set. A predicate outside it could not be told from one on a column
// the file does not store (a partition column, consumed by pruning)
// and would be dropped without a word.
func (c Columns) covers(table vector.Schema, preds []colfmt.Predicate) error {
	if c == nil {
		return nil
	}
	for _, p := range preds {
		if i := table.Index(p.Column); i >= 0 && !c.Has(i) {
			return fmt.Errorf("scan: predicate column %q is not in the column list", p.Column)
		}
	}
	return nil
}

// onFile maps the set onto a file's own schema, appending to buf: bit j
// is set when the file's field j is wanted. nil keeps every field the
// file has, whether or not the table declares it.
func (c Columns) onFile(buf []uint64, table, file vector.Schema) []uint64 {
	n := file.Len()
	for w := 0; w < (n+63)/64; w++ {
		buf = append(buf, 0)
	}
	if c == nil {
		for j := 0; j < n; j++ {
			buf[j>>6] |= 1 << (j & 63)
		}
		return buf
	}
	for i, f := range table.Fields {
		if !c.Has(i) {
			continue
		}
		// Files usually lay their fields out as the table declares them.
		j := i
		if j >= n || file.Fields[j].Name != f.Name {
			if j = file.Index(f.Name); j < 0 {
				continue // not stored: a partition column, or absent
			}
		}
		buf[j>>6] |= 1 << (j & 63)
	}
	return buf
}

func hasBit(set []uint64, j int) bool { return set[j>>6]&(1<<(j&63)) != 0 }
