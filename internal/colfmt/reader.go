package colfmt

import (
	"cmp"
	"fmt"
	"slices"

	"biglake/internal/integrity"
	"biglake/internal/vector"
)

// Predicate is a simple pushdown predicate `Column Op Value` used for
// row-group skipping and row filtering during scans.
type Predicate struct {
	Column string
	Op     vector.CmpOp
	Value  vector.Value
}

// String renders the predicate.
func (p Predicate) String() string {
	return fmt.Sprintf("%s %s %s", p.Column, p.Op, p.Value)
}

// StatsCanSatisfy reports whether a chunk with the given stats could
// contain rows satisfying the predicate; false means the whole group
// can be skipped. Integers (Int64, Timestamp) compare exactly, as the
// compare kernels select rows; other values as Value.Compare orders
// them.
func (p Predicate) StatsCanSatisfy(st ColumnStats) bool {
	min, max := st.Min.ToValue(), st.Max.ToValue()
	if min.IsNull() || max.IsNull() {
		// All-null or unknown stats: only NULL rows exist or we cannot
		// prune; predicates never match NULL, but without reliable
		// stats we conservatively keep the group when stats are
		// unknown. All-null groups (Min null with Nulls>0) are
		// skippable for any comparison.
		return !(min.IsNull() && max.IsNull() && st.Nulls > 0)
	}
	switch p.Op {
	case vector.EQ:
		return compareStat(p.Value, min) >= 0 && compareStat(p.Value, max) <= 0
	case vector.NE:
		// Only skippable if every row equals Value.
		return !(compareStat(min, max) == 0 && compareStat(min, p.Value) == 0 && st.Nulls == 0)
	case vector.LT:
		return compareStat(min, p.Value) < 0
	case vector.LE:
		return compareStat(min, p.Value) <= 0
	case vector.GT:
		return compareStat(max, p.Value) > 0
	case vector.GE:
		return compareStat(max, p.Value) >= 0
	}
	return true
}

// compareStat is Value.Compare, except that two integers compare
// exactly rather than through float64, which ties neighbours beyond
// 2^53: a statistic must never prune a row the kernel would select.
func compareStat(a, b vector.Value) int {
	if isInt(a.Type) && isInt(b.Type) {
		return cmp.Compare(a.I, b.I)
	}
	return a.Compare(b)
}

func isInt(t vector.Type) bool { return t == vector.Int64 || t == vector.Timestamp }

// EvalPredicates returns the rows of a batch the conjunction of
// predicates selects, ascending.
func EvalPredicates(b *vector.Batch, preds []Predicate) ([]int32, error) {
	return EvalPredicatesWith(nil, b, 0, b.N, preds)
}

// EvalPredicatesWith returns the rows of b in [lo, hi) the conjunction
// of predicates selects, ascending, as a selection drawn from al (nil =
// heap): the first predicate's kernel writes the survivors of the
// window, and each later one refines them in place, so no mask is built
// and the common single-conjunct scan (a point lookup) runs one kernel
// pass. With no predicate every row of the window survives.
func EvalPredicatesWith(al vector.Alloc, b *vector.Batch, lo, hi int, preds []Predicate) ([]int32, error) {
	var sel []int32
	for _, p := range preds {
		c := b.Column(p.Column)
		if c == nil {
			return nil, fmt.Errorf("colfmt: predicate column %q not in batch", p.Column)
		}
		sel = vector.SelectConst(al, c, lo, hi, sel, p.Op, p.Value)
	}
	if sel == nil {
		if al == nil {
			al = vector.Heap
		}
		sel = al.Int32s(hi - lo)
		for i := range sel {
			sel[i] = int32(lo + i)
		}
	}
	return sel, nil
}

// VectorizedReader scans a file emitting encoded columnar batches,
// using footer stats to skip row groups that cannot satisfy the
// predicates. This is the reader of §3.4's second generation: column
// chunks flow into vectorized evaluation without ever becoming rows.
// Only the chunks of the projected and predicate columns are touched —
// CRC-checked and decoded; the rest of the file is never walked, so the
// reader needs only the bytes Ranges names.
type VectorizedReader struct {
	src    Extents
	footer *Footer
	schema vector.Schema // projected output schema
	out    []int         // footer field position of each output column
	preds  []Predicate
	// need lists the footer field positions decoded per row group: out,
	// then the predicate columns not among them. predAt is each
	// predicate's column as an index into need.
	need   []int
	predAt []int
	group  int
	// GroupsRead counts row groups actually decoded (observability
	// for pruning tests).
	GroupsRead int
	// GroupsSkipped counts stat-pruned row groups.
	GroupsSkipped int
}

// NewVectorizedReader opens a reader over complete file bytes. columns
// nil means all columns; preds are applied as both group-skip
// conditions and row filters.
func NewVectorizedReader(file []byte, columns []string, preds []Predicate) (*VectorizedReader, error) {
	footer, err := ReadFooter(file)
	if err != nil {
		return nil, err
	}
	r, err := ReaderFor(footer, columns, preds)
	if err != nil {
		return nil, err
	}
	r.src = Whole(file)
	return r, nil
}

// ReaderFor is NewVectorizedReader over a footer the caller already
// holds, verified, with no bytes yet: ReadFrom takes the ones Ranges
// names.
func ReaderFor(footer *Footer, columns []string, preds []Predicate) (*VectorizedReader, error) {
	r := &VectorizedReader{footer: footer, preds: preds}
	if columns == nil {
		r.schema = footer.Schema()
		r.out = make([]int, len(footer.Fields))
		for i := range r.out {
			r.out[i] = i
		}
	} else {
		r.schema.Fields = make([]vector.Field, len(columns))
		r.out = make([]int, len(columns))
		for i, c := range columns {
			at := footer.fieldIndex(c)
			if at < 0 {
				return nil, fmt.Errorf("colfmt: unknown column %q", c)
			}
			r.out[i] = at
			r.schema.Fields[i] = vector.Field{Name: c, Type: footer.Fields[at].Type}
		}
	}
	r.need = r.out
	for _, p := range preds {
		at := footer.fieldIndex(p.Column)
		if at < 0 {
			return nil, fmt.Errorf("colfmt: unknown predicate column %q", p.Column)
		}
		i := slices.Index(r.need, at)
		if i < 0 {
			i = len(r.need)
			r.need = append(r.need[:i:i], at) // never into r.out's array
		}
		r.predAt = append(r.predAt, i)
	}
	return r, nil
}

// chunk returns row group gi's chunk of the field at position at.
// Writers lay chunks out in field order; a group that does not is
// searched by name.
func (r *VectorizedReader) chunk(gi, at int) (*ChunkMeta, error) {
	rg, name := &r.footer.RowGroups[gi], r.footer.Fields[at].Name
	if at < len(rg.Chunks) && rg.Chunks[at].Column == name {
		return &rg.Chunks[at], nil
	}
	for i := range rg.Chunks {
		if rg.Chunks[i].Column == name {
			return &rg.Chunks[i], nil
		}
	}
	return nil, &integrity.Error{Source: "colfmt.footer", Block: name,
		Detail: fmt.Sprintf("row group %d has no chunk for the column", gi)}
}

// skip reports whether the predicates' chunk statistics rule row group
// gi out.
func (r *VectorizedReader) skip(gi int) (bool, error) {
	for i, p := range r.preds {
		ch, err := r.chunk(gi, r.need[r.predAt[i]])
		if err != nil {
			return false, err
		}
		if !p.StatsCanSatisfy(ch.Stats) {
			return true, nil
		}
	}
	return false, nil
}

// Ranges returns the bytes the reader decodes, in file order: the
// chunks of its columns in the row groups the predicates' chunk
// statistics do not rule out, with ranges that touch merged. A reader
// of no column needs none.
func (r *VectorizedReader) Ranges() ([]Range, error) {
	var out []Range
	for gi := range r.footer.RowGroups {
		skip, err := r.skip(gi)
		if err != nil {
			return nil, err
		}
		if skip {
			continue
		}
		for _, at := range r.need {
			ch, err := r.chunk(gi, at)
			if err != nil {
				return nil, err
			}
			out = append(out, Range{Offset: ch.Offset, Length: ch.Length})
		}
	}
	slices.SortFunc(out, func(a, b Range) int { return cmp.Compare(a.Offset, b.Offset) })
	merged := out[:0]
	for _, rg := range out {
		if n := len(merged); n > 0 && merged[n-1].Offset+merged[n-1].Length >= rg.Offset {
			last := &merged[n-1]
			last.Length = max(last.Length, rg.Offset+rg.Length-last.Offset)
			continue
		}
		merged = append(merged, rg)
	}
	return merged, nil
}

// nextGroup decodes the next row group the footer stats cannot rule
// out and returns its projected columns with the rows the predicates
// select; ok is false when the file is exhausted.
func (r *VectorizedReader) nextGroup() (sel vector.Selection, ok bool, err error) {
	for r.group < len(r.footer.RowGroups) {
		gi := r.group
		rg := &r.footer.RowGroups[gi]
		r.group++

		skip, err := r.skip(gi)
		if err != nil {
			return vector.Selection{}, false, err
		}
		if skip {
			r.GroupsSkipped++
			continue
		}
		r.GroupsRead++

		// Decode only projected + predicate columns.
		cols := make([]*vector.Column, len(r.need))
		for i, at := range r.need {
			ch, err := r.chunk(gi, at)
			if err != nil {
				return vector.Selection{}, false, err
			}
			if cols[i], err = r.src.readChunk(*ch); err != nil {
				return vector.Selection{}, false, err
			}
			if int64(cols[i].Len) != rg.Rows {
				return vector.Selection{}, false, &integrity.Error{Source: "colfmt.chunk", Block: ch.Column,
					Detail: fmt.Sprintf("chunk holds %d rows, its row group %d", cols[i].Len, rg.Rows)}
			}
		}

		// Evaluate predicates on encoded columns.
		var rows []int32
		for i, p := range r.preds {
			rows = vector.SelectConst(nil, cols[r.predAt[i]], 0, int(rg.Rows), rows, p.Op, p.Value)
		}

		batch := &vector.Batch{Schema: r.schema, N: int(rg.Rows)}
		if len(r.out) > 0 {
			if batch, err = vector.NewBatch(r.schema, cols[:len(r.out)]); err != nil {
				return vector.Selection{}, false, err
			}
		}
		sel, err = vector.Window(batch, 0, batch.N, rows)
		return sel, err == nil, err
	}
	return vector.Selection{}, false, nil
}

// ReadFrom is ReadAll over src, the bytes of the file a fetch of
// Ranges returned.
func (r *VectorizedReader) ReadFrom(src Extents) (*vector.Batch, error) {
	r.src = src
	return r.ReadAll()
}

// ReadAll drains the reader into one batch (possibly empty): the
// surviving rows of every row group, filtered and concatenated in one
// sized pass. A single surviving group is returned as decoded, still
// dictionary- or run-length-encoded.
func (r *VectorizedReader) ReadAll() (*vector.Batch, error) {
	var parts []vector.Selection
	for {
		sel, ok, err := r.nextGroup()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		parts = append(parts, sel)
	}
	out, err := vector.FilterConcatWith(vector.Mem{}, parts)
	if err != nil {
		return nil, err
	}
	if out == nil {
		out = vector.EmptyBatch(r.schema)
	}
	return out, nil
}

// RowReader is the deliberately row-oriented baseline reader (§3.4
// first prototype): every row group is fully decoded, every row is
// materialized as boxed values, predicates are evaluated row-at-a-time
// and the surviving rows are re-columnarized by the caller.
type RowReader struct {
	src    Extents
	footer *Footer
	schema vector.Schema
	group  int
	rows   [][]vector.Value
	pos    int
	preds  []Predicate
	cols   []string
}

// NewRowReader opens the row-oriented reader.
func NewRowReader(file []byte, columns []string, preds []Predicate) (*RowReader, error) {
	footer, err := ReadFooter(file)
	if err != nil {
		return nil, err
	}
	return RowReaderFor(file, footer, columns, preds)
}

// RowReaderFor is NewRowReader over a footer the caller already parsed
// from file.
func RowReaderFor(file []byte, footer *Footer, columns []string, preds []Predicate) (*RowReader, error) {
	schema := footer.Schema()
	if columns == nil {
		for _, f := range schema.Fields {
			columns = append(columns, f.Name)
		}
	}
	for _, c := range columns {
		if schema.Index(c) < 0 {
			return nil, fmt.Errorf("colfmt: unknown column %q", c)
		}
	}
	return &RowReader{src: Whole(file), footer: footer, schema: schema, preds: preds, cols: columns}, nil
}

// Schema returns the projected output schema.
func (r *RowReader) Schema() vector.Schema {
	out, _ := r.schema.Select(r.cols)
	return out
}

// Next returns the next row (projected), or nil at EOF. No row-group
// skipping: the baseline reader peeks at data to decide, as pre-cache
// engines did.
func (r *RowReader) Next() ([]vector.Value, error) {
	for {
		if r.pos < len(r.rows) {
			row := r.rows[r.pos]
			r.pos++
			return row, nil
		}
		if r.group >= len(r.footer.RowGroups) {
			return nil, nil
		}
		rg := r.footer.RowGroups[r.group]
		r.group++

		// Decode every chunk fully, one boxed value per row
		// (row-oriented readers reassemble whole records).
		cols := make([][]vector.Value, len(r.schema.Fields))
		for i, f := range r.schema.Fields {
			for _, ch := range rg.Chunks {
				if ch.Column == f.Name {
					c, err := r.src.readChunk(ch)
					if err != nil {
						return nil, err
					}
					dec := c.Decode()
					cols[i] = make([]vector.Value, dec.Len)
					for k := range cols[i] {
						cols[i][k] = dec.Value(k)
					}
				}
			}
		}
		projIdx := make([]int, len(r.cols))
		for i, name := range r.cols {
			projIdx[i] = r.schema.Index(name)
		}
		r.rows = r.rows[:0]
		r.pos = 0
		for i := 0; i < int(rg.Rows); i++ {
			keep := true
			for _, p := range r.preds {
				ci := r.schema.Index(p.Column)
				v := cols[ci][i]
				if v.IsNull() || !p.Op.Eval(v.Compare(p.Value)) {
					keep = false
					break
				}
			}
			if !keep {
				continue
			}
			row := make([]vector.Value, len(projIdx))
			for j, ci := range projIdx {
				row[j] = cols[ci][i]
			}
			r.rows = append(r.rows, row)
		}
	}
}

// ReadAllColumnar drains the row reader and converts the rows back to
// a columnar batch — the translation penalty the vectorized reader
// removed.
func (r *RowReader) ReadAllColumnar() (*vector.Batch, error) {
	bl := vector.NewBuilder(r.Schema())
	for {
		row, err := r.Next()
		if err != nil {
			return nil, err
		}
		if row == nil {
			break
		}
		bl.Append(row...)
	}
	return bl.Build(), nil
}
