package vector

// This file holds zero-copy / typed materialization helpers used by
// the execution engine: a row window as a column slice instead of a
// gather (LIMIT, the scan merge of a windowed selection), the binary
// search that finds a sorted column's window, and a gather that treats
// negative indices as NULL so a join's matched and null-extended rows
// materialize in one pass per column.

// Slice returns rows [lo, hi) of a column, 0 <= lo <= hi <= c.Len.
// Plain and Dict columns share the underlying arrays (zero copy); RLE
// trims the runs at both ends and shares the value arrays. Because the
// output aliases c, it inherits c.Pooled, so the copy-out boundaries
// detach it, and c.Sorted, since a window of a sorted column is sorted.
func Slice(c *Column, lo, hi int) *Column {
	if lo == 0 && hi == c.Len {
		return c
	}
	out := &Column{Type: c.Type, Len: hi - lo, Enc: c.Enc, Pooled: c.Pooled, Sorted: c.Sorted}
	switch c.Enc {
	case Plain:
		if c.Nulls != nil {
			out.Nulls = c.Nulls[lo:hi]
		}
		switch c.Type {
		case Int64, Timestamp:
			out.Ints = c.Ints[lo:hi]
		case Float64:
			out.Floats = c.Floats[lo:hi]
		case Bool:
			out.Bools = c.Bools[lo:hi]
		case String, Bytes:
			out.Strs = c.Strs[lo:hi]
		}
	case Dict:
		out.Codes = c.Codes[lo:hi]
		out.Ints, out.Floats, out.Bools, out.Strs = c.Ints, c.Floats, c.Bools, c.Strs
	case RLE:
		out.Ints, out.Floats, out.Bools, out.Strs = c.Ints, c.Floats, c.Bools, c.Strs
		pos := 0
		for _, r := range c.Runs {
			end := pos + int(r.Count)
			if end > lo && pos < hi {
				r.Count = uint32(min(end, hi) - max(pos, lo))
				out.Runs = append(out.Runs, r)
			}
			if pos = end; pos >= hi {
				break
			}
		}
	}
	return out
}

// SliceBatch returns rows [lo, hi) of a batch (zero copy for
// Plain/Dict columns).
func SliceBatch(b *Batch, lo, hi int) *Batch {
	if lo == 0 && hi == b.N {
		return b
	}
	cols := make([]*Column, len(b.Cols))
	for i, c := range b.Cols {
		cols[i] = Slice(c, lo, hi)
	}
	return &Batch{Schema: b.Schema, Cols: cols, N: hi - lo}
}

// Ascending reports whether c is a null-free Plain Int64/Timestamp
// column whose values never decrease, in one pass that stops at the
// first descent. It is what Column.Sorted records.
func Ascending(c *Column) bool {
	if c.Enc != Plain || c.Nulls != nil || (c.Type != Int64 && c.Type != Timestamp) {
		return false
	}
	for i := 1; i < len(c.Ints); i++ {
		if c.Ints[i] < c.Ints[i-1] {
			return false
		}
	}
	return true
}

// SortedWindow returns the rows [lo, hi) of c that `c op v` selects,
// found by binary search. ok is false — evaluate the predicate row by
// row — unless c is Sorted, v is an Int64 or Timestamp literal and op
// is EQ, LT, LE, GT or GE; on the window it gives, CompareConst's mask
// is true exactly inside it.
func SortedWindow(c *Column, op CmpOp, v Value) (lo, hi int, ok bool) {
	if !Windowed(c, op, v) {
		return 0, 0, false
	}
	xs, k := c.Ints, v.I
	switch op {
	case EQ:
		return searchInts(xs, k, false), searchInts(xs, k, true), true
	case LT:
		return 0, searchInts(xs, k, false), true
	case LE:
		return 0, searchInts(xs, k, true), true
	case GT:
		return searchInts(xs, k, true), len(xs), true
	case GE:
		return searchInts(xs, k, false), len(xs), true
	}
	return 0, 0, false
}

// Windowed reports whether SortedWindow answers `c op v`, without the
// search.
func Windowed(c *Column, op CmpOp, v Value) bool {
	if c == nil || !c.Sorted || (v.Type != Int64 && v.Type != Timestamp) {
		return false
	}
	switch op {
	case EQ, LT, LE, GT, GE:
		return true
	}
	return false
}

// searchInts returns the first position of the non-decreasing xs whose
// value is at least k — above k when above is set — or len(xs).
func searchInts(xs []int64, k int64, above bool) int {
	lo, hi := 0, len(xs)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if xs[m] < k || (above && xs[m] == k) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// GatherNullWith materializes the rows at idx into a new column, with
// negative indices producing NULL — the LEFT JOIN null-extension path.
// Values are copied type-directly, without per-row boxing. Under a
// pooled allocator (late materialization) a Dict input stays Dict:
// codes are gathered (negative indices become the NULL code) and the
// dictionary value arrays are shared, so join outputs carry strings as
// codes until result emission; otherwise the output is plain.
func GatherNullWith(m Mem, c *Column, idx []int32) *Column {
	out := new(Column)
	gatherNullInto(m, out, c, idx, nil, len(idx))
	return out
}

// gatherNullInto is GatherNullWith into out, a column of n rows whose
// row at[k] (k when at is nil) takes the value at idx[k].
// With at, the column is read only at at's rows, so the other rows'
// numbers need no clearing; their Dict codes are set to NullIdx all the
// same, so a reader that walks the whole column never indexes the
// dictionary with a stale code. A NULL row of a whole output keeps its
// zero value, as every plain column's does.
func gatherNullInto(m Mem, out, c *Column, idx, at []int32, n int) {
	al := m.Allocator()
	if c.Enc == RLE {
		c = c.Decode()
	}
	sparse := at != nil
	if at == nil {
		at = identity(len(idx))
	}
	at = at[:len(idx)]
	if m.Pooled() && c.Enc == Dict {
		*out = Column{Type: c.Type, Len: n, Enc: Dict, Pooled: m.Pooled() || c.Pooled}
		out.Ints, out.Floats, out.Bools, out.Strs = c.Ints, c.Floats, c.Bools, c.Strs
		codes := uint32sForOverwrite(al, n)
		if sparse && n > 0 {
			// Every row NULL first, at memmove's pace (a fill per gap
			// between at's rows costs a branch per row).
			codes[0] = NullIdx
			for j := 1; j < n; j *= 2 {
				copy(codes[j:], codes[:j])
			}
		}
		for k, src := range idx {
			if src < 0 {
				codes[at[k]] = NullIdx
			} else {
				codes[at[k]] = c.Codes[src]
			}
		}
		out.Codes = codes
		return
	}
	*out = Column{Type: c.Type, Len: n, Enc: Plain, Pooled: m.Pooled()}
	var nulls []bool
	setNull := func(i int32) {
		if nulls == nil {
			nulls = al.Bools(n)
		}
		nulls[i] = true
	}
	switch c.Type {
	case Int64, Timestamp:
		if sparse {
			out.Ints = int64sForOverwrite(al, n)
		} else {
			out.Ints = al.Int64s(n)
		}
		gatherNull(out.Ints, c.Ints, c, idx, at, setNull)
	case Float64:
		if sparse {
			out.Floats = float64sForOverwrite(al, n)
		} else {
			out.Floats = al.Float64s(n)
		}
		gatherNull(out.Floats, c.Floats, c, idx, at, setNull)
	case Bool:
		if sparse {
			out.Bools = boolsForOverwrite(al, n)
		} else {
			out.Bools = al.Bools(n)
		}
		gatherNull(out.Bools, c.Bools, c, idx, at, setNull)
	case String, Bytes:
		out.Strs = al.Strings(n)
		gatherNull(out.Strs, c.Strs, c, idx, at, setNull)
	}
	out.Nulls = nulls
}

// gatherNull writes dst[at[k]] = the value of c's row idx[k], read from
// src, c's value array; a negative index or a NULL row goes to setNull.
func gatherNull[T any](dst, src []T, c *Column, idx, at []int32, setNull func(int32)) {
	for k, row := range idx {
		vi := uint32(row)
		switch {
		case row < 0:
			vi = NullIdx
		case c.Enc == Dict:
			vi = c.Codes[row]
		case c.Nulls != nil && c.Nulls[row]:
			vi = NullIdx
		}
		if vi == NullIdx {
			setNull(at[k])
		} else {
			dst[at[k]] = src[vi]
		}
	}
}

// GatherNullColsWith is GatherNullWith over every column of cols into
// dst[i], the columns fanned out over at most workers goroutines. An
// index under one morsel is gathered on the calling goroutine: starting
// one costs more than the copy.
func GatherNullColsWith(m Mem, dst, cols []*Column, idx []int32, workers int) {
	if len(idx) < MorselRows {
		workers = 1
	}
	ParallelEach(len(cols), workers, func(i int) {
		dst[i] = GatherNullWith(m, cols[i], idx)
	})
}
