package vector

// This file holds zero-copy / typed materialization helpers used by
// the execution engine: LIMIT as a column prefix slice instead of a
// full gather, and a gather that treats negative indices as NULL so a
// join's matched and null-extended rows materialize in one pass per
// column.

// Head returns the first n rows of a column. Plain and Dict columns
// share the underlying arrays (zero copy); RLE trims runs and shares
// the value arrays. Because the output aliases c, it inherits
// c.Pooled so the copy-out boundaries detach it.
func Head(c *Column, n int) *Column {
	if n >= c.Len {
		return c
	}
	out := &Column{Type: c.Type, Len: n, Enc: c.Enc, Pooled: c.Pooled}
	switch c.Enc {
	case Plain:
		if c.Nulls != nil {
			out.Nulls = c.Nulls[:n]
		}
		switch c.Type {
		case Int64, Timestamp:
			out.Ints = c.Ints[:n]
		case Float64:
			out.Floats = c.Floats[:n]
		case Bool:
			out.Bools = c.Bools[:n]
		case String, Bytes:
			out.Strs = c.Strs[:n]
		}
	case Dict:
		out.Codes = c.Codes[:n]
		out.Ints, out.Floats, out.Bools, out.Strs = c.Ints, c.Floats, c.Bools, c.Strs
	case RLE:
		out.Ints, out.Floats, out.Bools, out.Strs = c.Ints, c.Floats, c.Bools, c.Strs
		left := n
		for _, r := range c.Runs {
			if left <= 0 {
				break
			}
			if int(r.Count) > left {
				r.Count = uint32(left)
			}
			out.Runs = append(out.Runs, r)
			left -= int(r.Count)
		}
	}
	return out
}

// HeadBatch returns the first n rows of a batch (zero copy for
// Plain/Dict columns).
func HeadBatch(b *Batch, n int) *Batch {
	if n >= b.N {
		return b
	}
	cols := make([]*Column, len(b.Cols))
	for i, c := range b.Cols {
		cols[i] = Head(c, n)
	}
	return &Batch{Schema: b.Schema, Cols: cols, N: n}
}

// GatherNullWith materializes the rows at idx into a new column, with
// negative indices producing NULL — the LEFT JOIN null-extension
// path. Values are copied type-directly, without per-row boxing.
// Under a pooled allocator (late materialization) a Dict input stays
// Dict: codes are gathered (negative indices become the NULL code) and
// the dictionary value arrays are shared, so join outputs carry
// strings as codes until result emission; otherwise the output is
// plain.
func GatherNullWith(m Mem, c *Column, idx []int32) *Column {
	al := m.Allocator()
	if c.Enc == RLE {
		c = c.Decode()
	}
	n := len(idx)
	if m.Pooled() && c.Enc == Dict {
		out := &Column{Type: c.Type, Len: n, Enc: Dict, Pooled: m.Pooled() || c.Pooled}
		out.Ints, out.Floats, out.Bools, out.Strs = c.Ints, c.Floats, c.Bools, c.Strs
		codes := al.Uint32s(n)
		for i, src := range idx {
			if src < 0 {
				codes[i] = NullIdx
			} else {
				codes[i] = c.Codes[src]
			}
		}
		out.Codes = codes
		return out
	}
	out := &Column{Type: c.Type, Len: n, Enc: Plain, Pooled: m.Pooled()}
	var nulls []bool
	setNull := func(i int) {
		if nulls == nil {
			nulls = al.Bools(n)
		}
		nulls[i] = true
	}
	// resolve maps a source row to its value-array index, or NullIdx.
	resolve := func(src int32) uint32 {
		if c.Enc == Dict {
			return c.Codes[src]
		}
		if c.Nulls != nil && c.Nulls[src] {
			return NullIdx
		}
		return uint32(src)
	}
	switch c.Type {
	case Int64, Timestamp:
		out.Ints = al.Int64s(n)
		for i, src := range idx {
			if src < 0 {
				setNull(i)
				continue
			}
			if vi := resolve(src); vi != NullIdx {
				out.Ints[i] = c.Ints[vi]
			} else {
				setNull(i)
			}
		}
	case Float64:
		out.Floats = al.Float64s(n)
		for i, src := range idx {
			if src < 0 {
				setNull(i)
				continue
			}
			if vi := resolve(src); vi != NullIdx {
				out.Floats[i] = c.Floats[vi]
			} else {
				setNull(i)
			}
		}
	case Bool:
		out.Bools = al.Bools(n)
		for i, src := range idx {
			if src < 0 {
				setNull(i)
				continue
			}
			if vi := resolve(src); vi != NullIdx {
				out.Bools[i] = c.Bools[vi]
			} else {
				setNull(i)
			}
		}
	case String, Bytes:
		out.Strs = al.Strings(n)
		for i, src := range idx {
			if src < 0 {
				setNull(i)
				continue
			}
			if vi := resolve(src); vi != NullIdx {
				out.Strs[i] = c.Strs[vi]
			} else {
				setNull(i)
			}
		}
	}
	out.Nulls = nulls
	return out
}

// GatherNullColsWith is GatherNullWith over every column of cols into
// dst[i], the columns fanned out over at most workers goroutines. An
// index under one morsel is gathered on the calling goroutine: starting
// one costs more than the copy.
func GatherNullColsWith(m Mem, dst, cols []*Column, idx []int32, workers int) {
	if len(idx) < MorselRows {
		workers = 1
	}
	parallelEach(len(cols), workers, func(i int) {
		dst[i] = GatherNullWith(m, cols[i], idx)
	})
}
