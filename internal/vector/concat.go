package vector

import "fmt"

// ConcatBatchesWith concatenates batches in order into one batch in a
// single pass — the multi-file scan merge. Unlike pairwise AppendBatch
// (which decodes both sides and re-copies the accumulated prefix for
// every part, O(parts²) bytes), this sizes the output once and copies
// each part exactly once, drawing output arrays from m's allocator.
// Dict and RLE parts are expanded in place without materializing an
// intermediate Decode copy; under a pooled m a string column whose
// parts are all Dict stays Dict, with the per-file dictionaries merged
// and codes translated, so strings keep flowing as codes past the
// scan boundary.
//
// Nil parts are skipped. Returns (nil, nil) when no parts remain, and
// the sole part unchanged when only one remains (zero copy).
func ConcatBatchesWith(m Mem, parts []*Batch) (*Batch, error) {
	live := parts[:0:0]
	total := 0
	for _, p := range parts {
		if p == nil {
			continue
		}
		live = append(live, p)
		total += p.N
	}
	if len(live) == 0 {
		return nil, nil
	}
	if len(live) == 1 {
		return live[0], nil
	}
	schema := live[0].Schema
	for _, p := range live[1:] {
		if !p.Schema.Equal(schema) {
			return nil, fmt.Errorf("vector: concat schema mismatch %v vs %v", schema, p.Schema)
		}
	}
	al := m.Allocator()
	cols := make([]*Column, len(live[0].Cols))
	for ci := range cols {
		t := live[0].Cols[ci].Type
		out := &Column{Type: t, Len: total, Enc: Plain, Pooled: m.Pooled()}
		var nulls []bool
		nullAt := func(i int) {
			if nulls == nil {
				nulls = al.Bools(total)
			}
			nulls[i] = true
		}
		switch t {
		case Int64, Timestamp:
			out.Ints = al.Int64s(total)
			concatCol(out.Ints, func(c *Column) []int64 { return c.Ints }, live, ci, nullAt)
		case Float64:
			out.Floats = al.Float64s(total)
			concatCol(out.Floats, func(c *Column) []float64 { return c.Floats }, live, ci, nullAt)
		case Bool:
			out.Bools = al.Bools(total)
			concatCol(out.Bools, func(c *Column) []bool { return c.Bools }, live, ci, nullAt)
		case String, Bytes:
			if m.Pooled() && allDictParts(live, ci) {
				cols[ci] = concatDictStrings(al, m, total, live, ci)
				continue
			}
			out.Strs = al.Strings(total)
			concatCol(out.Strs, func(c *Column) []string { return c.Strs }, live, ci, nullAt)
		}
		out.Nulls = nulls
		cols[ci] = out
	}
	return &Batch{Schema: schema, Cols: cols, N: total}, nil
}

// concatCol copies one column position of every part into dst,
// expanding Dict codes and RLE runs without an intermediate decode.
func concatCol[T any](dst []T, arr func(*Column) []T, parts []*Batch, ci int, nullAt func(int)) {
	off := 0
	for _, p := range parts {
		c := p.Cols[ci]
		src := arr(c)
		switch c.Enc {
		case Plain:
			copy(dst[off:], src)
			for i, isNull := range c.Nulls {
				if isNull {
					nullAt(off + i)
				}
			}
		case Dict:
			for i, code := range c.Codes {
				if code == NullIdx {
					nullAt(off + i)
				} else {
					dst[off+i] = src[code]
				}
			}
		case RLE:
			i := off
			for _, r := range c.Runs {
				if r.ValIdx == NullIdx {
					for k := uint32(0); k < r.Count; k++ {
						nullAt(i)
						i++
					}
				} else {
					v := src[r.ValIdx]
					for k := uint32(0); k < r.Count; k++ {
						dst[i] = v
						i++
					}
				}
			}
		}
		off += c.Len
	}
}

// allDictParts reports whether every non-empty part at ci is Dict.
func allDictParts(parts []*Batch, ci int) bool {
	for _, p := range parts {
		if c := p.Cols[ci]; c.Len > 0 && c.Enc != Dict {
			return false
		}
	}
	return true
}

// concatDictStrings merges per-part string dictionaries into one and
// translates codes, keeping the column Dict across the scan merge. The
// merged dictionary is heap-owned (it is small and shared downstream);
// the code array comes from the allocator.
func concatDictStrings(al Alloc, m Mem, total int, parts []*Batch, ci int) *Column {
	out := &Column{Type: parts[0].Cols[ci].Type, Len: total, Enc: Dict, Pooled: m.Pooled()}
	codes := al.Uint32s(total)
	var vals []string
	merged := map[string]uint32{}
	off := 0
	for _, p := range parts {
		c := p.Cols[ci]
		if c.Len == 0 {
			continue
		}
		trans := al.Uint32s(len(c.Strs))
		for i, s := range c.Strs {
			code, ok := merged[s]
			if !ok {
				code = uint32(len(vals))
				merged[s] = code
				vals = append(vals, s)
			}
			trans[i] = code
		}
		for i, code := range c.Codes {
			if code == NullIdx {
				codes[off+i] = NullIdx
			} else {
				codes[off+i] = trans[code]
			}
		}
		off += c.Len
	}
	out.Codes = codes
	out.Strs = vals
	return out
}
