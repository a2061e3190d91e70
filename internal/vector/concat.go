package vector

import "fmt"

// Selection is a batch together with the rows of it a window and a
// mask select — one file's contribution to a scan before anything is
// copied. The window lets a cached scan hand on a resident batch as it
// is, with the rows a sorted column's binary search found.
type Selection struct {
	Batch *Batch
	// Lo and Hi bound the window of Batch's rows the selection ranges
	// over, [Lo, Hi).
	Lo, Hi int
	Mask   []bool // over the window's rows; nil: every one of them
	N      int    // number of selected rows; 0 selects nothing
}

// Select pairs b with mask (nil selects every row), counting the
// selection once; a mask that selects every row is dropped.
func Select(b *Batch, mask []bool) (Selection, error) {
	return SelectWindow(b, 0, b.N, mask)
}

// SelectWindow is Select over the rows [lo, hi) of b: mask, when
// given, covers those rows only.
func SelectWindow(b *Batch, lo, hi int, mask []bool) (Selection, error) {
	if lo < 0 || lo > hi || hi > b.N {
		return Selection{}, fmt.Errorf("vector: window [%d, %d) of a %d-row batch", lo, hi, b.N)
	}
	if mask != nil && len(mask) != hi-lo {
		return Selection{}, fmt.Errorf("vector: mask length %d != window %d", len(mask), hi-lo)
	}
	n := hi - lo
	if mask != nil {
		if n = CountMask(mask); n == hi-lo {
			mask = nil
		}
	}
	return Selection{Batch: b, Lo: lo, Hi: hi, Mask: mask, N: n}, nil
}

// FilterConcatWith filters each part by its window and mask and
// concatenates the survivors, in order, in one sized pass — the
// multi-file scan merge. A windowed part is sliced to its window
// (Slice), so neither a mask nor a count is built for the rows outside
// it.
// Each output array is allocated once from m's allocator and every
// surviving value is gathered straight into it, expanding Dict codes
// and RLE runs on the way: neither a per-part filtered copy nor a
// Decode copy is ever made. Under a pooled m a string column whose
// parts are all Dict stays Dict, with the per-file dictionaries merged
// and codes translated, so strings keep flowing as codes past the scan
// boundary.
//
// Parts without a batch are skipped. Returns (nil, nil) when no parts
// remain. When only one part has survivors its rows are gathered — the
// part itself if every row survived, so like any filter result it must
// be treated as immutable.
func FilterConcatWith(m Mem, parts []Selection) (*Batch, error) {
	live := make([]Selection, 0, len(parts))
	var schema Schema
	total := 0
	seen := false
	for _, p := range parts {
		if p.Batch == nil {
			continue
		}
		if !seen {
			schema, seen = p.Batch.Schema, true
		} else if !p.Batch.Schema.Equal(schema) {
			return nil, fmt.Errorf("vector: concat schema mismatch %v vs %v", schema, p.Batch.Schema)
		}
		if p.N > p.Hi-p.Lo {
			return nil, fmt.Errorf("vector: %d rows selected from a window of %d", p.N, p.Hi-p.Lo)
		}
		if p.N > 0 {
			live = append(live, p)
			total += p.N
		}
	}
	switch {
	case !seen:
		return nil, nil
	case len(live) == 0:
		return EmptyBatch(schema), nil
	case len(live) == 1:
		return filterCounted(m, live[0]), nil
	}
	for i, p := range live {
		if p.Hi-p.Lo < p.Batch.N {
			live[i] = Selection{Batch: SliceBatch(p.Batch, p.Lo, p.Hi), Hi: p.Hi - p.Lo, Mask: p.Mask, N: p.N}
		}
	}
	al := m.Allocator()
	cols := make([]*Column, len(schema.Fields))
	for ci := range cols {
		t := schema.Fields[ci].Type
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

// Concat concatenates whole batches, in order, in one sized pass — a
// client draining a read session decodes every payload, then
// concatenates once. Returns (nil, nil) for no batches.
func Concat(batches []*Batch) (*Batch, error) {
	parts := make([]Selection, len(batches))
	for i, b := range batches {
		parts[i] = Selection{Batch: b, Hi: b.N, N: b.N}
	}
	return FilterConcatWith(Mem{}, parts)
}

// concatCol gathers one column position of every part into dst.
func concatCol[T any](dst []T, arr func(*Column) []T, parts []Selection, ci int, nullAt func(int)) {
	off := 0
	for _, p := range parts {
		c := p.Batch.Cols[ci]
		off = appendSelected(dst, arr(c), c, p.Mask, off, nullAt)
	}
}

// appendSelected copies the rows of c that mask selects (nil: all of
// them) into dst from position off on, reading src — c's value array,
// or one indexed like it — through Dict codes and RLE runs without an
// intermediate decode. NULL rows are reported to nullAt and leave dst
// untouched. It returns the position after the last row written.
func appendSelected[T any](dst, src []T, c *Column, mask []bool, off int, nullAt func(int)) int {
	j := off
	switch c.Enc {
	case Plain:
		if mask == nil {
			copy(dst[off:], src[:c.Len])
			for i, isNull := range c.Nulls {
				if isNull {
					nullAt(off + i)
				}
			}
			return off + c.Len
		}
		for i, keep := range mask {
			if !keep {
				continue
			}
			if c.Nulls != nil && c.Nulls[i] {
				nullAt(j)
			} else {
				dst[j] = src[i]
			}
			j++
		}
	case Dict:
		for i, code := range c.Codes {
			if mask != nil && !mask[i] {
				continue
			}
			if code == NullIdx {
				nullAt(j)
			} else {
				dst[j] = src[code]
			}
			j++
		}
	case RLE:
		pos := 0
		for _, r := range c.Runs {
			for k := 0; k < int(r.Count); k++ {
				if mask == nil || mask[pos+k] {
					if r.ValIdx == NullIdx {
						nullAt(j)
					} else {
						dst[j] = src[r.ValIdx]
					}
					j++
				}
			}
			pos += int(r.Count)
		}
	}
	return j
}

// allDictParts reports whether every part at ci is Dict.
func allDictParts(parts []Selection, ci int) bool {
	for _, p := range parts {
		if p.Batch.Cols[ci].Enc != Dict {
			return false
		}
	}
	return true
}

// concatDictStrings merges per-part string dictionaries into one and
// translates the selected codes, keeping the column Dict across the
// scan merge. The merged dictionary is heap-owned (it is small and
// shared downstream); the code array comes from the allocator.
func concatDictStrings(al Alloc, m Mem, total int, parts []Selection, ci int) *Column {
	out := &Column{Type: parts[0].Batch.Cols[ci].Type, Len: total, Enc: Dict, Pooled: m.Pooled()}
	codes := al.Uint32s(total)
	var vals []string
	merged := map[string]uint32{}
	off := 0
	for _, p := range parts {
		c := p.Batch.Cols[ci]
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
			if p.Mask != nil && !p.Mask[i] {
				continue
			}
			if code == NullIdx {
				codes[off] = NullIdx
			} else {
				codes[off] = trans[code]
			}
			off++
		}
	}
	out.Codes = codes
	out.Strs = vals
	return out
}
