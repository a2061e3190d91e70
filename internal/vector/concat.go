package vector

import (
	"fmt"
	"slices"
)

// FilterConcatWith is FilterConcatWorkers on one worker, for merges
// that run on their caller's goroutine: a file's row groups (decoded on
// a read track, which are parallel already), Sparkle's, and a Read API
// client's payloads.
func FilterConcatWith(m Mem, parts []Selection) (*Batch, error) {
	out, _, err := FilterConcatWorkers(m, parts, 1)
	return out, err
}

// FilterConcatWorkers concatenates the surviving rows of each part, in
// order: a relation made one contiguous batch.
// Each part's first output row is known from the counts before anything
// is copied, so each (column, part) is an independent task that copies
// its part's selected rows into its own range of the column: the tasks
// run over at most workers goroutines (TaskWorkers: only when two of
// them hold a morsel of rows each), and the output is the same at any
// worker count. fanned reports whether they ran on more than one.
//
// Each output array is allocated once from m's allocator — without
// zeroing where the allocator can skip it, since the tasks write every
// slot, NULL slots with the zero value — and every surviving value is
// copied straight into it, expanding Dict codes and RLE runs on the
// way: neither a per-part filtered copy nor a Decode copy is ever made.
// Under a pooled m a string column whose parts are all Dict stays Dict:
// the per-file dictionaries are merged in part order, and the tasks
// translate codes, so strings keep flowing as codes past the scan
// boundary.
//
// Parts without a batch are skipped. Returns (nil, false, nil) when no
// parts remain. When only one part has survivors its rows are gathered
// — the part itself if every row survived, so like any filter result it
// must be treated as immutable.
func FilterConcatWorkers(m Mem, parts []Selection, workers int) (out *Batch, fanned bool, err error) {
	live := make([]mergePart, 0, len(parts))
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
			return nil, false, fmt.Errorf("vector: concat schema mismatch %v vs %v", schema, p.Batch.Schema)
		}
		if p.N > p.Hi-p.Lo || (p.Sel != nil && len(p.Sel) != p.N) {
			return nil, false, fmt.Errorf("vector: %d rows selected from a window of %d", p.N, p.Hi-p.Lo)
		}
		if p.N > 0 {
			live = append(live, mergePart{Selection: p, off: total})
			total += p.N
		}
	}
	switch {
	case !seen:
		return nil, false, nil
	case len(live) == 0:
		return EmptyBatch(schema), false, nil
	case len(live) == 1:
		return filterCounted(m, live[0].Selection), false, nil
	}
	g := scanMerge{parts: live, cols: make([]*Column, len(schema.Fields))}
	al := m.Allocator()
	tasks := len(g.cols) * len(live)
	for ci := range g.cols {
		t := schema.Fields[ci].Type
		out := &Column{Type: t, Len: total, Enc: Plain, Pooled: m.Pooled()}
		g.cols[ci] = out
		if stringType(t) && m.Pooled() && allDictParts(live, ci) {
			out.Enc, out.Codes = Dict, uint32sForOverwrite(al, total)
			out.Strs = g.mergeDicts(al, ci)
			continue
		}
		if anyNulls(live, ci) {
			out.Nulls = al.Bools(total)
			if g.met == nil {
				g.met = al.Bools(tasks)
			}
		}
		switch t {
		case Int64, Timestamp:
			out.Ints = int64sForOverwrite(al, total)
		case Float64:
			out.Floats = float64sForOverwrite(al, total)
		case Bool:
			out.Bools = boolsForOverwrite(al, total)
		case String, Bytes:
			out.Strs = al.Strings(total)
		}
	}
	big := 0
	for _, p := range live {
		if p.Hi-p.Lo >= MorselRows {
			big += len(g.cols)
		}
	}
	if w := TaskWorkers(workers, big); w > 1 {
		shared := g // the goroutines' copy: g itself stays on the stack
		ParallelEach(tasks, w, shared.copyTask)
		fanned = true
	} else {
		for t := 0; t < tasks; t++ {
			g.copyTask(t)
		}
	}
	// A column whose tasks met no NULL has none, as in a serial copy.
	for ci, c := range g.cols {
		if c.Nulls != nil && !slices.Contains(g.met[ci*len(live):(ci+1)*len(live)], true) {
			c.Nulls = nil
		}
	}
	return &Batch{Schema: schema, Cols: g.cols, N: total}, fanned, nil
}

// Concat concatenates whole batches, in order, in one sized pass — a
// client draining a read session decodes every payload, then
// concatenates once. Nil batches are skipped; returns (nil, nil) when
// none is left.
func Concat(batches []*Batch) (*Batch, error) {
	parts := make([]Selection, len(batches))
	for i, b := range batches {
		if b != nil {
			parts[i] = Whole(b)
		}
	}
	return FilterConcatWith(Mem{}, parts)
}

// mergePart is one live part of a merge and the output row its first
// survivor lands on.
type mergePart struct {
	Selection
	off int
}

// scanMerge is one merge's shared state. Task t copies column
// t / len(parts) of part t % len(parts); tasks write disjoint ranges of
// the output arrays and their own slot of met.
type scanMerge struct {
	parts []mergePart
	cols  []*Column
	// trans[ci*len(parts)+p] maps part p's dictionary codes at column ci
	// into the merged dictionary (Dict string columns only).
	trans [][]uint32
	// met[t] records that task t wrote a NULL (nil: no column can hold
	// one).
	met []bool
}

// copyTask copies one column of one part into its range of the output.
func (g *scanMerge) copyTask(t int) {
	ci, pi := t/len(g.parts), t%len(g.parts)
	p := &g.parts[pi]
	c, out := p.Batch.Cols[ci], g.cols[ci]
	lo, hi := p.off, p.off+p.N
	var nulls []bool
	if out.Nulls != nil {
		nulls = out.Nulls[lo:hi]
	}
	met := false
	nullAt := func(i int) { nulls[i], met = true, true }
	switch {
	case out.Enc == Dict:
		translateCodes(out.Codes[lo:hi], g.trans[t], c.Codes, p.Lo, p.Hi, p.Sel)
	case out.Type == Int64 || out.Type == Timestamp:
		copySelected(out.Ints[lo:hi], c.Ints, c, p.Lo, p.Hi, p.Sel, nullAt)
	case out.Type == Float64:
		copySelected(out.Floats[lo:hi], c.Floats, c, p.Lo, p.Hi, p.Sel, nullAt)
	case out.Type == Bool:
		copySelected(out.Bools[lo:hi], c.Bools, c, p.Lo, p.Hi, p.Sel, nullAt)
	default:
		copySelected(out.Strs[lo:hi], c.Strs, c, p.Lo, p.Hi, p.Sel, nullAt)
	}
	if met {
		g.met[t] = true
	}
}

// copySelected copies the rows sel names (ascending rows of c in [lo,
// hi); nil: every one of them) into dst, reading src — c's value
// array, or one indexed like it — through Dict codes and RLE runs
// without an intermediate decode. dst must hold exactly the selected
// rows; every slot is written, a NULL row's with T's zero value, and
// then reported to nullAt. A window of a Plain column is one copy; a
// selection is a gather of its rows.
func copySelected[T any](dst, src []T, c *Column, lo, hi int, sel []int32, nullAt func(int)) {
	var zero T
	switch c.Enc {
	case Plain:
		if sel == nil {
			copy(dst, src[lo:hi])
		} else {
			for k, r := range sel {
				dst[k] = src[r]
			}
		}
		if c.Nulls == nil {
			return
		}
		for k := range dst {
			r := lo + k
			if sel != nil {
				r = int(sel[k])
			}
			if c.Nulls[r] {
				dst[k] = zero
				nullAt(k)
			}
		}
	case Dict:
		if sel == nil {
			sel = rowRange(lo, hi)
		}
		for k, r := range sel {
			if code := c.Codes[r]; code == NullIdx {
				dst[k] = zero
				nullAt(k)
			} else {
				dst[k] = src[code]
			}
		}
	case RLE:
		k, pos := 0, 0
		for _, run := range c.Runs {
			from, to := max(pos, lo), min(pos+int(run.Count), hi)
			pos += int(run.Count)
			// The rows of [from, to) the selection holds: a stretch of
			// sel, which is ascending.
			m := to - from
			if sel != nil {
				m = 0
				for k+m < len(sel) && int(sel[k+m]) < to {
					m++
				}
			}
			for j := k; j < k+m; j++ {
				if run.ValIdx == NullIdx {
					dst[j] = zero
					nullAt(j)
				} else {
					dst[j] = src[run.ValIdx]
				}
			}
			k += max(m, 0)
			if pos >= hi {
				break
			}
		}
	}
}

// translateCodes writes the codes of the rows sel names (nil: every
// row of [lo, hi)) through trans into dst; NullIdx stays NullIdx.
func translateCodes(dst, trans, codes []uint32, lo, hi int, sel []int32) {
	if sel == nil {
		sel = rowRange(lo, hi)
	}
	for k, r := range sel {
		code := codes[r]
		if code != NullIdx {
			code = trans[code]
		}
		dst[k] = code
	}
}

// allDictParts reports whether every part at ci is Dict.
func allDictParts(parts []mergePart, ci int) bool {
	for _, p := range parts {
		if p.Batch.Cols[ci].Enc != Dict {
			return false
		}
	}
	return true
}

// anyNulls reports whether a row of some part's window at ci may be
// NULL: a Plain column with a null array, a Dict column (a code may be
// NullIdx) or an RLE run of NULL.
func anyNulls(parts []mergePart, ci int) bool {
	for _, p := range parts {
		c := p.Batch.Cols[ci]
		switch c.Enc {
		case Plain:
			if c.Nulls != nil {
				return true
			}
		case Dict:
			return true
		case RLE:
			for _, r := range c.Runs {
				if r.ValIdx == NullIdx {
					return true
				}
			}
		}
	}
	return false
}

// mergeDicts merges the parts' string dictionaries at ci into one, in
// part order, and records each part's code translation for the copy
// tasks. The merged dictionary is heap-owned (it is small and shared
// downstream); the translations come from the allocator.
func (g *scanMerge) mergeDicts(al Alloc, ci int) []string {
	if g.trans == nil {
		g.trans = make([][]uint32, len(g.cols)*len(g.parts))
	}
	var vals []string
	merged := map[string]uint32{}
	for pi, p := range g.parts {
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
		g.trans[ci*len(g.parts)+pi] = trans
	}
	return vals
}
