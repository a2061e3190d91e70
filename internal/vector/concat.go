package vector

import (
	"fmt"
	"slices"
)

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

// FilterConcatWith is FilterConcatWorkers on one worker, for merges
// that run on their caller's goroutine: a file's row groups (decoded on
// a read track, which are parallel already), Sparkle's, and a Read API
// client's payloads.
func FilterConcatWith(m Mem, parts []Selection) (*Batch, error) {
	out, _, err := FilterConcatWorkers(m, parts, 1)
	return out, err
}

// FilterConcatWorkers filters each part by its window and mask and
// concatenates the survivors, in order — the multi-file scan merge.
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
		if p.N > p.Hi-p.Lo {
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
			parts[i] = Selection{Batch: b, Hi: b.N, N: b.N}
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
		translateCodes(out.Codes[lo:hi], g.trans[t], c.Codes[p.Lo:p.Hi], p.Mask)
	case out.Type == Int64 || out.Type == Timestamp:
		copySelected(out.Ints[lo:hi], c.Ints, c, p.Lo, p.Hi, p.Mask, nullAt)
	case out.Type == Float64:
		copySelected(out.Floats[lo:hi], c.Floats, c, p.Lo, p.Hi, p.Mask, nullAt)
	case out.Type == Bool:
		copySelected(out.Bools[lo:hi], c.Bools, c, p.Lo, p.Hi, p.Mask, nullAt)
	default:
		copySelected(out.Strs[lo:hi], c.Strs, c, p.Lo, p.Hi, p.Mask, nullAt)
	}
	if met {
		g.met[t] = true
	}
}

// copySelected copies the rows of c in [lo, hi) that mask selects (nil:
// every one of them; otherwise indexed from lo) into dst, reading src —
// c's value array, or one indexed like it — through Dict codes and RLE
// runs without an intermediate decode. dst must hold exactly the
// selected rows; every slot is written, a NULL row's with T's zero
// value, and then reported to nullAt.
func copySelected[T any](dst, src []T, c *Column, lo, hi int, mask []bool, nullAt func(int)) {
	var zero T
	j := 0
	switch c.Enc {
	case Plain:
		var nulls []bool
		if c.Nulls != nil {
			nulls = c.Nulls[lo:hi]
		}
		switch {
		case mask == nil:
			copy(dst, src[lo:hi])
			for i, isNull := range nulls {
				if isNull {
					dst[i] = zero
					nullAt(i)
				}
			}
		case nulls == nil:
			compact(dst, src[lo:hi], mask)
		default:
			for i, keep := range mask {
				if !keep {
					continue
				}
				if nulls[i] {
					dst[j] = zero
					nullAt(j)
				} else {
					dst[j] = src[lo+i]
				}
				j++
			}
		}
	case Dict:
		for i, code := range c.Codes[lo:hi] {
			if mask != nil && !mask[i] {
				continue
			}
			if code == NullIdx {
				dst[j] = zero
				nullAt(j)
			} else {
				dst[j] = src[code]
			}
			j++
		}
	case RLE:
		pos := 0
		for _, r := range c.Runs {
			from, to := max(pos, lo), min(pos+int(r.Count), hi)
			pos += int(r.Count)
			for k := from; k < to; k++ {
				if mask != nil && !mask[k-lo] {
					continue
				}
				if r.ValIdx == NullIdx {
					dst[j] = zero
					nullAt(j)
				} else {
					dst[j] = src[r.ValIdx]
				}
				j++
			}
			if pos >= hi {
				break
			}
		}
	}
}

// compact writes the values of src that mask selects into dst, which
// holds exactly that many. Every row is stored and only a selected one
// advances the cursor, so the loop has no branch on the mask for the
// predictor to miss; it stops once dst is full.
func compact[T any](dst, src []T, mask []bool) {
	src = src[:len(mask)]
	j := 0
	for i := 0; i < len(mask) && j < len(dst); i++ {
		dst[j] = src[i]
		j += boolInt(mask[i])
	}
}

// boolInt is 1 for true and 0 for false, without a branch.
func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// translateCodes writes the codes of the rows mask selects (nil: all)
// through trans into dst; NullIdx stays NullIdx.
func translateCodes(dst, trans, codes []uint32, mask []bool) {
	j := 0
	for i, code := range codes {
		if mask != nil && !mask[i] {
			continue
		}
		if code != NullIdx {
			code = trans[code]
		}
		dst[j] = code
		j++
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
