package vector

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Selection is one piece of a relation: a batch, the window [Lo, Hi)
// of its rows the piece ranges over and, when not every window row
// survives, the surviving rows themselves — what a scan hands on for
// one file before anything is copied. A relation is a slice of pieces
// in order; its positions number the surviving rows piece after piece,
// so position off(p) + k is row Rows(k) of piece p, where off(p) is the
// number of rows the pieces before p hold. A contiguous batch is the
// one-piece relation Whole(b): every kernel reads its inputs through
// pieces, and a batch is no special case.
//
// The batch of a piece may be shared and immutable (a scan-cache
// entry's resident columns); a piece only ever reads it, and holding
// the piece keeps its arrays reachable after the cache lets them go.
type Selection struct {
	Batch *Batch
	// Lo and Hi bound the window of Batch's rows the piece ranges over.
	Lo, Hi int
	// Sel holds the surviving rows of the window, ascending, when a
	// predicate ran over it (nil: every window row survives). The
	// predicate kernels write it directly (SelectConst).
	Sel []int32
	N   int // surviving rows: len(Sel), or Hi - Lo
}

// Whole is the one-piece selection of every row of b.
func Whole(b *Batch) Selection {
	return Selection{Batch: b, Hi: b.N, N: b.N}
}

// Window is the selection of b's rows [lo, hi), and sel, when given,
// the ascending rows of it that survive; a sel that holds every row is
// dropped.
func Window(b *Batch, lo, hi int, sel []int32) (Selection, error) {
	if lo < 0 || lo > hi || hi > b.N {
		return Selection{}, fmt.Errorf("vector: window [%d, %d) of a %d-row batch", lo, hi, b.N)
	}
	if sel == nil || len(sel) == hi-lo {
		return Selection{Batch: b, Lo: lo, Hi: hi, N: hi - lo}, nil
	}
	if len(sel) > hi-lo {
		return Selection{}, fmt.Errorf("vector: %d rows selected from a window of %d", len(sel), hi-lo)
	}
	return Selection{Batch: b, Lo: lo, Hi: hi, Sel: sel, N: len(sel)}, nil
}

// Rows returns the batch rows of the piece's positions [a, b): a slice
// of Sel, or of the shared identity for a window. Read only.
func (s *Selection) Rows(a, b int) []int32 {
	if s.Sel != nil {
		return s.Sel[a:b]
	}
	return rowRange(s.Lo+a, s.Lo+b)
}

// Count returns the rows a relation holds.
func Count(in []Selection) int {
	n := 0
	for i := range in {
		n += in[i].N
	}
	return n
}

// identRows holds 0, 1, 2, … — the rows of a window, read through the
// same kind of slice as a selection's. It grows up to identCap rows,
// and a grown copy is published whole, so a reader never sees a partly
// written one.
var (
	identRows atomic.Pointer[[]int32]
	identMu   sync.Mutex
)

// identCap bounds the shared rows (1 MiB of them), so a process holds
// no more however large a batch it has read: a window reaching past it
// reads rows made for the call, which go when the caller drops them.
const identCap = 1 << 18

// identity returns the rows 0..n-1.
func identity(n int) []int32 { return rowRange(0, n) }

// rowRange returns the rows lo..hi-1. Read only.
func rowRange(lo, hi int) []int32 {
	if hi > identCap {
		rows := make([]int32, hi-lo)
		for i := range rows {
			rows[i] = int32(lo + i)
		}
		return rows
	}
	if p := identRows.Load(); p != nil && len(*p) >= hi {
		return (*p)[lo:hi]
	}
	identMu.Lock()
	defer identMu.Unlock()
	old := identRows.Load()
	if old != nil && len(*old) >= hi {
		return (*old)[lo:hi]
	}
	size := max(hi, MorselRows)
	if old != nil {
		size = max(size, 2*len(*old))
	}
	rows := make([]int32, min(size, identCap))
	for i := range rows {
		rows[i] = int32(i)
	}
	identRows.Store(&rows)
	return rows[lo:hi]
}

// layout is a kernel's map of a relation: where each piece's positions
// start, and its morsels. A morsel is at most MorselRows positions of
// one piece, a piece's morsels numbered after the earlier pieces', so
// the morsels — and every merge indexed by them — are a function of the
// relation alone, whatever the worker count.
type layout struct {
	in      []Selection
	off     []int // per piece and one past the last: the first position
	first   []int // per piece and one past the last: the first morsel
	n       int
	morsels int
}

// newLayout maps in, its bookkeeping drawn from al.
func newLayout(al Alloc, in []Selection) layout {
	l := layout{in: in, off: al.Ints(len(in) + 1), first: al.Ints(len(in) + 1)}
	for p := range in {
		l.off[p], l.first[p] = l.n, l.morsels
		l.n += in[p].N
		l.morsels += morselCount(in[p].N)
	}
	l.off[len(in)], l.first[len(in)] = l.n, l.morsels
	return l
}

// bounds returns morsel m's piece and its positions [lo, hi).
func (l *layout) bounds(m int) (p, lo, hi int) {
	p = l.pieceOf(l.first, m)
	lo = l.off[p] + (m-l.first[p])*MorselRows
	return p, lo, min(lo+MorselRows, l.off[p+1])
}

// pieceOf returns the piece whose range of starts (off or first) holds
// x: the last p with starts[p] <= x, which skips the empty pieces
// before it.
func (l *layout) pieceOf(starts []int, x int) int {
	lo, hi := 0, len(l.in)-1
	for lo < hi {
		m := int(uint(lo+hi+1) >> 1)
		if starts[m] <= x {
			lo = m
		} else {
			hi = m - 1
		}
	}
	return lo
}

// rows returns piece p's batch rows at positions [lo, hi).
func (l *layout) rows(p, lo, hi int) []int32 {
	return l.in[p].Rows(lo-l.off[p], hi-l.off[p])
}

// locate returns the piece and the batch row at position pos.
func (l *layout) locate(pos int) (p int, row int32) {
	p = l.pieceOf(l.off, pos)
	return p, l.rows(p, pos, pos+1)[0]
}

// forPieces fans fn out over the morsels of l using at most workers
// goroutines; fn receives (worker, morsel, piece, lo, hi), [lo, hi) the
// morsel's positions. Morsels are claimed dynamically (work stealing via
// a shared counter), so a given worker's morsel set is
// scheduling-dependent — callers must only produce output that is
// indexed by morsel or commutative per worker. With one worker (or one
// morsel) everything runs inline on the calling goroutine.
func forPieces(l *layout, workers int, fn func(worker, morsel, p, lo, hi int)) {
	if workers > l.morsels {
		workers = l.morsels
	}
	if workers <= 1 {
		for m := 0; m < l.morsels; m++ {
			p, lo, hi := l.bounds(m)
			fn(0, m, p, lo, hi)
		}
		return
	}
	fanOut(workers, &fanRun{tasks: l.morsels, layout: *l, piece: fn})
}

// Extend is a join's output when every position of the relation in
// matched one build row, match[pos]: the pieces of in, each over a batch
// of its own columns followed by the build columns gathered into its
// rows, named by schema. A build column lands in a piece's own row
// space, so the piece's selection reads it as it reads the piece's
// columns; a Dict column's rows the piece does not hold read as NULL,
// and no other such row is ever read. A piece that holds under a
// quarter of its batch's rows is first gathered into a batch of its
// own (sparsePiece), so a build column never spans more than four slots
// per row it holds; every other piece's columns are handed on uncopied.
// The pieces' batches, their column lists and the gathered columns are
// allocated once for all the pieces, and each piece is a task of its
// own, the tasks run over at most workers goroutines (TaskWorkers: only
// when two pieces hold a morsel of rows each).
func Extend(m Mem, in []Selection, build []*Column, match []int32, schema Schema, workers int) []Selection {
	width := len(schema.Fields)
	batches := make([]Batch, len(in))
	cols := make([]*Column, len(in)*width)
	gathered := make([]Column, len(in)*len(build))
	out := make([]Selection, len(in))
	big := 0
	for p, s := range in {
		out[p] = s
		if s.N >= MorselRows {
			big++
		}
	}
	l := newLayout(m.Allocator(), in)
	ParallelEach(len(in), TaskWorkers(workers, big), func(p int) {
		s := &out[p]
		if s.N*sparsePiece < s.Batch.N {
			*s = Whole(filterCounted(m, *s))
		}
		pc := cols[p*width : (p+1)*width : (p+1)*width]
		nl, at := copy(pc, s.Batch.Cols), pieceStart(l.off[p], p)
		for i, c := range build {
			g := &gathered[p*len(build)+i]
			gatherNullInto(m, g, c, match[at:at+s.N], s.Rows(0, s.N), s.Batch.N)
			pc[nl+i] = g
		}
		batches[p] = Batch{Schema: schema, Cols: pc, N: s.Batch.N}
		s.Batch = &batches[p]
	})
	return out
}

// sparsePiece is the share of its batch's rows, 1 in sparsePiece, below
// which Extend gathers a piece before it extends it.
const sparsePiece = 4

// Take gathers the columns cols of the relation in — each its column in
// in's first piece, read at the same position in every piece — at the
// positions pos, in pos's order: a top-K's winners, a grouping's first
// rows. Only those rows are read, through their pieces. A Dict column
// whose pieces share one dictionary stays Dict under a pooled m, its
// codes gathered; any other comes out plain.
func Take(m Mem, in []Selection, cols []*Column, pos []int32) []*Column {
	al := m.Allocator()
	l := newLayout(al, in)
	n := len(pos)
	ps, rs := al.Int32s(n), al.Int32s(n)
	for k, x := range pos {
		p, r := l.locate(int(x))
		ps[k], rs[k] = int32(p), r
	}
	out := make([]*Column, len(cols))
	taken := make([]Column, len(cols))
	for i, c := range cols {
		ci, o := argOf(in, c), &taken[i]
		out[i] = o
		if m.Pooled() && c.Enc == Dict && oneDict(in, ci) {
			*o = Column{Type: c.Type, Len: n, Enc: Dict, Pooled: true, Ints: c.Ints, Floats: c.Floats, Bools: c.Bools, Strs: c.Strs}
			o.Codes = uint32sForOverwrite(al, n)
			for k := range pos {
				o.Codes[k] = in[ps[k]].Batch.Cols[ci].Codes[rs[k]]
			}
			continue
		}
		*o = Column{Type: c.Type, Len: n, Enc: Plain, Pooled: m.Pooled()}
		setNull := func(k int) {
			if o.Nulls == nil {
				o.Nulls = al.Bools(n)
			}
			o.Nulls[k] = true
		}
		switch c.Type {
		case Int64, Timestamp:
			o.Ints = al.Int64s(n)
			takeVals(o.Ints, intVals, in, ci, ps, rs, setNull)
		case Float64:
			o.Floats = al.Float64s(n)
			takeVals(o.Floats, floatVals, in, ci, ps, rs, setNull)
		case Bool:
			o.Bools = al.Bools(n)
			takeVals(o.Bools, boolVals, in, ci, ps, rs, setNull)
		case String, Bytes:
			o.Strs = al.Strings(n)
			takeVals(o.Strs, strVals, in, ci, ps, rs, setNull)
		}
	}
	return out
}

// A column's value arrays, by type.
func floatVals(c *Column) []float64 { return c.Floats }
func boolVals(c *Column) []bool     { return c.Bools }
func strVals(c *Column) []string    { return c.Strs }

// takeVals writes dst[k] = the value of row rs[k] of column ci of piece
// ps[k], read through vals; a NULL goes to setNull.
func takeVals[T any](dst []T, vals func(*Column) []T, in []Selection, ci int, ps, rs []int32, setNull func(int)) {
	for k := range dst {
		c := in[ps[k]].Batch.Cols[ci]
		if vi := c.valIdxOf(int(rs[k])); vi == NullIdx {
			setNull(k)
		} else {
			dst[k] = vals(c)[vi]
		}
	}
}
