package vector

import "strings"

// Alloc hands out typed scratch slices for the execution kernels. The
// production implementation is *arena.Arena (matched structurally to
// avoid an import cycle); Heap is the fallback that preserves the
// pre-arena make() behavior. Implementations must return zeroed
// slices with cap == len, or nil when n == 0.
type Alloc interface {
	Int64s(n int) []int64
	Float64s(n int) []float64
	Bools(n int) []bool
	Strings(n int) []string
	Int32s(n int) []int32
	Uint32s(n int) []uint32
	Uint64s(n int) []uint64
	Ints(n int) []int
	// Pooled reports whether slices are recycled after the query:
	// kernels mark output columns Pooled so escape points know to
	// detach them.
	Pooled() bool
}

type heapAlloc struct{}

func (heapAlloc) Int64s(n int) []int64 {
	if n == 0 {
		return nil
	}
	return make([]int64, n)
}

func (heapAlloc) Float64s(n int) []float64 {
	if n == 0 {
		return nil
	}
	return make([]float64, n)
}

func (heapAlloc) Bools(n int) []bool {
	if n == 0 {
		return nil
	}
	return make([]bool, n)
}

func (heapAlloc) Strings(n int) []string {
	if n == 0 {
		return nil
	}
	return make([]string, n)
}

func (heapAlloc) Int32s(n int) []int32 {
	if n == 0 {
		return nil
	}
	return make([]int32, n)
}

func (heapAlloc) Uint32s(n int) []uint32 {
	if n == 0 {
		return nil
	}
	return make([]uint32, n)
}

func (heapAlloc) Uint64s(n int) []uint64 {
	if n == 0 {
		return nil
	}
	return make([]uint64, n)
}

func (heapAlloc) Ints(n int) []int {
	if n == 0 {
		return nil
	}
	return make([]int, n)
}

func (heapAlloc) Pooled() bool { return false }

// Heap is the allocator used when no arena is attached.
var Heap Alloc = heapAlloc{}

// overwriter is an allocator that can hand out a slice without zeroing
// it, for an output its caller writes in full before anything reads it
// (*arena.Arena: a recycled slab's clear is skipped).
type overwriter interface {
	Int64sForOverwrite(n int) []int64
	Float64sForOverwrite(n int) []float64
	BoolsForOverwrite(n int) []bool
	Uint32sForOverwrite(n int) []uint32
	Int32sForOverwrite(n int) []int32
}

// int64sForOverwrite returns n int64s from al for an output the caller
// writes in full: unzeroed when al can skip the clear.
func int64sForOverwrite(al Alloc, n int) []int64 {
	if o, ok := al.(overwriter); ok {
		return o.Int64sForOverwrite(n)
	}
	return al.Int64s(n)
}

// float64sForOverwrite is int64sForOverwrite for float64s.
func float64sForOverwrite(al Alloc, n int) []float64 {
	if o, ok := al.(overwriter); ok {
		return o.Float64sForOverwrite(n)
	}
	return al.Float64s(n)
}

// boolsForOverwrite is int64sForOverwrite for bools.
func boolsForOverwrite(al Alloc, n int) []bool {
	if o, ok := al.(overwriter); ok {
		return o.BoolsForOverwrite(n)
	}
	return al.Bools(n)
}

// uint32sForOverwrite is int64sForOverwrite for uint32s.
func uint32sForOverwrite(al Alloc, n int) []uint32 {
	if o, ok := al.(overwriter); ok {
		return o.Uint32sForOverwrite(n)
	}
	return al.Uint32s(n)
}

// int32sForOverwrite is int64sForOverwrite for int32s.
func int32sForOverwrite(al Alloc, n int) []int32 {
	if o, ok := al.(overwriter); ok {
		return o.Int32sForOverwrite(n)
	}
	return al.Int32s(n)
}

// Mem is the memory policy a query threads through the kernels: where
// scratch and outputs come from. A pooled allocator also selects late
// materialization — dictionary columns stay encoded through
// gather/join/group and decode at result emission. The zero value
// allocates from the heap and decodes eagerly.
type Mem struct {
	Al Alloc
}

// Allocator returns the active allocator, defaulting to Heap.
func (m Mem) Allocator() Alloc {
	if m.Al == nil {
		return Heap
	}
	return m.Al
}

// Pooled reports whether the allocator recycles its slices after the
// query: kernel outputs must be marked Column.Pooled, and dictionary
// columns stay encoded.
func (m Mem) Pooled() bool { return m.Al != nil && m.Al.Pooled() }

// appendI32 appends v to s, growing through al with doubling so the
// hot probe loops never touch the heap once warm.
func appendI32(al Alloc, s []int32, v int32) []int32 {
	if len(s) == cap(s) {
		ncap := cap(s) * 2
		if ncap < 64 {
			ncap = 64
		}
		ns := al.Int32s(ncap)[:len(s)]
		copy(ns, s)
		s = ns
	}
	return append(s, v)
}

// strBuf packs a column's strings into one allocation. Grown to their
// total size up front the builder never moves, so every cut is a view
// of the one buffer: the strings cost one allocation, not one each,
// and live and die together.
type strBuf struct {
	sb  strings.Builder
	off int
}

// cut returns what was written to sb since the last cut.
func (b *strBuf) cut() string {
	s := b.sb.String()[b.off:]
	b.off += len(s)
	return s
}

// DetachColumn returns a column whose backing arrays are heap-owned:
// pooled (arena-backed) columns are deep-copied, everything else is
// returned as-is. This is the copy-out at every boundary where data
// outlives the query arena (Execute results, txn insert buffers,
// serve cursor pages). The copy is deep for strings too: a decoded
// column's strings share one buffer (DecodeColumn), and the rows a
// query gathered out of a scan-cache entry would otherwise pin that
// entry's whole buffer for as long as the result is held. A Dict
// column with fewer rows than dictionary entries — a pooled gather
// shares its source's whole dictionary — is detached as its values, so
// a one-row answer never copies a thousand-entry dictionary.
func DetachColumn(c *Column) *Column {
	if c == nil || !c.Pooled {
		return c
	}
	if c.Enc == Dict && c.Len < len(c.Ints)+len(c.Floats)+len(c.Bools)+len(c.Strs) {
		out := c.Decode() // heap arrays of c.Len values
		ownStrings(out.Strs, out.Strs)
		return out
	}
	out := *c
	out.Pooled = false
	if c.Nulls != nil {
		out.Nulls = append([]bool(nil), c.Nulls...)
	}
	if c.Ints != nil {
		out.Ints = append([]int64(nil), c.Ints...)
	}
	if c.Floats != nil {
		out.Floats = append([]float64(nil), c.Floats...)
	}
	if c.Bools != nil {
		out.Bools = append([]bool(nil), c.Bools...)
	}
	if c.Strs != nil {
		out.Strs = make([]string, len(c.Strs))
		ownStrings(out.Strs, c.Strs)
	}
	if c.Codes != nil {
		out.Codes = append([]uint32(nil), c.Codes...)
	}
	if c.Runs != nil {
		out.Runs = append([]Run(nil), c.Runs...)
	}
	return &out
}

// ownStrings sets dst[i] to a copy of src[i], every copy cut from one
// new buffer; dst may be src.
func ownStrings(dst, src []string) {
	total := 0
	for _, s := range src {
		total += len(s)
	}
	var buf strBuf
	buf.sb.Grow(total)
	for i, s := range src {
		buf.sb.WriteString(s)
		dst[i] = buf.cut()
	}
}

// DetachBatch deep-copies any pooled columns so the batch is safe to
// retain after the query's arena is recycled. Batches with no pooled
// columns are returned unchanged.
func DetachBatch(b *Batch) *Batch {
	if b == nil {
		return nil
	}
	any := false
	for _, c := range b.Cols {
		if c != nil && c.Pooled {
			any = true
			break
		}
	}
	if !any {
		return b
	}
	cols := make([]*Column, len(b.Cols))
	for i, c := range b.Cols {
		cols[i] = DetachColumn(c)
	}
	return &Batch{Schema: b.Schema, Cols: cols, N: b.N}
}
