// Package arena provides per-query bump allocators recycled through a
// pool, so the hot execution path (morsel outputs, hash-table buckets,
// group-by state) stops feeding the Go GC. An Arena hands out typed
// slices carved from large slabs; nothing is freed individually —
// Release returns the whole arena to its Pool, where the slabs are
// retained for the next query.
//
// Ownership contract (see DESIGN.md "Memory discipline"): slices handed
// out by an Arena are valid only until Release. Anything that outlives
// the query — result batches crossing the Execute boundary, rows
// buffered by a transaction overlay, pages held by a serve cursor —
// must be deep-copied to the heap first (vector.DetachBatch).
//
// The package is dependency-free on purpose: it implements
// vector.Alloc structurally, avoiding an import cycle, and the engine
// mirrors its stats into the obs registry rather than arena importing
// obs.
package arena

import "sync"

const (
	// minSlabBytes is the smallest slab an allocator type grows by;
	// slabs double up to maxSlabBytes so huge queries amortize the
	// append while small queries stay small.
	minSlabBytes = 64 << 10
	maxSlabBytes = 8 << 20
)

// slab is one contiguous backing array plus a bump cursor.
type slab[T any] struct {
	buf []T
	off int
	// dirty marks a slab that has been reset (recycled): regions
	// carved from it must be cleared to preserve make() semantics.
	// Freshly made slabs are already zero.
	dirty bool
}

// typed is the per-element-type slab list. cur is the first slab that
// may still have room; next is the element count for the next slab.
type typed[T any] struct {
	slabs []slab[T]
	cur   int
	next  int
}

// Arena is a per-query bump allocator. It is safe for concurrent use
// by the worker goroutines of a single query (a mutex guards the bump
// pointers; the carved regions themselves are exclusively owned by the
// caller). All allocation methods return slices with cap == len, or
// nil when n == 0, zeroed like make() — except the ForOverwrite forms,
// which skip the clear for an output the caller writes in full.
type Arena struct {
	mu   sync.Mutex
	i64  typed[int64]
	f64  typed[float64]
	bl   typed[bool]
	str  typed[string]
	i32  typed[int32]
	u32  typed[uint32]
	u64  typed[uint64]
	ints typed[int]

	// bytes is total slab capacity (not live bytes); it only grows
	// until the arena is dropped by the pool.
	bytes int64

	pool *Pool
}

// allocT carves n elements from t. zero clears a region carved from a
// recycled slab; without it the region may hold an earlier query's
// values.
func allocT[T any](a *Arena, t *typed[T], n, elemSize int, zero bool) []T {
	if n == 0 {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	for t.cur < len(t.slabs) {
		s := &t.slabs[t.cur]
		if len(s.buf)-s.off >= n {
			out := s.buf[s.off : s.off+n : s.off+n]
			s.off += n
			if s.dirty && zero {
				clear(out)
			}
			return out
		}
		t.cur++
	}
	size := t.next
	if min := minSlabBytes / elemSize; size < min {
		size = min
	}
	if size < n {
		size = n
	}
	nx := size * 2
	if max := maxSlabBytes / elemSize; nx > max {
		nx = max
	}
	t.next = nx
	buf := make([]T, size)
	a.bytes += int64(size * elemSize)
	t.slabs = append(t.slabs, slab[T]{buf: buf, off: n})
	return buf[:n:n]
}

// resetT rewinds every slab for reuse. clearRefs additionally zeroes
// the slabs eagerly — required for pointer-bearing element types
// (strings) so a retained arena does not pin the old query's data.
func resetT[T any](t *typed[T], clearRefs bool) {
	for i := range t.slabs {
		s := &t.slabs[i]
		if clearRefs {
			clear(s.buf[:s.off])
			s.dirty = false
		} else if s.off > 0 {
			s.dirty = true
		}
		s.off = 0
	}
	t.cur = 0
}

// Int64s returns a zeroed []int64 of length n.
func (a *Arena) Int64s(n int) []int64 { return allocT(a, &a.i64, n, 8, true) }

// Float64s returns a zeroed []float64 of length n.
func (a *Arena) Float64s(n int) []float64 { return allocT(a, &a.f64, n, 8, true) }

// Bools returns a zeroed []bool of length n.
func (a *Arena) Bools(n int) []bool { return allocT(a, &a.bl, n, 1, true) }

// Strings returns a zeroed []string of length n. The header array is
// arena memory; the string contents referenced later are whatever the
// caller stores (usually dictionary entries owned by the heap).
func (a *Arena) Strings(n int) []string { return allocT(a, &a.str, n, 16, true) }

// Int32s returns a zeroed []int32 of length n.
func (a *Arena) Int32s(n int) []int32 { return allocT(a, &a.i32, n, 4, true) }

// Uint32s returns a zeroed []uint32 of length n.
func (a *Arena) Uint32s(n int) []uint32 { return allocT(a, &a.u32, n, 4, true) }

// Uint64s returns a zeroed []uint64 of length n.
func (a *Arena) Uint64s(n int) []uint64 { return allocT(a, &a.u64, n, 8, true) }

// Ints returns a zeroed []int of length n.
func (a *Arena) Ints(n int) []int { return allocT(a, &a.ints, n, 8, true) }

// The ForOverwrite forms return a slice of length n (cap == len, nil
// when n == 0) that is not zeroed: carved from a recycled slab, it may
// hold an earlier query's values. They are for an output its caller
// writes in full before anything reads it — the scan merge's columns —
// and spare it the clear a recycled slab otherwise costs.

// Int64sForOverwrite returns an unzeroed []int64 of length n.
func (a *Arena) Int64sForOverwrite(n int) []int64 { return allocT(a, &a.i64, n, 8, false) }

// Float64sForOverwrite returns an unzeroed []float64 of length n.
func (a *Arena) Float64sForOverwrite(n int) []float64 { return allocT(a, &a.f64, n, 8, false) }

// BoolsForOverwrite returns an unzeroed []bool of length n.
func (a *Arena) BoolsForOverwrite(n int) []bool { return allocT(a, &a.bl, n, 1, false) }

// Uint32sForOverwrite returns an unzeroed []uint32 of length n.
func (a *Arena) Uint32sForOverwrite(n int) []uint32 { return allocT(a, &a.u32, n, 4, false) }

// Int32sForOverwrite returns an unzeroed []int32 of length n.
func (a *Arena) Int32sForOverwrite(n int) []int32 { return allocT(a, &a.i32, n, 4, false) }

// Pooled reports that slices from this allocator are recycled —
// consumers must detach (deep-copy) anything that outlives the query.
func (a *Arena) Pooled() bool { return true }

// Bytes returns the total slab capacity owned by the arena.
func (a *Arena) Bytes() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.bytes
}

// tailBytes reports the byte size of a typed list's last slab (0 when
// the list is empty).
func tailBytes[T any](t *typed[T], elemSize int) int64 {
	if len(t.slabs) == 0 {
		return 0
	}
	return int64(len(t.slabs[len(t.slabs)-1].buf) * elemSize)
}

// dropTail releases a typed list's last slab to the GC.
func dropTail[T any](a *Arena, t *typed[T], elemSize int) {
	n := len(t.slabs)
	if n == 0 {
		return
	}
	a.bytes -= int64(len(t.slabs[n-1].buf) * elemSize)
	t.slabs[n-1] = slab[T]{}
	t.slabs = t.slabs[:n-1]
}

// trim releases slabs — largest trailing slab first, across all element
// types — until total capacity is at most max. Called by the pool on
// oversized arenas so one huge query sheds its peak without throwing
// away the warm slabs every normal query needs.
func (a *Arena) trim(max int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for a.bytes > max {
		best, bestBytes := -1, int64(0)
		consider := func(i int, b int64) {
			if b > bestBytes {
				best, bestBytes = i, b
			}
		}
		consider(0, tailBytes(&a.i64, 8))
		consider(1, tailBytes(&a.f64, 8))
		consider(2, tailBytes(&a.bl, 1))
		consider(3, tailBytes(&a.str, 16))
		consider(4, tailBytes(&a.i32, 4))
		consider(5, tailBytes(&a.u32, 4))
		consider(6, tailBytes(&a.u64, 8))
		consider(7, tailBytes(&a.ints, 8))
		switch best {
		case 0:
			dropTail(a, &a.i64, 8)
		case 1:
			dropTail(a, &a.f64, 8)
		case 2:
			dropTail(a, &a.bl, 1)
		case 3:
			dropTail(a, &a.str, 16)
		case 4:
			dropTail(a, &a.i32, 4)
		case 5:
			dropTail(a, &a.u32, 4)
		case 6:
			dropTail(a, &a.u64, 8)
		case 7:
			dropTail(a, &a.ints, 8)
		default:
			return
		}
	}
}

// reset rewinds every allocator for the next query. String slabs are
// cleared eagerly so retained arenas do not pin result data.
func (a *Arena) reset() {
	a.mu.Lock()
	defer a.mu.Unlock()
	resetT(&a.i64, false)
	resetT(&a.f64, false)
	resetT(&a.bl, false)
	resetT(&a.str, true)
	resetT(&a.i32, false)
	resetT(&a.u32, false)
	resetT(&a.u64, false)
	resetT(&a.ints, false)
}

// Release returns the arena to its pool (no-op for pool-less arenas,
// which exist only in tests). The caller must not touch any slice
// obtained from the arena afterwards.
func (a *Arena) Release() {
	if a.pool != nil {
		a.pool.Put(a)
	}
}

// New returns a standalone arena (not attached to a pool); mostly for
// tests. Production arenas come from Pool.Get.
func New() *Arena { return &Arena{} }

// Pool recycles arenas across queries. Get prefers a retained arena
// (its slabs are already sized for the workload); Put rewinds the
// arena and retains it unless the pool is full or the arena grew past
// the per-arena retention cap.
type Pool struct {
	mu       sync.Mutex
	free     []*Arena
	retained int64
	recycled int64
	dropped  int64

	// MaxIdle bounds the free list; MaxArenaBytes drops arenas that
	// grew beyond it (a pathological query should not pin slabs
	// forever). Both are fixed at construction.
	maxIdle       int
	maxArenaBytes int64
}

// DefaultRetainBytes is the per-arena slab retention cap of NewPool.
const DefaultRetainBytes = 64 << 20

// NewPool returns a pool retaining up to 8 idle arenas of at most
// DefaultRetainBytes each.
func NewPool() *Pool {
	return NewPoolSized(8, DefaultRetainBytes)
}

// NewPoolSized returns a pool with explicit retention bounds. Sizing
// maxArenaBytes to the workload's per-query peak (engine
// Options.ArenaRetainBytes) keeps even the largest queries fully
// recycled; non-positive values fall back to the defaults.
func NewPoolSized(maxIdle int, maxArenaBytes int64) *Pool {
	if maxIdle <= 0 {
		maxIdle = 8
	}
	if maxArenaBytes <= 0 {
		maxArenaBytes = DefaultRetainBytes
	}
	return &Pool{maxIdle: maxIdle, maxArenaBytes: maxArenaBytes}
}

// Get returns an arena ready for a query: recycled if one is retained,
// fresh otherwise.
func (p *Pool) Get() *Arena {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.free); n > 0 {
		a := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		p.retained -= a.bytes
		p.recycled++
		return a
	}
	return &Arena{pool: p}
}

// Put rewinds the arena and retains it for the next Get. An arena
// that grew past the retention cap is trimmed back down (shedding its
// largest slabs) rather than discarded, so a single huge query does
// not cost every later query its warm slabs; overflow beyond MaxIdle
// is dropped to the GC.
func (p *Pool) Put(a *Arena) {
	if a == nil {
		return
	}
	a.reset()
	if a.Bytes() > p.maxArenaBytes {
		a.trim(p.maxArenaBytes)
	}
	sz := a.Bytes()
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.free) >= p.maxIdle {
		p.dropped++
		return
	}
	p.free = append(p.free, a)
	p.retained += sz
}

// Stats is a point-in-time snapshot of pool behavior, mirrored into
// the obs registry by the engine (arena.bytes_in_use, arena.recycled).
type Stats struct {
	// BytesRetained is slab capacity currently held by idle arenas.
	BytesRetained int64
	// Idle is the number of arenas on the free list.
	Idle int64
	// Recycled counts Gets served by a retained arena.
	Recycled int64
	// Dropped counts arenas released to the GC at Put.
	Dropped int64
}

// Stats returns current pool counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return Stats{
		BytesRetained: p.retained,
		Idle:          int64(len(p.free)),
		Recycled:      p.recycled,
		Dropped:       p.dropped,
	}
}
