package vector

import (
	"sync"
	"sync/atomic"
)

// MorselRows is the fixed morsel size of the parallel kernels. It is a
// constant — never derived from the worker count — so the unit of work
// (and therefore every morsel-indexed merge order) is identical no
// matter how many workers execute the plan. That is what makes the
// operators deterministic: worker count changes scheduling, not
// results.
const MorselRows = 4096

// morselCount returns the number of fixed-size morsels covering n rows.
func morselCount(n int) int {
	return (n + MorselRows - 1) / MorselRows
}

// morselBounds returns the [lo, hi) row range of morsel m.
func morselBounds(m, n int) (int, int) {
	lo := m * MorselRows
	hi := lo + MorselRows
	if hi > n {
		hi = n
	}
	return lo, hi
}

// forMorsels fans fn out over the morsels of n rows using at most
// `workers` goroutines. fn receives (worker, morsel, lo, hi); morsels
// are claimed dynamically (work stealing via a shared counter), so a
// given worker's morsel set is scheduling-dependent — callers must
// only produce output that is indexed by morsel or commutative per
// worker. With one worker (or one morsel) everything runs inline on
// the calling goroutine.
func forMorsels(n, workers int, fn func(worker, morsel, lo, hi int)) {
	morsels := morselCount(n)
	if workers > morsels {
		workers = morsels
	}
	if workers <= 1 {
		for m := 0; m < morsels; m++ {
			lo, hi := morselBounds(m, n)
			fn(0, m, lo, hi)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				m := int(next.Add(1)) - 1
				if m >= morsels {
					return
				}
				lo, hi := morselBounds(m, n)
				fn(w, m, lo, hi)
			}
		}(w)
	}
	wg.Wait()
}

// parallelEach runs fn(i) for i in [0, n) over at most `workers`
// goroutines; used for per-column / per-partition fan-out.
func parallelEach(n, workers int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// JoinKind selects the join semantics of HashJoin.
type JoinKind uint8

// Join kinds.
const (
	InnerJoin JoinKind = iota
	LeftOuterJoin
)

// JoinResult is the index-pair outcome of a hash join. Matched pairs
// are ordered by probe (left) row, and for one probe row by build
// (right) row ascending — exactly the order a sequential
// build-then-probe loop produces. LeftOuter lists the probe rows with
// no match (or a NULL key) in ascending order; it is only populated
// for LeftOuterJoin.
type JoinResult struct {
	Left      []int32
	Right     []int32
	LeftOuter []int32
}

// HashJoin executes a typed equi-join between the key columns of two
// batches and returns matched index pairs. The build side (right) is
// hash-partitioned and the partition tables are built in parallel; the
// probe side (left) is split into fixed-size morsels fanned out over
// the worker pool, with per-morsel outputs concatenated in morsel
// order so results are deterministic for any worker count. Rows where
// any key column is NULL never match.
func HashJoin(left, right *Batch, leftKeys, rightKeys []int, kind JoinKind, workers int) (JoinResult, error) {
	return HashJoinWith(Mem{}, left, right, leftKeys, rightKeys, kind, workers)
}

// probeSpan records where one probe morsel's output landed inside its
// worker's scratch buffers, so the final concatenation replays morsel
// order no matter which worker ran which morsel.
type probeSpan struct {
	worker           int32
	pairOff, pairLen int32
	outOff, outLen   int32
}

// probeScratch is one worker's growing probe output. The buffers are
// append-only, so span offsets recorded earlier stay valid across
// regrowth.
type probeScratch struct {
	left, right, outer []int32
}

// HashJoinWith is HashJoin with an explicit memory policy: hashes,
// partition scatter, bucket arrays and outputs come from m's
// allocator, and per-worker scratch buffers replace the old per-morsel
// append-to-nil slices. The build table is an open chain (head per
// bucket + shared next array) instead of per-hash map buckets — same
// candidate set, same order, no map allocation.
func HashJoinWith(m Mem, left, right *Batch, leftKeys, rightKeys []int, kind JoinKind, workers int) (JoinResult, error) {
	if workers < 1 {
		workers = 1
	}
	al := m.Allocator()
	la := make([]keyAccess, len(leftKeys))
	ra := make([]keyAccess, len(rightKeys))
	typesMatch := true
	for i := range leftKeys {
		la[i] = newKeyAccess(al, left.Cols[leftKeys[i]])
		ra[i] = newKeyAccess(al, right.Cols[rightKeys[i]])
		if la[i].c.Type != ra[i].c.Type {
			// Key identity includes the logical type, so differently
			// typed key columns (e.g. INT64 vs FLOAT64) can never
			// produce a match — only LEFT JOIN null-extension survives.
			typesMatch = false
		}
	}

	var out JoinResult
	if !typesMatch || right.N == 0 || left.N == 0 {
		if kind == LeftOuterJoin {
			out.LeftOuter = al.Int32s(left.N)
			for i := range out.LeftOuter {
				out.LeftOuter[i] = int32(i)
			}
		}
		return out, nil
	}

	// Hash both sides' keys (morsel-parallel).
	rh := al.Uint64s(right.N)
	rnull := al.Bools(right.N)
	forMorsels(right.N, workers, func(_, _, lo, hi int) {
		hashKeyRange(ra, rh, rnull, lo, hi)
	})
	lh := al.Uint64s(left.N)
	lnull := al.Bools(left.N)
	forMorsels(left.N, workers, func(_, _, lo, hi int) {
		hashKeyRange(la, lh, lnull, lo, hi)
	})

	// Partitioned build: counting-sort build rows by hash into one flat
	// array (sequential, so each partition keeps ascending row order).
	nPart := 1
	partBits := 0
	for nPart < workers {
		nPart <<= 1
		partBits++
	}
	mask := uint64(nPart - 1)
	cnt := al.Ints(nPart)
	nBuild := 0
	for r := 0; r < right.N; r++ {
		if !rnull[r] {
			cnt[rh[r]&mask]++
			nBuild++
		}
	}
	start := al.Ints(nPart + 1)
	sum := 0
	for p := 0; p < nPart; p++ {
		start[p] = sum
		sum += cnt[p]
		cnt[p] = start[p] // reused as the scatter cursor
	}
	start[nPart] = sum
	flat := al.Int32s(nBuild)
	for r := 0; r < right.N; r++ {
		if rnull[r] {
			continue
		}
		p := rh[r] & mask
		flat[cnt[p]] = int32(r)
		cnt[p]++
	}

	// Per-partition chained tables: a power-of-two head array per
	// partition plus one shared next array indexed by build row
	// (partitions own disjoint row sets, so parallel build is
	// race-free). Rows are inserted in descending order so each
	// push-front chain reads back ascending — preserving the
	// "build rows ascending per probe row" contract. Bucket index
	// uses the hash bits above the partition bits.
	next := al.Int32s(right.N)
	heads := make([][]int32, nPart)
	parallelEach(nPart, workers, func(p int) {
		rows := flat[start[p]:start[p+1]]
		if len(rows) == 0 {
			return
		}
		size := 8
		for size < 2*len(rows) {
			size <<= 1
		}
		h := al.Int32s(size)
		for i := range h {
			h[i] = -1
		}
		bmask := uint64(size - 1)
		for i := len(rows) - 1; i >= 0; i-- {
			r := rows[i]
			b := (rh[r] >> partBits) & bmask
			next[r] = h[b]
			h[b] = r
		}
		heads[p] = h
	})

	// Morsel-parallel probe into per-worker scratch; spans record each
	// morsel's slice of its worker's buffers for in-order assembly.
	spans := make([]probeSpan, morselCount(left.N))
	scratch := make([]probeScratch, workers)
	forMorsels(left.N, workers, func(w, mor, lo, hi int) {
		sc := &scratch[w]
		p0, o0 := len(sc.left), len(sc.outer)
		for l := lo; l < hi; l++ {
			if lnull[l] {
				if kind == LeftOuterJoin {
					sc.outer = appendI32(al, sc.outer, int32(l))
				}
				continue
			}
			h := lh[l]
			matched := false
			if hd := heads[h&mask]; hd != nil {
				b := (h >> partBits) & uint64(len(hd)-1)
				for r := hd[b]; r >= 0; r = next[r] {
					if rh[r] == h && keysEq(la, l, ra, int(r)) {
						sc.left = appendI32(al, sc.left, int32(l))
						sc.right = appendI32(al, sc.right, r)
						matched = true
					}
				}
			}
			if !matched && kind == LeftOuterJoin {
				sc.outer = appendI32(al, sc.outer, int32(l))
			}
		}
		spans[mor] = probeSpan{
			worker:  int32(w),
			pairOff: int32(p0), pairLen: int32(len(sc.left) - p0),
			outOff: int32(o0), outLen: int32(len(sc.outer) - o0),
		}
	})

	var nPairs, nOuter int
	for _, s := range spans {
		nPairs += int(s.pairLen)
		nOuter += int(s.outLen)
	}
	out.Left = al.Int32s(nPairs)
	out.Right = al.Int32s(nPairs)
	if nOuter > 0 {
		out.LeftOuter = al.Int32s(nOuter)
	}
	po, oo := 0, 0
	for _, s := range spans {
		sc := &scratch[s.worker]
		copy(out.Left[po:], sc.left[s.pairOff:s.pairOff+s.pairLen])
		copy(out.Right[po:], sc.right[s.pairOff:s.pairOff+s.pairLen])
		po += int(s.pairLen)
		copy(out.LeftOuter[oo:], sc.outer[s.outOff:s.outOff+s.outLen])
		oo += int(s.outLen)
	}
	return out, nil
}
