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

// TaskWorkers returns how many of workers a stage of tasks runs on,
// given how many of its tasks hold a morsel (MorselRows rows compared or
// copied) of work each. Smaller tasks ride along but are never a reason
// to fan out: a stage with fewer than two morsel-sized tasks — a point
// lookup's window, a table of small files — runs on its caller's
// goroutine (1), where a goroutine would cost more than it saves.
func TaskWorkers(workers, big int) int {
	if big < 2 {
		return 1
	}
	return min(workers, big)
}

// ParallelEach runs fn(i) for i in [0, n) over at most `workers`
// goroutines, which claim indices in order; used for per-column /
// per-partition / per-file fan-out. With one worker (or one index)
// everything runs inline on the calling goroutine.
func ParallelEach(n, workers int, fn func(i int)) {
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

// JoinStrategy names the probe a join ran. The data selects it, never
// an option, and every strategy returns the same pairs.
type JoinStrategy uint8

// Join strategies.
const (
	// JoinGeneral is the chained probe: a probe row may match any
	// number of build rows.
	JoinGeneral JoinStrategy = iota
	// JoinN1 is the probe over a build side on which no two rows share
	// a key: one match slot per probe row, written in place.
	JoinN1
)

func (s JoinStrategy) String() string {
	if s == JoinN1 {
		return "n1"
	}
	return "general"
}

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
	// LeftIdentity reports that every probe row matched exactly one
	// build row, so pair i is (i, Right[i]). HashJoinWith then leaves
	// Left nil rather than materialising 0..n-1: a caller can keep the
	// probe side's columns as they are.
	LeftIdentity bool
	Strategy     JoinStrategy
	// intKey marks the typed single-key form of JoinN1 (tests assert
	// each path is reached).
	intKey bool
}

// HashJoin executes a typed equi-join between the key columns of two
// batches and returns matched index pairs: HashJoinWith on the heap.
// The build side (right) is hash-partitioned and the partition tables
// are built in parallel; the probe side (left) is split into fixed-size
// morsels fanned out over the worker pool, with per-morsel outputs
// placed in morsel order so results are deterministic for any worker
// count. Rows where any key column is NULL never match.
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

// HashJoinWith is the hash join with an explicit memory policy: hashes,
// partition scatter, bucket arrays and outputs come from m's
// allocator. The build table is an open chain (head per bucket +
// shared next array); building it also learns whether any two build
// rows share a key. When none do (the N:1 shape of a fact-to-dimension
// join) each probe row has at most one match, so the probe writes one
// slot per row in place — no per-worker scratch, no stitching — and
// compacts only if some row missed. A single plain non-null
// Int64/Timestamp key skips the hash and null arrays too. Duplicate
// build keys take the general chained probe. All of them return the
// same JoinResult; only LeftIdentity and Strategy say which ran.
func HashJoinWith(m Mem, left, right *Batch, leftKeys, rightKeys []int, kind JoinKind, workers int) (JoinResult, error) {
	if workers < 1 {
		workers = 1
	}
	al := m.Allocator()
	if len(leftKeys) == 1 && left.N > 0 && right.N > 0 {
		if lc, rc := left.Cols[leftKeys[0]], right.Cols[rightKeys[0]]; plainIntKey(lc) && plainIntKey(rc) && lc.Type == rc.Type {
			if out, ok := joinN1Ints(al, lc.Ints, rc.Ints, kind, workers); ok {
				return out, nil
			}
		}
	}
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
	// uses the hash bits above the partition bits. Equal keys hash to
	// one partition and one bucket, so walking the chain a row is about
	// to join finds any earlier row with its key; a partition stops
	// looking at its first duplicate.
	next := al.Int32s(right.N)
	heads := make([][]int32, nPart)
	dup := al.Bools(nPart)
	ParallelEach(nPart, workers, func(p int) {
		rows := flat[start[p]:start[p+1]]
		if len(rows) == 0 {
			return
		}
		size := 8
		for size < 2*len(rows) {
			size <<= 1
		}
		h := emptyTable(al, size)
		bmask := uint64(size - 1)
		seen := false
		for i := len(rows) - 1; i >= 0; i-- {
			r := rows[i]
			b := (rh[r] >> partBits) & bmask
			for c := h[b]; c >= 0 && !seen; c = next[c] {
				seen = rh[c] == rh[r] && keysEq(ra, int(c), ra, int(r))
			}
			next[r] = h[b]
			h[b] = r
		}
		heads[p], dup[p] = h, seen
	})
	unique := true
	for _, d := range dup {
		unique = unique && !d
	}

	if unique {
		// N:1 probe: the first hit is the only hit.
		match := al.Int32s(left.N)
		misses := al.Ints(morselCount(left.N))
		forMorsels(left.N, workers, func(_, mor, lo, hi int) {
			miss := 0
			for l := lo; l < hi; l++ {
				r := int32(-1)
				if !lnull[l] {
					h := lh[l]
					if hd := heads[h&mask]; hd != nil {
						for c := hd[(h>>partBits)&uint64(len(hd)-1)]; c >= 0; c = next[c] {
							if rh[c] == h && keysEq(la, l, ra, int(c)) {
								r = c
								break
							}
						}
					}
				}
				match[l] = r
				if r < 0 {
					miss++
				}
			}
			misses[mor] = miss
		})
		return finishN1(al, match, misses, kind, workers), nil
	}

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

// plainIntKey reports whether c is a key the typed kernels read as a
// bare []int64: plain, integer-family, no NULLs.
func plainIntKey(c *Column) bool {
	return c.Enc == Plain && c.Nulls == nil && (c.Type == Int64 || c.Type == Timestamp)
}

// intSlot is the table hash of the typed integer kernels: the two
// halves folded, one Fibonacci multiply, the product's upper half
// (callers mask it to their table). A third the cost of mix64 on the
// probe's critical path, and consecutive keys — what a dimension's
// surrogate key is — land almost collision-free. The tables compare
// values exactly, so a weaker hash can only cost probes, never change a
// result.
func intSlot(v int64) uint64 {
	x := uint64(v)
	x ^= x >> 32
	return (x * 0x9e3779b97f4a7c15) >> 32
}

// joinN1Ints is the N:1 join on one plain non-null integer key: an
// open-addressing table of build rows keyed by the value itself, the
// hash computed inline, no hash or null arrays. ok is false when two
// build rows share a key (the caller takes the general path). The
// sequential branch exists so that one worker probes closure-free: an
// all-match join then allocates nothing outside al.
func joinN1Ints(al Alloc, lv, rv []int64, kind JoinKind, workers int) (JoinResult, bool) {
	size := 8
	for size < 2*len(rv) {
		size <<= 1
	}
	tab := emptyTable(al, size)
	mask := uint64(size - 1)
	for r, v := range rv {
		s := intSlot(v) & mask
		for tab[s] >= 0 {
			if rv[tab[s]] == v {
				return JoinResult{}, false
			}
			s = (s + 1) & mask
		}
		tab[s] = int32(r)
	}

	n := len(lv)
	match := al.Int32s(n)
	mc := morselCount(n)
	misses := al.Ints(mc)
	if workers == 1 || mc == 1 {
		for mor := 0; mor < mc; mor++ {
			lo, hi := morselBounds(mor, n)
			misses[mor] = probeInts(tab, rv, lv, match, lo, hi)
		}
	} else {
		forMorsels(n, workers, func(_, mor, lo, hi int) {
			misses[mor] = probeInts(tab, rv, lv, match, lo, hi)
		})
	}
	out := finishN1(al, match, misses, kind, workers)
	out.intKey = true
	return out, true
}

// probeInts writes match[l] for probe rows [lo, hi) and returns how
// many of them found no build row.
func probeInts(tab []int32, rv, lv []int64, match []int32, lo, hi int) int {
	mask := uint64(len(tab) - 1)
	miss := 0
	for l := lo; l < hi; l++ {
		v := lv[l]
		s := intSlot(v) & mask
		r := tab[s]
		for r >= 0 && rv[r] != v {
			s = (s + 1) & mask
			r = tab[s]
		}
		match[l] = r
		if r < 0 {
			miss++
		}
	}
	return miss
}

// finishN1 turns the per-row match slots of an N:1 probe into a
// JoinResult. With no misses match is Right and Left is the identity;
// otherwise each morsel compacts its hits (and, for a left outer join,
// its misses) into the range its miss count assigns it, so the layout
// is a function of the data alone.
func finishN1(al Alloc, match []int32, misses []int, kind JoinKind, workers int) JoinResult {
	n := len(match)
	nMiss := 0
	for _, c := range misses {
		nMiss += c
	}
	if nMiss == 0 {
		return JoinResult{Right: match, LeftIdentity: true, Strategy: JoinN1}
	}
	out := JoinResult{Left: al.Int32s(n - nMiss), Right: al.Int32s(n - nMiss), Strategy: JoinN1}
	if kind == LeftOuterJoin {
		out.LeftOuter = al.Int32s(nMiss)
	}
	// misses[mor] becomes the number of misses before morsel mor.
	before := 0
	for mor, c := range misses {
		misses[mor] = before
		before += c
	}
	forMorsels(n, workers, func(_, mor, lo, hi int) {
		po, oo := lo-misses[mor], misses[mor]
		for l := lo; l < hi; l++ {
			if r := match[l]; r >= 0 {
				out.Left[po], out.Right[po] = int32(l), r
				po++
			} else if out.LeftOuter != nil {
				out.LeftOuter[oo] = int32(l)
				oo++
			}
		}
	})
	return out
}
