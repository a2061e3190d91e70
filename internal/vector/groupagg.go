package vector

import (
	"fmt"
	"math"
	"math/bits"
)

// This file implements the grouped-aggregation kernel: GroupKeys
// assigns every row a dense group ID from typed multi-column keys
// (morsel-parallel, first-encounter group order), and GroupAggregate
// folds SUM/COUNT/MIN/MAX partials per group without per-row Value
// boxing.
//
// Determinism contract: results are bit-identical for every worker
// count. Group IDs follow global first-encounter (row) order because
// per-morsel local groupings are merged sequentially in morsel order.
// Integer adds, exact float sums (exactsum.go) and tie-broken min/max
// merge commutatively across workers. Float MIN/MAX folds are
// order-sensitive in the presence of NaN, so those run in a dedicated
// sequential pass in ascending row order — exactly the order the
// row-at-a-time path used.

// nullKeyHash is the hash contribution of a NULL group-key value.
// Unlike join keys, GROUP BY treats NULL as a regular key (all NULLs
// form one group).
var nullKeyHash = mix64(^uint64(0))

// GroupStrategy names the kernel that computed a Grouping. The shape of
// the key selects it, never an option, and every strategy returns the
// same IDs and Rep.
type GroupStrategy uint8

// Group strategies.
const (
	// GroupHash is the general kernel: any number of keys of any type
	// and encoding, hashed per row.
	GroupHash GroupStrategy = iota
	// GroupDict groups one dictionary-encoded key by its codes: the
	// dictionary's entries are grouped, the rows only mapped.
	GroupDict
	// GroupInt64 groups one plain non-null Int64/Timestamp key with the
	// hash inline and the values compared directly.
	GroupInt64
	// GroupDense groups one plain non-null Int64/Timestamp key whose
	// range is within the density cap by direct address: a row's slot is
	// its value minus the minimum.
	GroupDense
)

func (s GroupStrategy) String() string {
	switch s {
	case GroupDict:
		return "dict"
	case GroupInt64:
		return "int64"
	case GroupDense:
		return "dense"
	}
	return "hash"
}

// Grouping is the outcome of GroupKeys: a dense group ID per row plus
// one representative row per group, both in first-encounter order.
type Grouping struct {
	NumGroups int
	IDs       []int32 // len == n; IDs[i] is row i's group
	Rep       []int32 // len == NumGroups; first row of each group (-1 if none)
	Strategy  GroupStrategy
}

// groupHashRange fills hashes (the positions of rows) for grouping:
// like hashKeyRange but NULL key values contribute nullKeyHash instead
// of poisoning the row.
func groupHashRange(keys []keyAccess, rows []int32, hashes []uint64) {
	for k := range hashes {
		hashes[k] = 0x9e3779b97f4a7c15
	}
	for _, ka := range keys {
		for k, r := range rows {
			if ka.null(int(r)) {
				hashes[k] = combineHash(hashes[k], nullKeyHash)
			} else {
				hashes[k] = combineHash(hashes[k], ka.hash(int(r)))
			}
		}
	}
}

// groupKeysEq reports group-key equality between row i of key columns a
// and row j of b, columns of the same keys (NULL == NULL for grouping).
func groupKeysEq(a []keyAccess, i int, b []keyAccess, j int) bool {
	for k := range a {
		ni, nj := a[k].null(i), b[k].null(j)
		if ni || nj {
			if ni != nj {
				return false
			}
			continue
		}
		if !valEq(a[k], i, b[k], j) {
			return false
		}
	}
	return true
}

// GroupKeys computes the grouping of n rows by the given key columns:
// GroupKeysWith on the heap over the one piece they make. With no key
// columns it returns the single global group (even over zero rows,
// matching SQL's global-aggregate-of-empty-input one-row semantics;
// Rep[0] is -1 in that case).
func GroupKeys(keys []*Column, n, workers int) Grouping {
	in := []Selection{Whole(&Batch{Cols: keys, N: n})}
	return GroupKeysWith(Mem{}, in, keys, workers)
}

// localTableSize is the per-worker open-addressing table used for
// morsel-local grouping: a power of two at least 2x MorselRows, so
// the table never exceeds half load and never needs to grow. Exact
// hash+key comparison makes the table size invisible in results.
const (
	localTableBits = 13
	localTableSize = 1 << localTableBits
	localShift     = 64 - localTableBits // intSlot's shift for a local table
)

// dictGroupFactor is how many rows per dictionary entry make grouping a
// Dict key by its codes the cheaper plan: below it the dictionary is
// not much smaller than the column and hashing the rows costs the same.
const dictGroupFactor = 4

// argOf returns the position of c among the columns of in's first
// piece: how a kernel names an input of a relation, read at the same
// position in every piece (-1 for nil, COUNT(*)'s input).
func argOf(in []Selection, c *Column) int {
	if c == nil {
		return -1
	}
	if len(in) > 0 {
		for i, x := range in[0].Batch.Cols {
			if x == c {
				return i
			}
		}
	}
	panic("vector: an input column is not a column of the relation")
}

// GroupKeysWith groups the rows of the relation in by the key columns
// keys — columns of its first piece, read at the same position in every
// piece — with an explicit memory policy: reusable per-worker
// open-addressing tables and flat representative buffers from m's
// allocator. IDs are indexed by position, and Rep holds positions. Four
// kernels produce the one result (global first-encounter order): a
// single Dict key, one dictionary in every piece, that fits a morsel and
// is much smaller than the rows groups its dictionary entries and its
// rows by code (groupDict); a single plain non-null integer key whose
// range is within the density cap (denseRange) groups by direct address
// (groupDense), and one with a wider range hashes inline and compares
// values (groupInts); everything else — several keys, NULL-bearing,
// float, string, RLE, per-piece dictionaries — hashes each row once and
// compares through keyAccess. Every one reads its morsels, ranges of
// one piece each, through the piece's rows.
func GroupKeysWith(m Mem, in []Selection, keys []*Column, workers int) Grouping {
	if workers < 1 {
		workers = 1
	}
	al := m.Allocator()
	n := Count(in)
	if len(keys) == 0 {
		rep := []int32{0}
		if n == 0 {
			rep[0] = -1
		}
		return Grouping{NumGroups: 1, IDs: al.Int32s(n), Rep: rep}
	}
	if n == 0 {
		return Grouping{}
	}
	l := newLayout(al, in)
	if len(keys) == 1 {
		ci := argOf(in, keys[0])
		switch c := keys[0]; {
		case c.Enc == Dict && c.dictLen() <= MorselRows && c.dictLen()*dictGroupFactor <= n && oneDict(in, ci):
			return groupDict(al, &l, ci, workers)
		case plainInts(in, ci):
			if lo, span, ok := denseRange(&l, ci); ok {
				return groupDense(al, &l, ci, intVals, lo, span, nil, 0, workers)
			}
			return groupInts(al, &l, ci, workers)
		}
	}
	// ka[p*nk:(p+1)*nk] is piece p's key columns.
	nk, ka := len(keys), make([]keyAccess, len(in)*len(keys))
	for p := range in {
		for k, c := range keys {
			ka[p*nk+k] = newKeyAccess(al, in[p].Batch.Cols[argOf(in, c)])
		}
	}

	gl := l // the closures' copy: the paths above keep l off the heap
	hashes := al.Uint64s(n)
	forPieces(&gl, workers, func(_, _, p, lo, hi int) {
		groupHashRange(ka[p*nk:(p+1)*nk], gl.rows(p, lo, hi), hashes[lo:hi])
	})

	// Per-morsel local grouping (parallel), then a sequential merge in
	// morsel order: global group IDs come out in global first-encounter
	// order regardless of worker count. The global table is
	// open-addressing too, sized for half load.
	ids := int32sForOverwrite(al, n)
	lg := newLocalGroups(al, &gl, workers)
	tabs := make([][]int32, lg.workers)
	forPieces(&gl, lg.workers, func(w, mor, p, lo, hi int) {
		if tabs[w] == nil {
			tabs[w] = emptyTable(al, localTableSize)
		}
		base := len(lg.reps[w])
		lg.touch[w], lg.reps[w] = groupMorsel(al, ka[p*nk:(p+1)*nk], gl.rows(p, lo, hi), hashes, ids, tabs[w], lg.touch[w], lg.reps[w], lo)
		lg.record(w, mor, base)
	})

	local, gtab, repArr, trans := lg.mergeBuffers(al)
	piece, row := lg.locals(al, local)
	gmask := len(gtab) - 1
	nGroups := 0
	for t, r := range local {
		h := hashes[r]
		slot := int(h) & gmask
		p := int(piece[t])
		for {
			cand := gtab[slot]
			if cand < 0 {
				repArr[nGroups] = r
				piece[nGroups], row[nGroups] = piece[t], row[t] // t >= nGroups: read already
				gtab[slot] = int32(nGroups)
				trans[t] = int32(nGroups)
				nGroups++
				break
			}
			if gr := repArr[cand]; hashes[gr] == h {
				gp := int(piece[cand])
				if groupKeysEq(ka[p*nk:(p+1)*nk], int(row[t]), ka[gp*nk:(gp+1)*nk], int(row[cand])) {
					trans[t] = cand
					break
				}
			}
			slot = (slot + 1) & gmask
		}
	}
	lg.translate(ids, trans)
	return Grouping{NumGroups: nGroups, IDs: ids, Rep: repArr[:nGroups]}
}

// plainInts reports whether column ci of every piece is a key the typed
// kernels read as a bare []int64.
func plainInts(in []Selection, ci int) bool {
	for p := range in {
		if !plainIntKey(in[p].Batch.Cols[ci]) {
			return false
		}
	}
	return true
}

// oneDict reports whether column ci of every piece is Dict over one
// dictionary, so a code means one value throughout.
func oneDict(in []Selection, ci int) bool {
	c0 := in[0].Batch.Cols[ci]
	for p := range in[1:] {
		if c := in[p+1].Batch.Cols[ci]; c.Enc != Dict || !shareValues(c, c0) {
			return false
		}
	}
	return true
}

// shareValues reports whether a and b share their value arrays.
func shareValues(a, b *Column) bool {
	n := a.dictLen()
	if a.Type != b.Type || n != b.dictLen() {
		return false
	}
	if n == 0 {
		return true
	}
	switch a.Type {
	case Int64, Timestamp:
		return &a.Ints[0] == &b.Ints[0]
	case Float64:
		return &a.Floats[0] == &b.Floats[0]
	case Bool:
		return &a.Bools[0] == &b.Bools[0]
	}
	return &a.Strs[0] == &b.Strs[0]
}

// emptyTable returns an open-addressing table of size slots, all free.
func emptyTable(al Alloc, size int) []int32 {
	tab := al.Int32s(size)
	for i := range tab {
		tab[i] = -1
	}
	return tab
}

// groupMorsel gives the morsel of positions from lo on, whose rows are
// rows, local group IDs in first-encounter order, counted from the
// morsel's first group: ids is written in place and each new group's
// first position is appended to rb. tab holds, per occupied slot, the
// local ID of the group there; it must be all free on entry and is
// freed again before returning, in O(groups) through the touched-slot
// list tb.
func groupMorsel(al Alloc, ka []keyAccess, rows []int32, hashes []uint64, ids, tab, tb, rb []int32, lo int) (touched, reps []int32) {
	tb = tb[:0]
	base := int32(len(rb))
	for k, r := range rows {
		i := lo + k
		h := hashes[i]
		slot := int(h & (localTableSize - 1))
		var id int32
		for {
			cand := tab[slot]
			if cand < 0 {
				id = int32(len(rb)) - base
				rb = appendI32(al, rb, int32(i))
				tab[slot] = id
				tb = appendI32(al, tb, int32(slot))
				break
			}
			rep := rb[base+cand]
			if hashes[rep] == h && groupKeysEq(ka, int(r), ka, int(rows[int(rep)-lo])) {
				id = cand
				break
			}
			slot = (slot + 1) & (localTableSize - 1)
		}
		ids[i] = id
	}
	for _, s := range tb {
		tab[s] = -1
	}
	return tb, rb
}

// localGroups is the bookkeeping both morsel-parallel grouping kernels
// share: where each morsel's local representatives landed in its
// worker's flat buffer, so the merge can replay them in morsel order
// and the translation can find each morsel's slice of the local-to-
// global table.
type localGroups struct {
	l           layout
	workers     int
	reps, touch [][]int32 // per worker
	worker      []int32   // per morsel: which worker ran it
	off, cnt    []int32   // per morsel: its reps in reps[worker]
	base        []int32   // per morsel: its first slot in the local-to-global table
}

func newLocalGroups(al Alloc, l *layout, workers int) *localGroups {
	mc := l.morsels
	if workers > mc {
		workers = mc
	}
	return &localGroups{
		l: *l, workers: workers,
		reps: make([][]int32, workers), touch: make([][]int32, workers),
		worker: al.Int32s(mc), off: al.Int32s(mc), cnt: al.Int32s(mc), base: al.Int32s(mc),
	}
}

// record notes that worker w's buffer holds morsel mor's groups from
// off on.
func (lg *localGroups) record(w, mor, off int) {
	lg.worker[mor], lg.off[mor], lg.cnt[mor] = int32(w), int32(off), int32(len(lg.reps[w])-off)
}

// mergeBuffers returns what the sequential merge works on: local, the
// first position of every local group in morsel order then local
// first-encounter order; a free global table at half load; the global
// representative array; and trans, indexed like local, for the merge to
// fill with each local group's global ID.
func (lg *localGroups) mergeBuffers(al Alloc) (local, gtab, repArr, trans []int32) {
	total := 0
	for mor := range lg.cnt {
		lg.base[mor] = int32(total)
		total += int(lg.cnt[mor])
	}
	local = al.Int32s(total)
	for mor := range lg.cnt {
		copy(local[lg.base[mor]:], lg.reps[lg.worker[mor]][lg.off[mor]:lg.off[mor]+lg.cnt[mor]])
	}
	size := 8
	for size < 2*total {
		size <<= 1
	}
	return local, emptyTable(al, size), al.Int32s(total), al.Int32s(total)
}

// locals returns the piece and batch row of each entry of local, as
// mergeBuffers orders them: found morsel by morsel, not searched for.
func (lg *localGroups) locals(al Alloc, local []int32) (piece, row []int32) {
	piece, row = al.Int32s(len(local)), al.Int32s(len(local))
	for mor := range lg.cnt {
		p, lo, hi := lg.l.bounds(mor)
		rows := lg.l.rows(p, lo, hi)
		for t := lg.base[mor]; t < lg.base[mor]+lg.cnt[mor]; t++ {
			piece[t], row[t] = int32(p), rows[int(local[t])-lo]
		}
	}
	return piece, row
}

// translate rewrites the morsel-local IDs in ids to global ones.
func (lg *localGroups) translate(ids, trans []int32) {
	forPieces(&lg.l, lg.workers, func(_, mor, _, lo, hi int) {
		b := int(lg.base[mor])
		for i := lo; i < hi; i++ {
			ids[i] = trans[b+int(ids[i])]
		}
	})
}

// groupInts is GroupKeysWith for one plain non-null integer key,
// column ci of every piece. Same plan as the general kernel — local
// tables per morsel, sequential merge in morsel order, parallel
// translation — with the value itself in the table beside the group ID:
// no hash array, no keyAccess.
func groupInts(al Alloc, pl *layout, ci, workers int) Grouping {
	l := *pl // the closures' copy
	ids := int32sForOverwrite(al, l.n)
	lg := newLocalGroups(al, &l, workers)
	tabs := make([][]int32, lg.workers)
	tabKeys := make([][]int64, lg.workers)
	forPieces(&l, lg.workers, func(w, mor, p, lo, hi int) {
		if tabs[w] == nil {
			tabs[w], tabKeys[w] = emptyTable(al, localTableSize), al.Int64s(localTableSize)
		}
		tab, tabKey, tb, rb := tabs[w], tabKeys[w], lg.touch[w][:0], lg.reps[w]
		base := len(rb)
		vals, out := l.in[p].Batch.Cols[ci].Ints, ids[lo:hi]
		for k, r := range l.rows(p, lo, hi) {
			v := vals[r]
			slot := int(intSlot(v, localShift))
			for tab[slot] >= 0 && tabKey[slot] != v {
				slot = (slot + 1) & (localTableSize - 1)
			}
			id := tab[slot]
			if id < 0 {
				id = int32(len(rb) - base)
				rb = appendI32(al, rb, int32(lo+k))
				tab[slot], tabKey[slot] = id, v
				tb = appendI32(al, tb, int32(slot))
			}
			out[k] = id
		}
		for _, s := range tb {
			tab[s] = -1
		}
		lg.touch[w], lg.reps[w] = tb, rb
		lg.record(w, mor, base)
	})

	local, gtab, repArr, trans := lg.mergeBuffers(al)
	piece, row := lg.locals(al, local)
	repVal := al.Int64s(len(repArr))
	gmask, gshift := uint64(len(gtab)-1), tableShift(len(gtab))
	nGroups := 0
	for t, r := range local {
		v := l.in[piece[t]].Batch.Cols[ci].Ints[row[t]]
		slot := intSlot(v, gshift)
		for gtab[slot] >= 0 && repVal[gtab[slot]] != v {
			slot = (slot + 1) & gmask
		}
		if gtab[slot] < 0 {
			repArr[nGroups], repVal[nGroups] = r, v
			gtab[slot] = int32(nGroups)
			nGroups++
		}
		trans[t] = gtab[slot]
	}
	lg.translate(ids, trans)
	return Grouping{NumGroups: nGroups, IDs: ids, Rep: repArr[:nGroups], Strategy: GroupInt64}
}

// groupDict is GroupKeysWith for one Dict key with few dictionary
// entries, column ci of every piece over one dictionary. The entries are
// grouped by the general kernel's morsel loop (so duplicate entries,
// NaNs and ±0.0 fall into the classes key identity gives them); the rows
// are then grouped by their codes — a dense range once NULL's NullIdx
// wraps to the slot below code 0 — through the direct-address kernel,
// each code standing for its class. Closure-free at one worker: it
// allocates nothing outside al.
func groupDict(al Alloc, l *layout, ci, workers int) Grouping {
	c := l.in[0].Batch.Cols[ci]
	d := c.dictLen()
	entries := Column{Type: c.Type, Len: d, Enc: Plain, Ints: c.Ints, Floats: c.Floats, Bools: c.Bools, Strs: c.Strs}
	ka := [1]keyAccess{{c: &entries}}
	hashes := al.Uint64s(d)
	all := identity(d)
	groupHashRange(ka[:], all, hashes)
	class := al.Int32s(d + 1) // class[code+1], NULL's at 0; one morsel, so local IDs are the classes
	_, classRep := groupMorsel(al, ka[:], all, hashes, class[1:], emptyTable(al, localTableSize), nil, nil, 0)
	class[0] = int32(len(classRep))
	g := groupDense(al, l, ci, codeVals, NullIdx, d+1, class, len(classRep)+1, workers)
	g.Strategy = GroupDict
	return g
}

// AggSpec describes one grouped aggregate: Kind applied to Col. A nil
// Col means COUNT(*) — every row of the group counts, NULL or not
// (only valid with AggCount).
type AggSpec struct {
	Kind AggKind
	Col  *Column
}

// aggPartial holds one worker's (or the sequential pass's) per-group
// accumulator state for a single spec.
type aggPartial struct {
	cnt       []int64   // rows folded (non-null; all rows for COUNT(*)); the fused specs of a worker share one
	sumI      []int64   // integer SUM
	sumF      []float64 // float SUM: the plain sum, exact while inexact[g] is false
	inexact   []bool    // float SUM: an add or a merge into sumF[g] rounded
	refoldAll bool      // float SUM: a fused walk stopped adding after a morsel rounded; every group refolds
	wide      *exactSum // a Fold's float SUM once an Add rounded
	set       []bool    // MIN/MAX: group has a value
	accI      []int64   // MIN/MAX acc for Int64/Timestamp
	accF      []float64 // MIN/MAX acc for Float64 (sequential pass only)
	accS      []string  // MIN/MAX acc for String/Bytes
	accB      []bool    // MIN/MAX acc for Bool
	accRow    []int32   // row index of the current MIN/MAX acc (merge tie-break)
}

// newAggPartial allocates a partial for sp, counting into cnt (a fresh
// array when nil).
func newAggPartial(al Alloc, sp AggSpec, numGroups int, cnt []int64) *aggPartial {
	if cnt == nil {
		cnt = al.Int64s(numGroups)
	}
	p := &aggPartial{cnt: cnt}
	if sp.Col == nil {
		return p
	}
	switch sp.Kind {
	case AggSum:
		if sp.Col.Type == Float64 {
			p.sumF, p.inexact = al.Float64s(numGroups), al.Bools(numGroups)
			for g := range p.sumF {
				p.sumF[g] = negZero
			}
		} else {
			p.sumI = al.Int64s(numGroups)
		}
	case AggMin, AggMax:
		p.set = al.Bools(numGroups)
		p.accRow = al.Int32s(numGroups)
		switch sp.Col.Type {
		case Int64, Timestamp:
			p.accI = al.Int64s(numGroups)
		case Float64:
			p.accF = al.Float64s(numGroups)
		case Bool:
			p.accB = al.Bools(numGroups)
		default:
			p.accS = al.Strings(numGroups)
		}
	}
	return p
}

// sequentialSpec reports whether a spec must be folded in ascending
// row order on one goroutine: the historical float min/max fold is
// order-sensitive when NaNs are present, so Float64 MIN/MAX stay
// sequential until one total order over floats ranks them.
func sequentialSpec(sp AggSpec) bool {
	return sp.Col != nil && sp.Col.Type == Float64 && (sp.Kind == AggMin || sp.Kind == AggMax)
}

// fusedSpec reports whether the fused walk folds sp, whose input is
// column arg of every piece of in: COUNT(*), or a COUNT or SUM over an
// input that is Plain and null-free in every piece, whose rows it reads
// directly. Every row of a morsel counts for all of them, so they share
// one count.
func fusedSpec(in []Selection, sp AggSpec, arg int) bool {
	if sp.Col == nil {
		return true
	}
	if sp.Kind != AggCount && sp.Kind != AggSum {
		return false
	}
	for p := range in {
		if c := in[p].Batch.Cols[arg]; c.Enc != Plain || c.Nulls != nil {
			return false
		}
	}
	return true
}

// fusedInt and fusedFloat are the fused walk's SUMs: a worker's
// accumulators and the column of each piece they read.
type fusedInt struct {
	arg int
	acc []int64
}

type fusedFloat struct {
	arg     int
	acc     []float64
	part    *aggPartial
	rounded bool // an add of the last morsel rounded: see dropRounded
}

// aggWorker is one worker's partials for every spec of a pass (nil for
// a sequential spec). The fused specs' partials share cnt.
type aggWorker struct {
	parts  []*aggPartial
	cnt    []int64
	fused  bool // some spec is fused
	ints   []fusedInt
	floats []fusedFloat
}

func newAggWorker(al Alloc, specs []AggSpec, in aggInputs, numGroups int) *aggWorker {
	w := &aggWorker{parts: make([]*aggPartial, len(specs))}
	for s, sp := range specs {
		switch {
		case sequentialSpec(sp):
		case in.fused[s]:
			if !w.fused {
				w.cnt, w.fused = al.Int64s(numGroups), true
			}
			p := newAggPartial(al, sp, numGroups, w.cnt)
			w.parts[s] = p
			if sp.Kind != AggSum {
				continue
			}
			switch sp.Col.Type {
			case Int64, Timestamp:
				w.ints = append(w.ints, fusedInt{arg: in.args[s], acc: p.sumI})
			case Float64:
				w.floats = append(w.floats, fusedFloat{arg: in.args[s], acc: p.sumF, part: p})
			}
			// Bool/String/Bytes SUM counts its rows; its sum stays 0.
		default:
			w.parts[s] = newAggPartial(al, sp, numGroups, nil)
		}
	}
	return w
}

// aggInputs is where a pass's specs read: per spec, its column in every
// piece (-1: COUNT(*)) and whether the fused walk folds it, and per
// piece and spec the value access (acc[p*len(args)+s]).
type aggInputs struct {
	l     *layout
	args  []int
	fused []bool
	acc   []keyAccess
}

// access returns spec s's input in piece p.
func (in aggInputs) access(p, s int) keyAccess { return in.acc[p*len(in.args)+s] }

// fold folds morsel positions [lo, hi) of piece p for every spec but
// the sequential ones: the fused specs in one walk, the rest spec by
// spec. The caller hands each worker its morsels in ascending order.
func (w *aggWorker) fold(specs []AggSpec, in aggInputs, ids []int32, numGroups, p, lo, hi int) {
	b, rows, gids := in.l.in[p].Batch, in.l.rows(p, lo, hi), ids[lo:hi]
	switch {
	case !w.fused:
	case numGroups == 1:
		w.foldOne(b, rows)
	default:
		w.foldFused(b, gids, rows)
	}
	for s, part := range w.parts {
		if part != nil && !in.fused[s] {
			accumRange(part, specs[s], in.access(p, s), gids, rows, lo)
		}
	}
}

// foldOne is the fused walk of the one group: every sum runs in
// registers over its input and lands in its accumulator once.
func (w *aggWorker) foldOne(b *Batch, rows []int32) {
	w.cnt[0] += int64(len(rows))
	for k := range w.ints {
		f := &w.ints[k]
		vals := b.Cols[f.arg].Ints
		var s int64
		for _, r := range rows {
			s += vals[r]
		}
		f.acc[0] += s
	}
	for k := range w.floats {
		f := &w.floats[k]
		s, exact := sumRun(b.Cols[f.arg].Floats, rows)
		t, ok := addExact(f.acc[0], s)
		f.acc[0] = t
		f.rounded = !exact || !ok
	}
	w.dropRounded()
}

// foldFused is the fused walk over many groups: each row's group is
// read once, counted, and its first int and float SUMs folded; any
// further SUM takes a walk of its own. Each shape has its own loop, so
// every array it touches stays in a register.
func (w *aggWorker) foldFused(b *Batch, ids, rows []int32) {
	ints, floats := w.ints, w.floats
	switch {
	case len(ints) > 0 && len(floats) > 0:
		fi, ff := ints[0], floats[0]
		if next := walkCountIntFloat(w.cnt, fi.acc, b.Cols[fi.arg].Ints, ff.acc, b.Cols[ff.arg].Floats, ids, rows); next < len(rows) {
			floats[0].rounded = true
			walkCountInt(w.cnt, fi.acc, b.Cols[fi.arg].Ints, ids[next:], rows[next:])
		}
		ints, floats = ints[1:], floats[1:]
	case len(ints) > 0:
		walkCountInt(w.cnt, ints[0].acc, b.Cols[ints[0].arg].Ints, ids, rows)
		ints = ints[1:]
	case len(floats) > 0:
		next := walkCountFloat(w.cnt, floats[0].acc, b.Cols[floats[0].arg].Floats, ids, rows)
		floats[0].rounded = next < len(rows)
		for _, g := range ids[next:] {
			w.cnt[g]++
		}
		floats = floats[1:]
	default:
		for _, g := range ids {
			w.cnt[g]++
		}
	}
	for _, f := range ints {
		acc, vals := f.acc, b.Cols[f.arg].Ints
		for k, r := range rows {
			acc[ids[k]] += vals[r]
		}
	}
	for k := range floats {
		floats[k].rounded = walkFloat(floats[k].acc, b.Cols[floats[k].arg].Floats, ids, rows) < len(rows)
	}
	w.dropRounded()
}

// dropRounded stops the fused float SUMs an add of the last morsel
// rounded: refold recomputes every group of such a sum from its rows,
// so adding more rows to its plain sums would be wasted work.
func (w *aggWorker) dropRounded() {
	kept := w.floats[:0]
	for _, f := range w.floats {
		if f.rounded {
			f.part.refoldAll = true
		} else {
			kept = append(kept, f)
		}
	}
	w.floats = kept
}

// The walks read position k's group at ids[k] and its value at
// vals[rows[k]]. The float walks stop at the first add that rounds and
// return the position after it (len(rows) if none did): the rest of the
// morsel is not added.

func walkCountIntFloat(cnt, iacc, ivals []int64, facc, fvals []float64, ids, rows []int32) int {
	ids = ids[:len(rows)]
	for k, r := range rows {
		g := ids[k]
		cnt[g]++
		iacc[g] += ivals[r]
		t, ok := addExact(facc[g], fvals[r])
		if !ok {
			return k + 1
		}
		facc[g] = t
	}
	return len(rows)
}

func walkCountInt(cnt, acc, vals []int64, ids, rows []int32) {
	ids = ids[:len(rows)]
	for k, r := range rows {
		g := ids[k]
		cnt[g]++
		acc[g] += vals[r]
	}
}

func walkCountFloat(cnt []int64, acc, vals []float64, ids, rows []int32) int {
	ids = ids[:len(rows)]
	for k, r := range rows {
		g := ids[k]
		cnt[g]++
		t, ok := addExact(acc[g], vals[r])
		if !ok {
			return k + 1
		}
		acc[g] = t
	}
	return len(rows)
}

func walkFloat(acc, vals []float64, ids, rows []int32) int {
	ids = ids[:len(rows)]
	for k, r := range rows {
		t, ok := addExact(acc[ids[k]], vals[r])
		if !ok {
			return k + 1
		}
		acc[ids[k]] = t
	}
	return len(rows)
}

// merge folds worker o's partials into w's, the shared count once.
func (w *aggWorker) merge(o *aggWorker, specs []AggSpec, in aggInputs, numGroups int) {
	for g := range w.cnt {
		w.cnt[g] += o.cnt[g]
	}
	for s, p := range w.parts {
		if p != nil {
			mergePartial(p, o.parts[s], specs[s], numGroups, !in.fused[s])
		}
	}
}

// lineAlloc cuts every slice from one a cache line longer on either
// side, so no two workers' partials share a line.
type lineAlloc struct{ Alloc }

func (a lineAlloc) Int64s(n int) []int64     { return a.Alloc.Int64s(n + 16)[8 : 8+n : 8+n] }
func (a lineAlloc) Float64s(n int) []float64 { return a.Alloc.Float64s(n + 16)[8 : 8+n : 8+n] }
func (a lineAlloc) Bools(n int) []bool       { return a.Alloc.Bools(n + 128)[64 : 64+n : 64+n] }
func (a lineAlloc) Strings(n int) []string   { return a.Alloc.Strings(n + 8)[4 : 4+n : 4+n] }
func (a lineAlloc) Int32s(n int) []int32     { return a.Alloc.Int32s(n + 32)[16 : 16+n : 16+n] }

// accumRange folds one spec's rows into a partial: the morsel whose
// positions start at at, position at+k holding group ids[k] and the
// input's row rows[k]. The caller guarantees each worker's morsels
// arrive in ascending order, so the strict-replace min/max fold records
// the smallest position of the worker's best tie class in accRow.
func accumRange(p *aggPartial, sp AggSpec, ka keyAccess, ids, rows []int32, at int) {
	ids = ids[:len(rows)]
	if sp.Col == nil {
		for _, g := range ids {
			p.cnt[g]++
		}
		return
	}
	switch sp.Kind {
	case AggCount:
		for k, r := range rows {
			if !ka.null(int(r)) {
				p.cnt[ids[k]]++
			}
		}
	case AggSum:
		switch ka.c.Type {
		case Int64, Timestamp:
			for k, r := range rows {
				if ka.null(int(r)) {
					continue
				}
				g := ids[k]
				p.cnt[g]++
				p.sumI[g] += ka.c.Ints[ka.valIdx(int(r))]
			}
		case Float64:
			for k, r := range rows {
				if ka.null(int(r)) {
					continue
				}
				g := ids[k]
				p.cnt[g]++
				t, ok := addExact(p.sumF[g], ka.c.Floats[ka.valIdx(int(r))])
				p.sumF[g] = t
				if !ok {
					p.inexact[g] = true
				}
			}
		default:
			// Bool/String/Bytes SUM historically summed Value.I, which
			// is always 0 for these types: count rows, sum stays 0.
			for k, r := range rows {
				if !ka.null(int(r)) {
					p.cnt[ids[k]]++
				}
			}
		}
	case AggMin, AggMax:
		min := sp.Kind == AggMin
		switch ka.c.Type {
		case Int64, Timestamp:
			foldMinMax(p, ka, ids, rows, at, min, p.accI, ka.c.Ints, cmpInt)
		case Float64:
			foldMinMax(p, ka, ids, rows, at, min, p.accF, ka.c.Floats, cmpFloat)
		case Bool:
			foldMinMax(p, ka, ids, rows, at, min, p.accB, ka.c.Bools, cmpBool)
		default:
			foldMinMax(p, ka, ids, rows, at, min, p.accS, ka.c.Strs, cmpString)
		}
	}
}

// foldMinMax is accumRange's MIN/MAX fold into acc, the partial's
// accumulator of the input's type, reading its values vals through ka.
func foldMinMax[T any](p *aggPartial, ka keyAccess, ids, rows []int32, at int, min bool, acc, vals []T, cmp func(a, b T) int) {
	for k, r := range rows {
		if ka.null(int(r)) {
			continue
		}
		g := ids[k]
		v := vals[ka.valIdx(int(r))]
		if !p.set[g] {
			p.set[g], acc[g], p.accRow[g] = true, v, int32(at+k)
			continue
		}
		c := cmp(v, acc[g])
		if (min && c < 0) || (!min && c > 0) {
			acc[g], p.accRow[g] = v, int32(at+k)
		}
	}
}

// mergePartial folds src into dst; counts too unless they are shared.
// Sums and counts add, a float sum staying exact only while both sides
// were and their add is; min/max keeps the strictly better value and
// breaks ties toward the smaller row index, which is commutative and
// reproduces the sequential keep-first fold for every type this path
// handles (no NaNs: Float64 MIN/MAX never takes this path).
func mergePartial(dst, src *aggPartial, sp AggSpec, numGroups int, counts bool) {
	if counts {
		for g := 0; g < numGroups; g++ {
			dst.cnt[g] += src.cnt[g]
		}
	}
	if sp.Col == nil {
		return
	}
	switch sp.Kind {
	case AggSum:
		if dst.sumI != nil {
			for g := 0; g < numGroups; g++ {
				dst.sumI[g] += src.sumI[g]
			}
		}
		if dst.sumF != nil {
			dst.refoldAll = dst.refoldAll || src.refoldAll
			for g := 0; g < numGroups; g++ {
				t, ok := addExact(dst.sumF[g], src.sumF[g])
				dst.sumF[g] = t
				if !ok || src.inexact[g] {
					dst.inexact[g] = true
				}
			}
		}
	case AggMin, AggMax:
		min := sp.Kind == AggMin
		for g := 0; g < numGroups; g++ {
			if !src.set[g] {
				continue
			}
			if !dst.set[g] {
				dst.set[g], dst.accRow[g] = true, src.accRow[g]
				copyAcc(dst, src, sp.Col.Type, g)
				continue
			}
			var c int
			switch sp.Col.Type {
			case Int64, Timestamp:
				c = cmpInt(src.accI[g], dst.accI[g])
			case Bool:
				c = cmpBool(src.accB[g], dst.accB[g])
			default:
				c = cmpString(src.accS[g], dst.accS[g])
			}
			better := (min && c < 0) || (!min && c > 0)
			if better || (c == 0 && src.accRow[g] < dst.accRow[g]) {
				dst.accRow[g] = src.accRow[g]
				copyAcc(dst, src, sp.Col.Type, g)
			}
		}
	}
}

func copyAcc(dst, src *aggPartial, t Type, g int) {
	switch t {
	case Int64, Timestamp:
		dst.accI[g] = src.accI[g]
	case Bool:
		dst.accB[g] = src.accB[g]
	default:
		dst.accS[g] = src.accS[g]
	}
}

// refold makes a merged float SUM exact: the sum of every group whose
// plain sum rounded somewhere (every group with a row, after refoldAll)
// is recomputed from its rows and rounded once. One pass reads the
// input in place, through the pieces, and adds each value to its
// group's window; no value is moved.
//
// A group's window is a 192-bit register triple whose lowest bit is 63
// bits below the lowest bit of the largest exponent (top) its values
// have had: 2^75 values of under 2^116 each cannot overflow it, so a row
// costs its adds and nothing else. The window is flushed into the
// group's superaccumulator only when a larger exponent arrives; a value
// below the window, ±Inf or NaN goes to the superaccumulator directly.
// A group whose window fits 128 bits and that never flushed is rounded
// from its window alone. A sum that comes out zero is −0 only when
// every one of its values was −0, which a second look at its rows
// decides.
func refold(al Alloc, p *aggPartial, in aggInputs, s int, ids []int32, numGroups int) {
	redo, some := al.Bools(numGroups), false
	for g := range redo {
		redo[g] = p.inexact[g] || (p.refoldAll && p.cnt[g] > 0)
		some = some || redo[g]
	}
	if !some {
		return
	}
	wins := make([]groupWindow, numGroups)
	var sums []exactSum
	acc := func(w *groupWindow) *exactSum {
		if w.wide == 0 {
			sums = append(sums, exactSum{})
			w.wide = int32(len(sums))
		}
		return &sums[w.wide-1]
	}
	// each calls fn with every value of the groups refolded.
	each := func(fn func(g int32, v float64)) {
		for pc := range in.l.in {
			ka, off := in.access(pc, s), in.l.off[pc]
			for k, r := range in.l.rows(pc, off, in.l.off[pc+1]) {
				if g := ids[off+k]; redo[g] && !ka.null(int(r)) {
					fn(g, ka.c.Floats[ka.valIdx(int(r))])
				}
			}
		}
	}
	for pc := range in.l.in {
		ka, off := in.access(pc, s), in.l.off[pc]
		rows := in.l.rows(pc, off, in.l.off[pc+1])
		gids, vals := ids[off:off+len(rows)], ka.c.Floats
		if ka.c.Enc != Plain || ka.c.Nulls != nil {
			for k, r := range rows {
				if g := gids[k]; redo[g] && !ka.null(int(r)) {
					wins[g].add(vals[ka.valIdx(int(r))], acc)
				}
			}
			continue
		}
		for k, r := range rows {
			g := gids[k]
			if !redo[g] {
				continue
			}
			// The common value, a normal one within the window, inline;
			// add takes the rest.
			v, w := vals[r], &wins[g]
			b := math.Float64bits(v)
			e := int32(b>>52) & 0x7ff
			sh := e - w.top + 63
			if e == 0 || uint32(sh) > 63 {
				w.add(v, acc)
				continue
			}
			m := b&(1<<52-1) | 1<<52
			x0, x1 := m<<(uint(sh)&63), (m>>1)>>((63-uint(sh))&63)
			neg := -(b >> 63) // all ones for a negative v: add ^x + 1
			var c uint64
			w.lo, c = bits.Add64(w.lo, x0^neg, neg&1)
			w.mid, c = bits.Add64(w.mid, x1^neg, c)
			w.hi += neg + c
		}
	}
	for g := range wins {
		if !redo[g] {
			continue
		}
		w := &wins[g]
		var sum float64
		if w.wide == 0 && w.hi == uint64(int64(w.mid)>>63) {
			sum = window{hi: w.mid, lo: w.lo, p: int(w.top) - 64}.round(false)
		} else {
			w.flush(acc)
			sum = sums[w.wide-1].round()
		}
		if sum == 0 {
			negZero := true
			each(func(h int32, v float64) { negZero = negZero && (h != int32(g) || math.Float64bits(v) == signBit) })
			sum = window{}.round(negZero)
		}
		p.sumF[g] = sum
	}
}

// groupWindow is one group's state in refold: its window hi:mid:lo and
// top exponent (0: no value yet), and 1 + its superaccumulator (0:
// none).
type groupWindow struct {
	hi, mid, lo uint64
	top         int32
	wide        int32
}

// add folds v into the window, or into the superaccumulator acc returns.
func (w *groupWindow) add(v float64, acc func(*groupWindow) *exactSum) {
	b := math.Float64bits(v)
	e, m := int32(b>>52)&0x7ff, b&(1<<52-1)
	switch {
	case e == 0x7ff:
		acc(w).add(v)
		return
	case e == 0: // subnormal or zero: it scales as exponent 1
		e = 1
	default:
		m |= 1 << 52
	}
	if e > w.top {
		w.flush(acc)
		w.top = e
	}
	sh := e - w.top + 63 // v is m << sh in the window
	if sh < 0 {
		acc(w).add(v)
		return
	}
	x0, x1 := m<<(uint(sh)&63), (m>>1)>>((63-uint(sh))&63)
	neg := -(b >> 63) // all ones for a negative v: add ^x + 1
	var c uint64
	w.lo, c = bits.Add64(w.lo, x0^neg, neg&1)
	w.mid, c = bits.Add64(w.mid, x1^neg, c)
	w.hi += neg + c
}

// flush moves the window into the superaccumulator acc returns: its low
// word unsigned, then its top two words, signed.
func (w *groupWindow) flush(acc func(*groupWindow) *exactSum) {
	if w.hi == 0 && w.mid == 0 && w.lo == 0 {
		return
	}
	a, p := acc(w), int(w.top)-64
	a.addWindow(0, w.lo, p)
	a.addWindow(w.hi, w.mid, p+64)
	w.hi, w.mid, w.lo = 0, 0, 0
}

// finishSpec turns one spec's merged accumulators into its result
// column, one row per group, matching the row-at-a-time semantics:
// COUNT is never NULL; SUM and MIN/MAX over zero non-null rows are
// NULL; integer-family SUM yields Int64 (even for Timestamp inputs);
// MIN/MAX keep the column's type. A float SUM is rounded here, once.
// The column takes the accumulator arrays as they are — a group that
// folded nothing left its zero value there, which is what a NULL row
// of a plain column holds.
func finishSpec(m Mem, p *aggPartial, sp AggSpec, numGroups int) *Column {
	out := &Column{Type: Int64, Len: numGroups, Enc: Plain, Pooled: m.Pooled()}
	markNull := func(g int) {
		if out.Nulls == nil {
			out.Nulls = m.Allocator().Bools(numGroups)
		}
		out.Nulls[g] = true
	}
	switch sp.Kind {
	case AggCount:
		out.Ints = p.cnt
	case AggSum:
		if p.sumF != nil {
			if p.wide != nil {
				p.sumF[0] = p.wide.round()
			}
			out.Type, out.Floats = Float64, p.sumF
		} else {
			out.Ints = p.sumI
		}
		for g, c := range p.cnt {
			if c == 0 {
				markNull(g)
				if p.sumF != nil {
					p.sumF[g] = 0
				}
			}
		}
	case AggMin, AggMax:
		out.Type = sp.Col.Type
		out.Ints, out.Floats, out.Bools, out.Strs = p.accI, p.accF, p.accB, p.accS
		for g, set := range p.set {
			if !set {
				markNull(g)
			}
		}
	}
	return out
}

// GroupAggregate is GroupAggregateWith on the heap, over the one piece
// the specs' inputs make.
func GroupAggregate(ids []int32, numGroups int, specs []AggSpec, workers int) []*Column {
	var cols []*Column
	for _, sp := range specs {
		if sp.Col != nil {
			cols = append(cols, sp.Col)
		}
	}
	in := []Selection{Whole(&Batch{Cols: cols, N: len(ids)})}
	return GroupAggregateWith(Mem{}, in, ids, numGroups, specs, workers)
}

// GroupAggregateWith computes the given aggregates per group over the
// relation in: one typed plain column of numGroups rows per spec,
// accumulator and output arrays (they are the same arrays) from m's
// allocator. A spec's Col is its input's column in in's first piece,
// read at the same position in every piece (nil: COUNT(*)). ids, by
// position, and numGroups come from GroupKeysWith; workers bounds the
// morsel-parallel fan-out. Every spec but a Float64 MIN/MAX folds
// morsel-parallel into per-worker partials, one walk per morsel for the
// fused ones, each reading a morsel's rows of its piece in place; a
// float SUM is the correctly rounded exact sum, refolded only for the
// groups whose plain sum rounded. Float64 MIN/MAX fold sequentially in
// position order.
func GroupAggregateWith(m Mem, in []Selection, ids []int32, numGroups int, specs []AggSpec, workers int) []*Column {
	if workers < 1 {
		workers = 1
	}
	al := m.Allocator()
	l := newLayout(al, in)
	inputs := aggInputs{l: &l, args: al.Ints(len(specs)), fused: al.Bools(len(specs)), acc: make([]keyAccess, len(in)*len(specs))}
	for s, sp := range specs {
		inputs.args[s] = argOf(in, sp.Col)
		inputs.fused[s] = fusedSpec(in, sp, inputs.args[s])
		if sp.Col == nil {
			continue
		}
		for p := range in {
			inputs.acc[p*len(specs)+s] = valueAccess(in[p].Batch.Cols[inputs.args[s]])
		}
	}

	nWorkers := max(min(workers, l.morsels), 1)
	wal := al
	if nWorkers > 1 {
		wal = lineAlloc{al}
	}
	ws := make([]*aggWorker, nWorkers)
	for w := range ws {
		ws[w] = newAggWorker(wal, specs, inputs, numGroups)
	}
	forPieces(&l, nWorkers, func(w, _, p, lo, hi int) {
		ws[w].fold(specs, inputs, ids, numGroups, p, lo, hi)
	})
	for _, o := range ws[1:] {
		ws[0].merge(o, specs, inputs, numGroups)
	}

	out := make([]*Column, len(specs))
	for s, sp := range specs {
		p := ws[0].parts[s]
		if p == nil {
			p = newAggPartial(al, sp, numGroups, nil)
			for mor := 0; mor < l.morsels; mor++ {
				pc, lo, hi := l.bounds(mor)
				accumRange(p, sp, inputs.access(pc, s), ids[lo:hi], l.rows(pc, lo, hi), lo)
			}
		}
		if p.inexact != nil {
			refold(al, p, inputs, s, ids, numGroups)
		}
		out[s] = finishSpec(m, p, sp, numGroups)
	}
	return out
}

// AggOutput applies the aggregate output typing rule to an aggregate's
// column of n rows: a column takes the type of its first non-NULL value,
// so one with none — zero groups included, and a nil c — is Int64
// whatever produced it. The engine's aggregates and a Fold's answer are
// both typed by it.
func AggOutput(m Mem, c *Column, n int) *Column {
	if c != nil {
		for g := 0; g < n; g++ {
			if !c.IsNullAt(g) {
				return c
			}
		}
	}
	al := m.Allocator()
	out := &Column{Type: Int64, Len: n, Enc: Plain, Ints: al.Int64s(n), Pooled: m.Pooled()}
	if n > 0 {
		out.Nulls = al.Bools(n)
		for g := range out.Nulls {
			out.Nulls[g] = true
		}
	}
	return out
}

// Fold is GroupAggregateWith's accumulator run as one group's running
// fold: each Add folds its rows after every row added before, so a
// MIN/MAX keeps the first of equals in call order, and a float SUM is
// exact — the answer GroupAggregateWith gives for one group over the
// inputs concatenated, however they were split into Adds. A Read API
// aggregate session folds its plan's files through it.
type Fold struct {
	m     Mem
	specs []AggSpec // Col: the first input added, which fixes the type
	parts []*aggPartial
	ids   []int32 // all zero: every row is in the one group
}

// NewFold starts a fold of one aggregate per kind.
func NewFold(m Mem, kinds []AggKind) *Fold {
	f := &Fold{m: m, specs: make([]AggSpec, len(kinds)), parts: make([]*aggPartial, len(kinds))}
	for s, k := range kinds {
		f.specs[s].Kind = k
	}
	return f
}

// Add folds one input column per aggregate, after every row added
// before. Each aggregate's input keeps the type it first had.
func (f *Fold) Add(cols []*Column) error {
	if len(cols) != len(f.specs) {
		return fmt.Errorf("vector: %d fold inputs for %d aggregates", len(cols), len(f.specs))
	}
	al := f.m.Allocator()
	for s, c := range cols {
		sp := &f.specs[s]
		switch {
		case f.parts[s] == nil:
			sp.Col = c
			f.parts[s] = newAggPartial(al, *sp, 1, nil)
		case c.Type != sp.Col.Type:
			return fmt.Errorf("vector: fold input %d changed type from %v to %v", s, sp.Col.Type, c.Type)
		}
		if len(f.ids) < c.Len {
			f.ids = al.Int32s(c.Len)
		}
		p, ka := f.parts[s], valueAccess(c)
		if p.sumF == nil {
			accumRange(p, *sp, ka, f.ids, identity(c.Len), 0)
			continue
		}
		// A float SUM stays a plain sum while every add is exact. Its
		// first inexact Add moves it into a superaccumulator — the
		// exact sum so far, then that Add's inputs — and every later Add
		// lands there too.
		prev := p.sumF[0]
		if p.wide != nil {
			p.sumF[0], p.inexact[0] = negZero, false
		}
		accumRange(p, *sp, ka, f.ids, identity(c.Len), 0)
		if p.wide == nil {
			if !p.inexact[0] {
				continue
			}
			p.wide = &exactSum{}
			p.wide.add(prev)
		}
		if !p.inexact[0] {
			p.wide.add(p.sumF[0])
			continue
		}
		var vals []float64
		if kc := ka.c; kc.Enc == Plain && kc.Nulls == nil {
			vals = kc.Floats[:kc.Len]
		} else {
			for i := 0; i < kc.Len; i++ {
				if !ka.null(i) {
					vals = append(vals, kc.Floats[ka.valIdx(i)])
				}
			}
		}
		p.wide.addSlice(vals)
	}
	return nil
}

// Finish returns the fold's answer, one single-row column per
// aggregate, typed by AggOutput: COUNT over nothing is 0, SUM, MIN and
// MAX over no value NULL.
func (f *Fold) Finish() []*Column {
	out := make([]*Column, len(f.specs))
	for s, sp := range f.specs {
		p := f.parts[s]
		if p == nil && sp.Kind == AggCount {
			p = newAggPartial(f.m.Allocator(), sp, 1, nil)
		}
		var c *Column
		if p != nil {
			c = finishSpec(f.m, p, sp, 1)
		}
		out[s] = AggOutput(f.m, c, 1)
	}
	return out
}
