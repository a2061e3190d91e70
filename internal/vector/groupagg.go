package vector

import "fmt"

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
)

func (s GroupStrategy) String() string {
	switch s {
	case GroupDict:
		return "dict"
	case GroupInt64:
		return "int64"
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

// groupHashRange fills hashes[lo:hi] for grouping: like hashKeyRange
// but NULL key values contribute nullKeyHash instead of poisoning the
// row.
func groupHashRange(keys []keyAccess, hashes []uint64, lo, hi int) {
	for i := lo; i < hi; i++ {
		hashes[i] = 0x9e3779b97f4a7c15
	}
	for _, k := range keys {
		for i := lo; i < hi; i++ {
			if k.null(i) {
				hashes[i] = combineHash(hashes[i], nullKeyHash)
			} else {
				hashes[i] = combineHash(hashes[i], k.hash(i))
			}
		}
	}
}

// groupKeysEq reports group-key equality between rows i and j of the
// same key columns (NULL == NULL for grouping).
func groupKeysEq(keys []keyAccess, i, j int) bool {
	for k := range keys {
		ni, nj := keys[k].null(i), keys[k].null(j)
		if ni || nj {
			if ni != nj {
				return false
			}
			continue
		}
		if !valEq(keys[k], i, keys[k], j) {
			return false
		}
	}
	return true
}

// GroupKeys computes the grouping of n rows by the given key columns.
// With no key columns it returns the single global group (even over
// zero rows, matching SQL's global-aggregate-of-empty-input one-row
// semantics; Rep[0] is -1 in that case).
func GroupKeys(keys []*Column, n, workers int) Grouping {
	return GroupKeysWith(Mem{}, keys, n, workers)
}

// localTableSize is the per-worker open-addressing table used for
// morsel-local grouping: a power of two at least 2x MorselRows, so
// the table never exceeds half load and never needs to grow. Exact
// hash+key comparison makes the table size invisible in results.
const localTableSize = 8192

// dictGroupFactor is how many rows per dictionary entry make grouping a
// Dict key by its codes the cheaper plan: below it the dictionary is
// not much smaller than the column and hashing the rows costs the same.
const dictGroupFactor = 4

// GroupKeysWith is GroupKeys with an explicit memory policy: reusable
// per-worker open-addressing tables and flat representative buffers
// from m's allocator. Three kernels produce the one result (global
// first-encounter order): a single Dict key whose dictionary fits a
// morsel and is much smaller than n groups its dictionary entries and
// maps the rows' codes (groupDict); a single plain non-null integer key
// hashes inline and compares values (groupInts); everything else —
// several keys, NULL-bearing, float, string, RLE — hashes each row
// once and compares through keyAccess.
func GroupKeysWith(m Mem, keys []*Column, n, workers int) Grouping {
	if workers < 1 {
		workers = 1
	}
	al := m.Allocator()
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
	if len(keys) == 1 {
		switch c := keys[0]; {
		case c.Enc == Dict && c.dictLen() <= MorselRows && c.dictLen()*dictGroupFactor <= n:
			return groupDict(al, c, n)
		case plainIntKey(c):
			return groupInts(al, c.Ints, workers)
		}
	}
	ka := make([]keyAccess, len(keys))
	for i, c := range keys {
		ka[i] = newKeyAccess(al, c)
	}

	hashes := al.Uint64s(n)
	forMorsels(n, workers, func(_, _, lo, hi int) {
		groupHashRange(ka, hashes, lo, hi)
	})

	// Per-morsel local grouping (parallel), then a sequential merge in
	// morsel order: global group IDs come out in global first-encounter
	// order regardless of worker count. The global table is
	// open-addressing too, sized for half load.
	ids := al.Int32s(n)
	lg := newLocalGroups(al, n, workers)
	tabs := make([][]int32, lg.workers)
	forMorsels(n, lg.workers, func(w, mor, lo, hi int) {
		if tabs[w] == nil {
			tabs[w] = emptyTable(al, localTableSize)
		}
		base := len(lg.reps[w])
		lg.touch[w], lg.reps[w] = groupMorsel(al, ka, hashes, ids, tabs[w], lg.touch[w], lg.reps[w], lo, hi)
		lg.record(w, mor, base)
	})

	local, gtab, repArr, trans := lg.mergeBuffers(al)
	gmask := len(gtab) - 1
	nGroups := 0
	for t, r := range local {
		h := hashes[r]
		slot := int(h) & gmask
		for {
			cand := gtab[slot]
			if cand < 0 {
				repArr[nGroups] = r
				gtab[slot] = int32(nGroups)
				trans[t] = int32(nGroups)
				nGroups++
				break
			}
			if gr := repArr[cand]; hashes[gr] == h && groupKeysEq(ka, int(r), int(gr)) {
				trans[t] = cand
				break
			}
			slot = (slot + 1) & gmask
		}
	}
	lg.translate(ids, trans)
	return Grouping{NumGroups: nGroups, IDs: ids, Rep: repArr[:nGroups]}
}

// emptyTable returns an open-addressing table of size slots, all free.
func emptyTable(al Alloc, size int) []int32 {
	tab := al.Int32s(size)
	for i := range tab {
		tab[i] = -1
	}
	return tab
}

// groupMorsel gives rows [lo, hi) local group IDs in first-encounter
// order, counted from the morsel's first group: ids[i] is written in
// place and each new group's first row is appended to rb. tab holds,
// per occupied slot, the local ID of the group there; it must be all
// free on entry and is freed again before returning, in O(groups)
// through the touched-slot list tb.
func groupMorsel(al Alloc, ka []keyAccess, hashes []uint64, ids, tab, tb, rb []int32, lo, hi int) (touched, reps []int32) {
	tb = tb[:0]
	base := int32(len(rb))
	for i := lo; i < hi; i++ {
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
			if hashes[rep] == h && groupKeysEq(ka, i, int(rep)) {
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
	n, workers  int
	reps, touch [][]int32 // per worker
	worker      []int32   // per morsel: which worker ran it
	off, cnt    []int32   // per morsel: its reps in reps[worker]
	base        []int32   // per morsel: its first slot in the local-to-global table
}

func newLocalGroups(al Alloc, n, workers int) *localGroups {
	mc := morselCount(n)
	if workers > mc {
		workers = mc
	}
	return &localGroups{
		n: n, workers: workers,
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
// first row of every local group in morsel order then local
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

// translate rewrites the morsel-local IDs in ids to global ones.
func (lg *localGroups) translate(ids, trans []int32) {
	forMorsels(lg.n, lg.workers, func(_, mor, lo, hi int) {
		b := int(lg.base[mor])
		for i := lo; i < hi; i++ {
			ids[i] = trans[b+int(ids[i])]
		}
	})
}

// groupInts is GroupKeysWith for one plain non-null integer key. Same
// plan as the general kernel — local tables per morsel, sequential
// merge in morsel order, parallel translation — with the value itself
// in the table beside the group ID: no hash array, no keyAccess.
func groupInts(al Alloc, vals []int64, workers int) Grouping {
	n := len(vals)
	ids := al.Int32s(n)
	lg := newLocalGroups(al, n, workers)
	tabs := make([][]int32, lg.workers)
	tabKeys := make([][]int64, lg.workers)
	forMorsels(n, lg.workers, func(w, mor, lo, hi int) {
		if tabs[w] == nil {
			tabs[w], tabKeys[w] = emptyTable(al, localTableSize), al.Int64s(localTableSize)
		}
		tab, tabKey, tb, rb := tabs[w], tabKeys[w], lg.touch[w][:0], lg.reps[w]
		base := len(rb)
		for i := lo; i < hi; i++ {
			v := vals[i]
			slot := int(intSlot(v) & (localTableSize - 1))
			for tab[slot] >= 0 && tabKey[slot] != v {
				slot = (slot + 1) & (localTableSize - 1)
			}
			id := tab[slot]
			if id < 0 {
				id = int32(len(rb) - base)
				rb = appendI32(al, rb, int32(i))
				tab[slot], tabKey[slot] = id, v
				tb = appendI32(al, tb, int32(slot))
			}
			ids[i] = id
		}
		for _, s := range tb {
			tab[s] = -1
		}
		lg.touch[w], lg.reps[w] = tb, rb
		lg.record(w, mor, base)
	})

	local, gtab, repArr, trans := lg.mergeBuffers(al)
	gmask := uint64(len(gtab) - 1)
	nGroups := 0
	for t, r := range local {
		v := vals[r]
		slot := intSlot(v) & gmask
		for gtab[slot] >= 0 && vals[repArr[gtab[slot]]] != v {
			slot = (slot + 1) & gmask
		}
		if gtab[slot] < 0 {
			repArr[nGroups] = r
			gtab[slot] = int32(nGroups)
			nGroups++
		}
		trans[t] = gtab[slot]
	}
	lg.translate(ids, trans)
	return Grouping{NumGroups: nGroups, IDs: ids, Rep: repArr[:nGroups], Strategy: GroupInt64}
}

// groupDict is GroupKeysWith for one Dict key with few dictionary
// entries. The entries are grouped by the general kernel's morsel loop
// (so duplicate entries, NaNs and ±0.0 fall into the classes key
// identity gives them); a row's group is then its code's class, NULL
// being a class of its own, numbered in first-encounter row order in
// one sequential pass that touches no value. Closure-free: it
// allocates nothing outside al.
func groupDict(al Alloc, c *Column, n int) Grouping {
	d := c.dictLen()
	entries := Column{Type: c.Type, Len: d, Enc: Plain, Ints: c.Ints, Floats: c.Floats, Bools: c.Bools, Strs: c.Strs}
	ka := [1]keyAccess{{c: &entries}}
	hashes := al.Uint64s(d)
	groupHashRange(ka[:], hashes, 0, d)
	class := al.Int32s(d + 1) // class[code]; one morsel, so local IDs are the classes
	_, classRep := groupMorsel(al, ka[:], hashes, class, emptyTable(al, localTableSize), nil, nil, 0, d)
	class[d] = int32(len(classRep)) // NULL

	classID := emptyTable(al, len(classRep)+1)
	codeID := emptyTable(al, d+1)
	rep := al.Int32s(len(classRep) + 1)
	ids := al.Int32s(n)
	nGroups := 0
	for i, code := range c.Codes[:n] {
		if code == NullIdx {
			code = uint32(d)
		}
		id := codeID[code]
		if id < 0 { // first row with this code
			if id = classID[class[code]]; id < 0 {
				id = int32(nGroups)
				classID[class[code]] = id
				rep[nGroups] = int32(i)
				nGroups++
			}
			codeID[code] = id
		}
		ids[i] = id
	}
	return Grouping{NumGroups: nGroups, IDs: ids, Rep: rep[:nGroups], Strategy: GroupDict}
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

// fusedSpec reports whether the fused walk folds sp: COUNT(*), or a
// COUNT or SUM over a Plain null-free input, whose rows it reads
// directly. Every row of a morsel counts for all of them, so they share
// one count.
func fusedSpec(sp AggSpec) bool {
	return sp.Col == nil || ((sp.Kind == AggCount || sp.Kind == AggSum) && sp.Col.Enc == Plain && sp.Col.Nulls == nil)
}

// fusedInt and fusedFloat are the fused walk's SUMs: a worker's
// accumulators and the input they read.
type fusedInt struct{ vals, acc []int64 }

type fusedFloat struct {
	vals, acc []float64
	part      *aggPartial
	rounded   bool // an add of the last morsel rounded: see dropRounded
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

func newAggWorker(al Alloc, specs []AggSpec, numGroups int) *aggWorker {
	w := &aggWorker{parts: make([]*aggPartial, len(specs))}
	for s, sp := range specs {
		switch {
		case sequentialSpec(sp):
		case fusedSpec(sp):
			if !w.fused {
				w.cnt, w.fused = al.Int64s(numGroups), true
			}
			p := newAggPartial(al, sp, numGroups, w.cnt)
			w.parts[s] = p
			if sp.Kind != AggSum {
				continue
			}
			switch c := sp.Col; c.Type {
			case Int64, Timestamp:
				w.ints = append(w.ints, fusedInt{vals: c.Ints[:c.Len], acc: p.sumI})
			case Float64:
				w.floats = append(w.floats, fusedFloat{vals: c.Floats[:c.Len], acc: p.sumF, part: p})
			}
			// Bool/String/Bytes SUM counts its rows; its sum stays 0.
		default:
			w.parts[s] = newAggPartial(al, sp, numGroups, nil)
		}
	}
	return w
}

// fold folds rows [lo, hi) of every spec but the sequential ones: the
// fused specs in one walk, the rest spec by spec. The caller hands each
// worker its ranges in ascending row order.
func (w *aggWorker) fold(specs []AggSpec, kas []keyAccess, ids []int32, numGroups, lo, hi int) {
	switch {
	case !w.fused:
	case numGroups == 1:
		w.foldOne(lo, hi)
	default:
		w.foldFused(ids, lo, hi)
	}
	for s, p := range w.parts {
		if p != nil && !fusedSpec(specs[s]) {
			accumRange(p, specs[s], kas[s], ids, lo, hi)
		}
	}
}

// foldOne is the fused walk of the one group: every sum runs in
// registers over its input and lands in its accumulator once.
func (w *aggWorker) foldOne(lo, hi int) {
	w.cnt[0] += int64(hi - lo)
	for k := range w.ints {
		f := &w.ints[k]
		var s int64
		for _, v := range f.vals[lo:hi] {
			s += v
		}
		f.acc[0] += s
	}
	for k := range w.floats {
		f := &w.floats[k]
		s, exact := sumRun(f.vals[lo:hi])
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
func (w *aggWorker) foldFused(ids []int32, lo, hi int) {
	ints, floats := w.ints, w.floats
	switch {
	case len(ints) > 0 && len(floats) > 0:
		if next := walkCountIntFloat(w.cnt, ints[0], floats[0], ids, lo, hi); next < hi {
			floats[0].rounded = true
			walkCountInt(w.cnt, ints[0], ids, next, hi)
		}
		ints, floats = ints[1:], floats[1:]
	case len(ints) > 0:
		walkCountInt(w.cnt, ints[0], ids, lo, hi)
		ints = ints[1:]
	case len(floats) > 0:
		next := walkCountFloat(w.cnt, floats[0], ids, lo, hi)
		floats[0].rounded = next < hi
		for _, g := range ids[next:hi] {
			w.cnt[g]++
		}
		floats = floats[1:]
	default:
		for _, g := range ids[lo:hi] {
			w.cnt[g]++
		}
	}
	for _, f := range ints {
		acc, vals := f.acc, f.vals[:hi]
		for i := lo; i < hi; i++ {
			acc[ids[i]] += vals[i]
		}
	}
	for k := range floats {
		floats[k].rounded = walkFloat(floats[k], ids, lo, hi) < hi
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

// The float walks stop at the first add that rounds and return the row
// after it (hi if none did): the rest of the morsel is not added.

func walkCountIntFloat(cnt []int64, fi fusedInt, ff fusedFloat, ids []int32, lo, hi int) int {
	iacc, ivals, facc, fvals := fi.acc, fi.vals[:hi], ff.acc, ff.vals[:hi]
	for i := lo; i < hi; i++ {
		g := ids[i]
		cnt[g]++
		iacc[g] += ivals[i]
		t, ok := addExact(facc[g], fvals[i])
		if !ok {
			return i + 1
		}
		facc[g] = t
	}
	return hi
}

func walkCountInt(cnt []int64, f fusedInt, ids []int32, lo, hi int) {
	acc, vals := f.acc, f.vals[:hi]
	for i := lo; i < hi; i++ {
		g := ids[i]
		cnt[g]++
		acc[g] += vals[i]
	}
}

func walkCountFloat(cnt []int64, f fusedFloat, ids []int32, lo, hi int) int {
	acc, vals := f.acc, f.vals[:hi]
	for i := lo; i < hi; i++ {
		g := ids[i]
		cnt[g]++
		t, ok := addExact(acc[g], vals[i])
		if !ok {
			return i + 1
		}
		acc[g] = t
	}
	return hi
}

func walkFloat(f fusedFloat, ids []int32, lo, hi int) int {
	acc, vals := f.acc, f.vals[:hi]
	for i := lo; i < hi; i++ {
		t, ok := addExact(acc[ids[i]], vals[i])
		if !ok {
			return i + 1
		}
		acc[ids[i]] = t
	}
	return hi
}

// merge folds worker o's partials into w's, the shared count once.
func (w *aggWorker) merge(o *aggWorker, specs []AggSpec, numGroups int) {
	for g := range w.cnt {
		w.cnt[g] += o.cnt[g]
	}
	for s, p := range w.parts {
		if p != nil {
			mergePartial(p, o.parts[s], specs[s], numGroups, !fusedSpec(specs[s]))
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

// accumRange folds rows [lo, hi) of one spec into a partial. The
// caller guarantees each worker's ranges arrive in ascending row
// order, so the strict-replace min/max fold records the smallest row
// of the worker's best tie class in accRow.
func accumRange(p *aggPartial, sp AggSpec, ka keyAccess, ids []int32, lo, hi int) {
	if sp.Col == nil {
		for i := lo; i < hi; i++ {
			p.cnt[ids[i]]++
		}
		return
	}
	switch sp.Kind {
	case AggCount:
		for i := lo; i < hi; i++ {
			if !ka.null(i) {
				p.cnt[ids[i]]++
			}
		}
	case AggSum:
		switch ka.c.Type {
		case Int64, Timestamp:
			for i := lo; i < hi; i++ {
				if ka.null(i) {
					continue
				}
				g := ids[i]
				p.cnt[g]++
				p.sumI[g] += ka.c.Ints[ka.valIdx(i)]
			}
		case Float64:
			for i := lo; i < hi; i++ {
				if ka.null(i) {
					continue
				}
				g := ids[i]
				p.cnt[g]++
				t, ok := addExact(p.sumF[g], ka.c.Floats[ka.valIdx(i)])
				p.sumF[g] = t
				if !ok {
					p.inexact[g] = true
				}
			}
		default:
			// Bool/String/Bytes SUM historically summed Value.I, which
			// is always 0 for these types: count rows, sum stays 0.
			for i := lo; i < hi; i++ {
				if !ka.null(i) {
					p.cnt[ids[i]]++
				}
			}
		}
	case AggMin, AggMax:
		min := sp.Kind == AggMin
		switch ka.c.Type {
		case Int64, Timestamp:
			for i := lo; i < hi; i++ {
				if ka.null(i) {
					continue
				}
				g := ids[i]
				v := ka.c.Ints[ka.valIdx(i)]
				if !p.set[g] {
					p.set[g], p.accI[g], p.accRow[g] = true, v, int32(i)
					continue
				}
				// Historical ordering compares numerics as float64.
				c := cmpFloat(float64(v), float64(p.accI[g]))
				if (min && c < 0) || (!min && c > 0) {
					p.accI[g], p.accRow[g] = v, int32(i)
				}
			}
		case Float64:
			for i := lo; i < hi; i++ {
				if ka.null(i) {
					continue
				}
				g := ids[i]
				v := ka.c.Floats[ka.valIdx(i)]
				if !p.set[g] {
					p.set[g], p.accF[g], p.accRow[g] = true, v, int32(i)
					continue
				}
				c := cmpFloat(v, p.accF[g])
				if (min && c < 0) || (!min && c > 0) {
					p.accF[g], p.accRow[g] = v, int32(i)
				}
			}
		case Bool:
			for i := lo; i < hi; i++ {
				if ka.null(i) {
					continue
				}
				g := ids[i]
				v := ka.c.Bools[ka.valIdx(i)]
				if !p.set[g] {
					p.set[g], p.accB[g], p.accRow[g] = true, v, int32(i)
					continue
				}
				c := cmpBool(v, p.accB[g])
				if (min && c < 0) || (!min && c > 0) {
					p.accB[g], p.accRow[g] = v, int32(i)
				}
			}
		default:
			for i := lo; i < hi; i++ {
				if ka.null(i) {
					continue
				}
				g := ids[i]
				v := ka.c.Strs[ka.valIdx(i)]
				if !p.set[g] {
					p.set[g], p.accS[g], p.accRow[g] = true, v, int32(i)
					continue
				}
				c := cmpString(v, p.accS[g])
				if (min && c < 0) || (!min && c > 0) {
					p.accS[g], p.accRow[g] = v, int32(i)
				}
			}
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
				c = cmpFloat(float64(src.accI[g]), float64(dst.accI[g]))
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
// is recomputed from its rows in a superaccumulator and rounded once. One group over a Plain null-free
// input reads its rows in place, a superaccumulator per worker; else
// the groups' non-null inputs are first gathered group by group.
func refold(al Alloc, p *aggPartial, ka keyAccess, ids []int32, numGroups, workers int) {
	c := ka.c
	if numGroups == 1 && c.Enc == Plain && c.Nulls == nil {
		if !p.inexact[0] && !p.refoldAll {
			return
		}
		parts := make([]exactSum, workers)
		forMorsels(len(ids), workers, func(w, _, lo, hi int) {
			parts[w].addSlice(c.Floats[lo:hi])
		})
		for w := 1; w < workers; w++ {
			parts[0].merge(&parts[w])
		}
		p.sumF[0] = parts[0].round()
		return
	}
	// at[g] is group g's first slot in vals, -1 for an exact group.
	at, total := al.Ints(numGroups), 0
	for g, x := range p.inexact[:numGroups] {
		at[g] = -1
		if x || (p.refoldAll && p.cnt[g] > 0) {
			at[g], total = total, total+int(p.cnt[g])
		}
	}
	if total == 0 {
		return
	}
	vals := al.Float64s(total)
	if c.Enc == Plain && c.Nulls == nil {
		for i, v := range c.Floats[:len(ids)] {
			if k := at[ids[i]]; k >= 0 {
				vals[k] = v
				at[ids[i]] = k + 1
			}
		}
	} else {
		for i, g := range ids {
			if k := at[g]; k >= 0 && !ka.null(i) {
				vals[k] = c.Floats[ka.valIdx(i)]
				at[g] = k + 1
			}
		}
	}
	ParallelEach(numGroups, workers, func(g int) {
		if at[g] < 0 {
			return
		}
		p.sumF[g] = exactSumOf(vals[at[g]-int(p.cnt[g]) : at[g]])
	})
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

// GroupAggregate is GroupAggregateWith on the heap.
func GroupAggregate(ids []int32, numGroups int, specs []AggSpec, workers int) []*Column {
	return GroupAggregateWith(Mem{}, ids, numGroups, specs, workers)
}

// GroupAggregateWith computes the given aggregates per group: one typed
// plain column of numGroups rows per spec, accumulator and output
// arrays (they are the same arrays) from m's allocator. ids and
// numGroups come from GroupKeys; workers bounds the morsel-parallel
// fan-out. Every spec but a Float64 MIN/MAX folds morsel-parallel into
// per-worker partials, one walk per morsel for the fused ones; a float
// SUM is the correctly rounded exact sum, refolded into
// superaccumulators only for the groups whose plain sum rounded.
// Float64 MIN/MAX fold sequentially in row order.
func GroupAggregateWith(m Mem, ids []int32, numGroups int, specs []AggSpec, workers int) []*Column {
	if workers < 1 {
		workers = 1
	}
	al := m.Allocator()
	n := len(ids)

	kas := make([]keyAccess, len(specs))
	for s, sp := range specs {
		if sp.Col != nil {
			kas[s] = valueAccess(sp.Col)
		}
	}

	nWorkers := max(min(workers, morselCount(n)), 1)
	wal := al
	if nWorkers > 1 {
		wal = lineAlloc{al}
	}
	ws := make([]*aggWorker, nWorkers)
	for w := range ws {
		ws[w] = newAggWorker(wal, specs, numGroups)
	}
	forMorsels(n, nWorkers, func(w, _, lo, hi int) {
		ws[w].fold(specs, kas, ids, numGroups, lo, hi)
	})
	for _, o := range ws[1:] {
		ws[0].merge(o, specs, numGroups)
	}

	out := make([]*Column, len(specs))
	for s, sp := range specs {
		p := ws[0].parts[s]
		if p == nil {
			p = newAggPartial(al, sp, numGroups, nil)
			accumRange(p, sp, kas[s], ids, 0, n)
		}
		if p.inexact != nil {
			refold(al, p, kas[s], ids, numGroups, nWorkers)
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
			accumRange(p, *sp, ka, f.ids, 0, c.Len)
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
		accumRange(p, *sp, ka, f.ids, 0, c.Len)
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
