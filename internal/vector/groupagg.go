package vector

// This file implements the grouped-aggregation kernel: GroupKeys
// assigns every row a dense group ID from typed multi-column keys
// (morsel-parallel, first-encounter group order), and GroupAggregate
// folds SUM/COUNT/MIN/MAX partials per group without per-row Value
// boxing.
//
// Determinism contract: results are bit-identical for every worker
// count. Group IDs follow global first-encounter (row) order because
// per-morsel local groupings are merged sequentially in morsel order.
// Integer adds and tie-broken min/max merge commutatively across
// workers; float SUM/MIN/MAX are not associative (and min/max folds
// are order-sensitive in the presence of NaN), so those run in a
// dedicated sequential pass in ascending row order — exactly the
// order the row-at-a-time path used.

// nullKeyHash is the hash contribution of a NULL group-key value.
// Unlike join keys, GROUP BY treats NULL as a regular key (all NULLs
// form one group).
var nullKeyHash = mix64(^uint64(0))

// Grouping is the outcome of GroupKeys: a dense group ID per row plus
// one representative row per group, both in first-encounter order.
type Grouping struct {
	NumGroups int
	IDs       []int32 // len == n; IDs[i] is row i's group
	Rep       []int32 // len == NumGroups; first row of each group (-1 if none)
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

// GroupKeysWith is GroupKeys with an explicit memory policy. The
// per-morsel map[uint64][]int32 tables of the original implementation
// are replaced by reusable per-worker open-addressing tables and flat
// representative buffers — zero steady-state allocation — while
// producing the identical grouping (global first-encounter order,
// merged sequentially in morsel order).
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
	ka := make([]keyAccess, len(keys))
	for i, c := range keys {
		ka[i] = newKeyAccess(al, c)
	}

	hashes := al.Uint64s(n)
	forMorsels(n, workers, func(_, _, lo, hi int) {
		groupHashRange(ka, hashes, lo, hi)
	})

	mc := morselCount(n)
	nw := workers
	if nw > mc {
		nw = mc
	}
	ids := al.Int32s(n)

	// Per-morsel local grouping (parallel): local IDs in local
	// first-encounter order written straight into ids, representatives
	// appended to a flat per-worker buffer. tabs hold the local row of
	// each occupied slot's representative relative to the morsel's
	// base; touched lists make the reset between morsels O(groups).
	tabs := make([][]int32, nw)
	touch := make([][]int32, nw)
	repBufs := make([][]int32, nw)
	repWorker := al.Int32s(mc)
	repOff := al.Int32s(mc)
	repLen := al.Int32s(mc)
	forMorsels(n, nw, func(w, mor, lo, hi int) {
		tab := tabs[w]
		if tab == nil {
			tab = al.Int32s(localTableSize)
			for i := range tab {
				tab[i] = -1
			}
			tabs[w] = tab
		}
		tb := touch[w][:0]
		rb := repBufs[w]
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
		repBufs[w] = rb
		touch[w] = tb[:0]
		repWorker[mor], repOff[mor], repLen[mor] = int32(w), base, int32(len(rb))-base
	})

	// Sequential merge in morsel order: global group IDs come out in
	// global first-encounter order regardless of worker count. The
	// global table is open-addressing too, sized for half load.
	totalReps := 0
	for m2 := 0; m2 < mc; m2++ {
		totalReps += int(repLen[m2])
	}
	gsize := 8
	for gsize < 2*totalReps {
		gsize <<= 1
	}
	gtab := al.Int32s(gsize)
	for i := range gtab {
		gtab[i] = -1
	}
	gmask := gsize - 1
	repArr := al.Int32s(totalReps)
	trans := al.Int32s(totalReps)
	tBase := al.Int32s(mc)
	nGroups := 0
	tb := 0
	for m2 := 0; m2 < mc; m2++ {
		tBase[m2] = int32(tb)
		rb := repBufs[repWorker[m2]]
		for li := 0; li < int(repLen[m2]); li++ {
			r := rb[int(repOff[m2])+li]
			h := hashes[r]
			slot := int(h) & gmask
			var gid int32
			for {
				cand := gtab[slot]
				if cand < 0 {
					gid = int32(nGroups)
					repArr[nGroups] = r
					nGroups++
					gtab[slot] = gid
					break
				}
				gr := repArr[cand]
				if hashes[gr] == h && groupKeysEq(ka, int(r), int(gr)) {
					gid = cand
					break
				}
				slot = (slot + 1) & gmask
			}
			trans[tb+li] = gid
		}
		tb += int(repLen[m2])
	}

	// Parallel translation of local IDs to global IDs.
	forMorsels(n, nw, func(_, mor, lo, hi int) {
		b := int(tBase[mor])
		for i := lo; i < hi; i++ {
			ids[i] = trans[b+int(ids[i])]
		}
	})
	return Grouping{NumGroups: nGroups, IDs: ids, Rep: repArr[:nGroups]}
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
	cnt    []int64   // rows folded (non-null; all rows for COUNT(*))
	sumI   []int64   // integer SUM
	sumF   []float64 // float SUM (sequential pass only)
	set    []bool    // MIN/MAX: group has a value
	accI   []int64   // MIN/MAX acc for Int64/Timestamp
	accF   []float64 // MIN/MAX acc for Float64 (sequential pass only)
	accS   []string  // MIN/MAX acc for String/Bytes
	accB   []bool    // MIN/MAX acc for Bool
	accRow []int32   // row index of the current MIN/MAX acc (merge tie-break)
}

func newAggPartial(al Alloc, sp AggSpec, numGroups int) *aggPartial {
	p := &aggPartial{cnt: al.Int64s(numGroups)}
	if sp.Col == nil {
		return p
	}
	switch sp.Kind {
	case AggSum:
		if sp.Col.Type == Float64 {
			p.sumF = al.Float64s(numGroups)
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
// row order on one goroutine: float accumulation is not associative
// (SUM), and the historical min/max fold is order-sensitive when NaNs
// are present, so all Float64 folds except COUNT stay sequential.
func sequentialSpec(sp AggSpec) bool {
	return sp.Col != nil && sp.Col.Type == Float64 && sp.Kind != AggCount
}

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
				p.sumF[g] += ka.c.Floats[ka.valIdx(i)]
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

// mergePartial folds src into dst. Sums and counts add; min/max keeps
// the strictly better value and breaks ties toward the smaller row
// index, which is commutative and reproduces the sequential
// keep-first fold for every type this path handles (no NaNs: Float64
// never takes this path).
func mergePartial(dst, src *aggPartial, sp AggSpec, numGroups int) {
	for g := 0; g < numGroups; g++ {
		dst.cnt[g] += src.cnt[g]
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

// finishSpec materializes the per-group result Values of one spec,
// matching the row-at-a-time semantics: COUNT is never NULL; SUM and
// MIN/MAX over zero non-null rows are NULL; integer-family SUM yields
// Int64 (even for Timestamp inputs); MIN/MAX keep the column's type.
func finishSpec(p *aggPartial, sp AggSpec, out []Value) {
	switch sp.Kind {
	case AggCount:
		for g := range out {
			out[g] = IntValue(p.cnt[g])
		}
	case AggSum:
		for g := range out {
			if p.cnt[g] == 0 {
				out[g] = NullValue
			} else if p.sumF != nil {
				out[g] = FloatValue(p.sumF[g])
			} else {
				out[g] = IntValue(p.sumI[g])
			}
		}
	case AggMin, AggMax:
		for g := range out {
			if !p.set[g] {
				out[g] = NullValue
				continue
			}
			switch sp.Col.Type {
			case Int64:
				out[g] = IntValue(p.accI[g])
			case Timestamp:
				out[g] = TimestampValue(p.accI[g])
			case Float64:
				out[g] = FloatValue(p.accF[g])
			case Bool:
				out[g] = BoolValue(p.accB[g])
			case String:
				out[g] = StringValue(p.accS[g])
			default:
				out[g] = Value{Type: Bytes, S: p.accS[g]}
			}
		}
	}
}

// GroupAggregate computes the given aggregates per group and returns
// results[spec][group]. ids and numGroups come from GroupKeys;
// workers bounds the morsel-parallel fan-out. Associative folds
// (COUNT, integer SUM, tie-broken MIN/MAX) run morsel-parallel with
// per-worker partials; Float64 SUM/MIN/MAX fold sequentially in row
// order so float results stay bit-identical to the sequential path.
func GroupAggregate(ids []int32, numGroups int, specs []AggSpec, workers int) [][]Value {
	return GroupAggregateWith(Mem{}, ids, numGroups, specs, workers)
}

// GroupAggregateWith is GroupAggregate taking accumulator arrays (and
// dictionary hash caches) from m's allocator.
func GroupAggregateWith(m Mem, ids []int32, numGroups int, specs []AggSpec, workers int) [][]Value {
	if workers < 1 {
		workers = 1
	}
	al := m.Allocator()
	n := len(ids)

	kas := make([]keyAccess, len(specs))
	for s, sp := range specs {
		if sp.Col != nil {
			kas[s] = newKeyAccess(al, sp.Col)
		}
	}

	nWorkers := workers
	if m := morselCount(n); nWorkers > m {
		nWorkers = m
	}
	if nWorkers < 1 {
		nWorkers = 1
	}
	partials := make([][]*aggPartial, nWorkers)
	for w := range partials {
		partials[w] = make([]*aggPartial, len(specs))
		for s := range specs {
			if !sequentialSpec(specs[s]) {
				partials[w][s] = newAggPartial(al, specs[s], numGroups)
			}
		}
	}
	forMorsels(n, nWorkers, func(w, _, lo, hi int) {
		for s := range specs {
			if p := partials[w][s]; p != nil {
				accumRange(p, specs[s], kas[s], ids, lo, hi)
			}
		}
	})

	// Result rows for all specs share one flat backing array — the
	// group count is known, so per-spec appends would only fragment.
	out := make([][]Value, len(specs))
	flat := make([]Value, len(specs)*numGroups)
	for s, sp := range specs {
		var merged *aggPartial
		if sequentialSpec(sp) {
			merged = newAggPartial(al, sp, numGroups)
			accumRange(merged, sp, kas[s], ids, 0, n)
		} else {
			merged = partials[0][s]
			for w := 1; w < nWorkers; w++ {
				mergePartial(merged, partials[w][s], sp, numGroups)
			}
		}
		out[s] = flat[s*numGroups : (s+1)*numGroups]
		finishSpec(merged, sp, out[s])
	}
	return out
}
