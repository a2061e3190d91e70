package vector

// This file implements the direct-address kernels: when a key's values
// fall in a small range, a slot is the value minus the range's minimum
// and a table is an array of slots, so a row costs one subtraction and
// one load — no hash, no probe sequence, no key compare. GroupKeysWith
// groups a plain integer key this way when its range allows, and the
// row pass of a dictionary key (whose codes are a dense range by
// construction: code + 1, which takes NULL's NullIdx to slot 0) always;
// the typed N:1 join builds its table this way when the build side's
// range allows.

// The density cap of a direct-address table: at most denseRowFactor
// slots per row of the input it is built from, and never more than
// denseMaxSlots, so a table costs no more memory than the rows it
// indexes and stays cache-resident.
const (
	denseRowFactor = 4
	denseMaxSlots  = 1 << 16
)

// DenseCap is the density cap for an input of rows rows: the most key
// values a direct-address table built from it may span.
func DenseCap(rows int) int { return min(denseRowFactor*rows, denseMaxSlots) }

// denseRange returns the minimum of vals and the number of slots their
// range takes, ok when that is within DenseCap(len(vals)). It stops at
// the first value that takes the range past the cap, so a sparse key
// pays a few rows for the test, not a pass. The range is taken in
// uint64: hi − lo of int64s near MinInt64 and MaxInt64 cannot overflow
// there.
func denseRange(vals []int64) (lo int64, span int, ok bool) {
	if len(vals) == 0 {
		return 0, 0, false
	}
	limit := uint64(DenseCap(len(vals)))
	lo, hi := vals[0], vals[0]
	for _, v := range vals[1:] {
		if v < lo {
			lo = v
		} else if v > hi {
			hi = v
		} else {
			continue
		}
		if uint64(hi)-uint64(lo) >= limit {
			return 0, 0, false
		}
	}
	return lo, int(uint64(hi)-uint64(lo)) + 1, true
}

// denseKey is what a direct-address table is indexed by: an integer key
// value, or a dictionary code.
type denseKey interface{ int64 | uint32 }

// denseGrouper is one run of the direct-address grouping. Each worker
// owns span slots of seen and of list: seen marks the slots it has met,
// list holds, in row order, the first row of each — at most span of
// them. A morsel's new rows are a run of its worker's list (owner, off,
// cnt per morsel), which the merge replays in morsel order.
type denseGrouper[T denseKey] struct {
	vals          []T
	base          T
	span          int
	seen          []bool
	list          []int32
	fill          []int32 // per worker: rows in its list
	owner, off, n []int32 // per morsel
	slotID        []int32 // per slot: its group
	ids           []int32
}

// firsts records morsel mor's rows [lo, hi) that are the first of their
// slot in worker w's morsels, which it claims in ascending order. Once
// the worker has met every slot no row can be a first, and once it has
// met every slot but slot 0 (a dictionary's NULL) only a row of that
// slot can be.
func (d *denseGrouper[T]) firsts(w, mor, lo, hi int) {
	span, base := d.span, d.base
	seen, list := d.seen[w*span:(w+1)*span], d.list[w*span:(w+1)*span]
	vals := d.vals[:hi]
	c := int(d.fill[w])
	start := c
	i := lo
	for ; i < hi && c < span && (c < span-1 || seen[0]); i++ {
		if s := denseSlot(vals[i], base, span); !seen[s] {
			seen[s] = true
			list[c] = int32(i)
			c++
		}
	}
	if c == span-1 {
		for ; i < hi; i++ {
			if denseSlot(vals[i], base, span) == 0 {
				seen[0] = true
				list[c] = int32(i)
				c++
				break
			}
		}
	}
	d.fill[w] = int32(c)
	d.owner[mor], d.off[mor], d.n[mor] = int32(w), int32(start), int32(c-start)
}

// assign writes rows [lo, hi)'s group IDs.
func (d *denseGrouper[T]) assign(_, _, lo, hi int) {
	ids, vals, slotID, base, span := d.ids[lo:hi], d.vals[lo:hi], d.slotID, d.base, d.span
	for i, v := range vals {
		ids[i] = slotID[denseSlot(v, base, span)]
	}
}

// groupDense is GroupKeysWith by direct address over span slots above
// base. The global first row of a slot lies in the first morsel that
// holds it, and whichever worker ran that morsel had not met the slot
// before (its earlier morsels are earlier rows), so replaying each
// morsel's new rows in morsel order meets every slot first at its first
// row: groups are numbered in first-encounter order, as every grouping
// kernel numbers them. class, when non-nil, maps slots to nClass key
// classes (a dictionary's entries that are one key); a group is then a
// class, numbered at the first row of any of its slots. Closure-free at
// one worker: it allocates nothing outside al.
func groupDense[T denseKey](al Alloc, vals []T, base T, span int, class []int32, nClass, workers int) Grouping {
	n := len(vals)
	mc := morselCount(n)
	nw := max(min(workers, mc), 1)
	d := denseGrouper[T]{
		vals: vals, base: base, span: span,
		seen: al.Bools(nw * span), list: al.Int32s(nw * span), fill: al.Int32s(nw),
		owner: al.Int32s(mc), off: al.Int32s(mc), n: al.Int32s(mc),
		slotID: al.Int32s(span), ids: al.Int32s(n),
	}
	var dp *denseGrouper[T] // the fan-out's copy: only it reaches the heap
	if nw == 1 {
		for mor := 0; mor < mc; mor++ {
			lo, hi := morselBounds(mor, n)
			d.firsts(0, mor, lo, hi)
		}
	} else {
		dp = new(denseGrouper[T])
		*dp = d
		forMorsels(n, nw, dp.firsts)
	}

	groups, classID := span, d.slotID // without classes a slot is its own class
	if class != nil {
		groups, classID = nClass, al.Int32s(nClass)
	}
	rep := al.Int32s(min(groups, n))
	g := int32(0)
	for mor := 0; mor < mc; mor++ {
		at := int(d.owner[mor])*span + int(d.off[mor])
		for _, r := range d.list[at : at+int(d.n[mor])] {
			s := denseSlot(vals[r], base, span)
			c := s
			if class != nil {
				c = int(class[s])
			}
			if classID[c] == 0 { // IDs are held +1 here: 0 is unnumbered
				rep[g] = r
				g++
				classID[c] = g
			}
			d.slotID[s] = classID[c]
		}
	}
	for s := range d.slotID {
		d.slotID[s]--
	}

	if nw == 1 {
		d.assign(0, 0, 0, n)
	} else {
		forMorsels(n, nw, dp.assign)
	}
	return Grouping{NumGroups: int(g), IDs: d.ids, Rep: rep[:g], Strategy: GroupDense}
}
