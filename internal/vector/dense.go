package vector

import "math"

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

// denseRange returns the minimum of column ci's values over the rows of
// l and the number of slots their range takes, ok when that is within
// DenseCap(l.n). It stops at the first stretch of rows that takes the
// range past the cap, so a sparse key pays a few rows for the test, not
// a pass.
// The range is taken in uint64: hi − lo of int64s near MinInt64 and
// MaxInt64 cannot overflow there.
func denseRange(l *layout, ci int) (lo int64, span int, ok bool) {
	if l.n == 0 {
		return 0, 0, false
	}
	limit := uint64(DenseCap(l.n))
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for p := range l.in {
		vals, rows := l.in[p].Batch.Cols[ci].Ints, l.in[p].Rows(0, l.in[p].N)
		for len(rows) > 0 {
			// A stretch at a time, branch-free; then the cap.
			stretch := rows[:min(len(rows), 512)]
			rows = rows[len(stretch):]
			for _, r := range stretch {
				lo, hi = min(lo, vals[r]), max(hi, vals[r])
			}
			if uint64(hi)-uint64(lo) >= limit {
				return 0, 0, false
			}
		}
	}
	return lo, int(uint64(hi)-uint64(lo)) + 1, true
}

// denseKey is what a direct-address table is indexed by: an integer key
// value, or a dictionary code.
type denseKey interface{ int64 | uint32 }

// intVals and codeVals are a column's direct-address keys.
func intVals(c *Column) []int64   { return c.Ints }
func codeVals(c *Column) []uint32 { return c.Codes }

// denseGrouper is one run of the direct-address grouping over column
// col of l's pieces, whose keys vals reads. Each worker owns span slots
// of seen, list and slots: seen marks the slots it has met, list holds,
// in position order, the first position of each — at most span of them
// — and slots its slot. A morsel's new positions are a run of its
// worker's list (owner, off, n per morsel), which the merge replays in
// morsel order.
type denseGrouper[T denseKey] struct {
	l             layout
	col           int
	vals          func(*Column) []T
	base          T
	span          int
	seen          []bool
	list, slots   []int32
	fill          []int32 // per worker: entries in its list
	owner, off, n []int32 // per morsel
	slotID        []int32 // per slot: its group
	ids           []int32
}

// firsts records morsel mor's positions [lo, hi) of piece p that are
// the first of their slot in worker w's morsels, which it claims in
// ascending order. Once the worker has met every slot no row can be a
// first, and once it has met every slot but slot 0 (a dictionary's
// NULL) only a row of that slot can be.
func (d *denseGrouper[T]) firsts(w, mor, p, lo, hi int) {
	span, base := d.span, d.base
	seen, list, slots := d.seen[w*span:(w+1)*span], d.list[w*span:(w+1)*span], d.slots[w*span:(w+1)*span]
	vals, rows := d.vals(d.l.in[p].Batch.Cols[d.col]), d.l.rows(p, lo, hi)
	c := int(d.fill[w])
	start := c
	k := 0
	for ; k < len(rows) && c < span && (c < span-1 || seen[0]); k++ {
		if s := denseSlot(vals[rows[k]], base, span); !seen[s] {
			seen[s] = true
			list[c], slots[c] = int32(lo+k), int32(s)
			c++
		}
	}
	if c == span-1 {
		for ; k < len(rows); k++ {
			if denseSlot(vals[rows[k]], base, span) == 0 {
				seen[0] = true
				list[c], slots[c] = int32(lo+k), 0
				c++
				break
			}
		}
	}
	d.fill[w] = int32(c)
	d.owner[mor], d.off[mor], d.n[mor] = int32(w), int32(start), int32(c-start)
}

// assign writes positions [lo, hi)'s group IDs.
func (d *denseGrouper[T]) assign(_, _, p, lo, hi int) {
	ids, slotID, base, span := d.ids[lo:hi], d.slotID, d.base, d.span
	vals := d.vals(d.l.in[p].Batch.Cols[d.col])
	for k, r := range d.l.rows(p, lo, hi) {
		ids[k] = slotID[denseSlot(vals[r], base, span)]
	}
}

// groupDense is GroupKeysWith by direct address over span slots above
// base. The global first position of a slot lies in the first morsel
// that holds it, and whichever worker ran that morsel had not met the
// slot before (its earlier morsels are earlier positions), so replaying
// each morsel's new positions in morsel order meets every slot first at
// its first position: groups are numbered in first-encounter order, as
// every grouping kernel numbers them. class, when non-nil, maps slots to
// nClass key classes (a dictionary's entries that are one key); a group
// is then a class, numbered at the first position of any of its slots.
// Closure-free at one worker: it allocates nothing outside al.
func groupDense[T denseKey](al Alloc, l *layout, col int, vals func(*Column) []T, base T, span int, class []int32, nClass, workers int) Grouping {
	n, mc := l.n, l.morsels
	nw := max(min(workers, mc), 1)
	d := denseGrouper[T]{
		l: *l, col: col, vals: vals, base: base, span: span,
		seen: al.Bools(nw * span), list: int32sForOverwrite(al, nw*span), slots: int32sForOverwrite(al, nw*span), fill: al.Int32s(nw),
		owner: al.Int32s(mc), off: al.Int32s(mc), n: al.Int32s(mc),
		slotID: al.Int32s(span), ids: int32sForOverwrite(al, n),
	}
	var dp *denseGrouper[T] // the fan-out's copy: only it reaches the heap
	if nw == 1 {
		for mor := 0; mor < mc; mor++ {
			p, lo, hi := l.bounds(mor)
			d.firsts(0, mor, p, lo, hi)
		}
	} else {
		dp = new(denseGrouper[T])
		*dp = d
		forPieces(l, nw, dp.firsts)
	}

	groups, classID := span, d.slotID // without classes a slot is its own class
	if class != nil {
		groups, classID = nClass, al.Int32s(nClass)
	}
	rep := al.Int32s(min(groups, n))
	g := int32(0)
	for mor := 0; mor < mc; mor++ {
		at := int(d.owner[mor])*span + int(d.off[mor])
		for i := at; i < at+int(d.n[mor]); i++ {
			s := int(d.slots[i])
			c := s
			if class != nil {
				c = int(class[s])
			}
			if classID[c] == 0 { // IDs are held +1 here: 0 is unnumbered
				rep[g] = d.list[i]
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
		for mor := 0; mor < mc; mor++ {
			p, lo, hi := l.bounds(mor)
			d.assign(0, mor, p, lo, hi)
		}
	} else {
		forPieces(l, nw, dp.assign)
	}
	return Grouping{NumGroups: int(g), IDs: d.ids, Rep: rep[:g], Strategy: GroupDense}
}
