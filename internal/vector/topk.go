package vector

import (
	"cmp"
	"slices"
)

// TopK returns the first k positions of the relation in in the order
// keys give, ties broken by position — what a stable sort of its rows
// followed by LIMIT k returns — from m's allocator, in order. With
// k ≥ its rows it sorts every position.
//
// Below that, one bounded max-heap meets the rows in position order,
// each piece's surviving rows read in place: its root is the worst row
// it keeps, and a row whose leading key is strictly worse than the
// root's is rejected with one typed compare of that key; only a tie or
// a win walks the whole key chain, then the position. The kept rows are
// then heap-sorted into place. One walk in position order also keeps
// the answer a function of the rows alone where the order is not total
// — a NaN key ties with every value — so no worker count or schedule
// can change it. Closure-free: it allocates nothing outside m's
// allocator.
//
// The sort handles a row as a ref, its piece above bit 32 and its index
// among the piece's rows below: refs order as positions do, and name
// the row's values without a search.
func TopK(m Mem, in []Selection, keys []SortKey, k int) []int32 {
	al := m.Allocator()
	l := newLayout(al, in)
	k = max(min(k, l.n), 0)
	t := topSort{l: &l, keys: keys}
	var refs []int64
	switch {
	case k == 0:
		return nil
	case k == l.n:
		refs = al.Int64s(l.n)[:0]
		for p := range in {
			for i := 0; i < in[p].N; i++ {
				refs = append(refs, int64(p)<<32|int64(i))
			}
		}
		slices.SortFunc(refs, t.compare)
	default:
		var lead *SortKey
		if len(keys) > 0 {
			lead = &keys[0]
		}
		switch {
		case lead == nil || lead.nulls: // the chain compares every row
			refs = topKOf[int64](al, t, nil, k)
		case lead.kind == sortInts:
			refs = topKOf(al, t, intLead, k)
		case lead.kind == sortNums:
			refs = topKOf(al, t, numLead, k)
		case lead.kind == sortStrs:
			refs = topKOf(al, t, strLead, k)
		default:
			refs = topKOf(al, t, ordLead, k)
		}
	}
	out := al.Int32s(len(refs))
	for i, r := range refs {
		out[i] = int32(l.off[r>>32] + int(uint32(r)))
	}
	return out
}

// The typed leading keys of a piece.
func intLead(p *sortPart) []int64   { return p.ints }
func numLead(p *sortPart) []float64 { return p.nums }
func strLead(p *sortPart) []string  { return p.strs }
func ordLead(p *sortPart) []int32   { return p.ords }

// topSort is the key chain over a relation's refs.
type topSort struct {
	l    *layout
	keys []SortKey
}

// row returns ref r's piece and batch row.
func (t topSort) row(r int64) (int, int32) {
	p, i := int(r>>32), int(uint32(r))
	s := &t.l.in[p]
	if s.Sel != nil {
		return p, s.Sel[i]
	}
	return p, int32(s.Lo + i)
}

// compare orders refs a and b by the keys from the first, then by
// position.
func (t topSort) compare(a, b int64) int {
	return t.compareFrom(0, a, b)
}

func (t topSort) compareFrom(first int, a, b int64) int {
	if first < len(t.keys) {
		pa, ra := t.row(a)
		pb, rb := t.row(b)
		for i := first; i < len(t.keys); i++ {
			if c := t.keys[i].compare(pa, ra, pb, rb); c != 0 {
				return c
			}
		}
	}
	return cmp.Compare(a, b)
}

// topKOf is TopK below every row, over a leading key whose null-free
// values of a piece lead returns, or — lead nil — one the chain
// compares.
func topKOf[T cmp.Ordered](al Alloc, s topSort, lead func(*sortPart) []T, k int) []int64 {
	t := topK[T]{topSort: s, lead: lead}
	if lead != nil {
		t.desc = s.keys[0].desc
	}
	h := al.Int64s(k)[:0]
	for p := range s.l.in {
		var vals []T
		if lead != nil {
			vals = lead(&s.keys[0].parts[p])
		}
		rows := s.l.in[p].Rows(0, s.l.in[p].N)
		i := 0
		for ; i < len(rows) && (len(h) < k || lead == nil); i++ {
			h = t.offer(h, int64(p)<<32|int64(i), k)
		}
		if i == len(rows) {
			continue
		}
		bound := t.leadOf(h[0])
		for ; i < len(rows); i++ {
			// Skip to the next row not strictly worse than the root.
			if t.desc {
				for i < len(rows) && vals[rows[i]] < bound {
					i++
				}
			} else {
				for i < len(rows) && vals[rows[i]] > bound {
					i++
				}
			}
			if r := int64(p)<<32 | int64(i); i < len(rows) && t.before(r, h[0]) {
				h[0] = r
				t.siftDown(h)
				bound = t.leadOf(h[0])
			}
		}
	}
	for end := len(h) - 1; end > 0; end-- {
		h[0], h[end] = h[end], h[0]
		t.siftDown(h[:end])
	}
	return h
}

// topK is the order of one TopK run. With a typed leading key, lead
// returns its values in a piece and desc is its direction.
type topK[T cmp.Ordered] struct {
	topSort
	lead func(*sortPart) []T
	desc bool
}

// leadOf returns the leading key's value at ref r.
func (t *topK[T]) leadOf(r int64) T {
	p, row := t.row(r)
	return t.lead(&t.keys[0].parts[p])[row]
}

// before reports whether ref a comes before ref b: by the typed leading
// key when there is one — a NaN is neither below nor above, so it ties
// and the rest of the chain decides, as SortKey.compare has it — else by
// the whole chain.
func (t *topK[T]) before(a, b int64) bool {
	if t.lead == nil {
		return t.compare(a, b) < 0
	}
	switch va, vb := t.leadOf(a), t.leadOf(b); {
	case va < vb:
		return !t.desc
	case va > vb:
		return t.desc
	}
	return t.compareFrom(1, a, b) < 0
}

// offer adds ref r to h, or puts it in place of the root when h holds k
// refs and r comes before it.
func (t *topK[T]) offer(h []int64, r int64, k int) []int64 {
	if len(h) < k {
		h = append(h, r)
		for j := len(h) - 1; j > 0; {
			p := (j - 1) / 2
			if !t.before(h[p], h[j]) {
				break
			}
			h[p], h[j] = h[j], h[p]
			j = p
		}
		return h
	}
	if t.before(r, h[0]) {
		h[0] = r
		t.siftDown(h)
	}
	return h
}

// siftDown restores the max-heap (the latest row at the root) after
// h[0] changed.
func (t *topK[T]) siftDown(h []int64) {
	for j := 0; ; {
		c := 2*j + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && t.before(h[c], h[c+1]) {
			c++
		}
		if !t.before(h[j], h[c]) {
			return
		}
		h[j], h[c] = h[c], h[j]
		j = c
	}
}
