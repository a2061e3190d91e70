package vector

import (
	"cmp"
	"slices"
)

// TopK returns the first k rows of the order keys give, ties broken by
// row index — what a stable sort of rows [0, n) followed by LIMIT k
// returns — as row indices from m's allocator, in order. With k ≥ n it
// sorts every row.
//
// Below n, one bounded max-heap meets the rows in row order: its root
// is the worst row it keeps, and a row whose leading key is strictly
// worse than the root's is rejected with one typed compare of that key;
// only a tie or a win walks the whole key chain, then the row index.
// The kept rows are then heap-sorted into place. One walk in row order
// also keeps the answer a function of the rows alone where the order is
// not total — a NaN key ties with every value — so no worker count or
// schedule can change it (a fan-out over morsels measured no faster end
// to end). Closure-free: it allocates nothing outside m's allocator.
func TopK(m Mem, keys []SortKey, n, k int) []int {
	al := m.Allocator()
	k = max(min(k, n), 0)
	if k == n {
		idx := al.Ints(n)
		for i := range idx {
			idx[i] = i
		}
		slices.SortFunc(idx, func(a, b int) int { return compareRows(keys, a, b) })
		return idx
	}
	if k == 0 {
		return nil
	}
	var k0 SortKey
	if len(keys) > 0 {
		k0 = keys[0]
	}
	switch {
	case k0.nulls != nil: // the chain compares every row
	case k0.ints != nil:
		return topKOf(al, keys, k0.ints, n, k)
	case k0.nums != nil:
		return topKOf(al, keys, k0.nums, n, k)
	case k0.strs != nil:
		return topKOf(al, keys, k0.strs, n, k)
	case k0.ords != nil:
		return topKOf(al, keys, k0.ords, n, k)
	}
	return topKOf[int64](al, keys, nil, n, k)
}

// topKOf is TopK over a leading key whose null-free values are lead, or
// — lead nil — one the chain compares.
func topKOf[T cmp.Ordered](al Alloc, keys []SortKey, lead []T, n, k int) []int {
	t := topK[T]{keys: keys, lead: lead}
	if lead != nil {
		t.desc, t.rest = keys[0].desc, keys[1:]
	}
	h := al.Ints(k)[:0]
	i := 0
	for ; i < n && (len(h) < k || lead == nil); i++ {
		h = t.offer(h, i, k)
	}
	if lead != nil {
		lead = lead[:n]
	}
	for i < n {
		// Skip to the next row not strictly worse than the root.
		bound := lead[h[0]]
		if t.desc {
			for i < n && lead[i] < bound {
				i++
			}
		} else {
			for i < n && lead[i] > bound {
				i++
			}
		}
		if i < n && t.before(i, h[0]) {
			h[0] = i
			t.siftDown(h)
		}
		i++
	}
	for end := len(h) - 1; end > 0; end-- {
		h[0], h[end] = h[end], h[0]
		t.siftDown(h[:end])
	}
	return h
}

// compareRows orders rows a and b by the key chain, then by row index.
func compareRows(keys []SortKey, a, b int) int {
	for i := range keys {
		if c := keys[i].Compare(a, b); c != 0 {
			return c
		}
	}
	return cmp.Compare(a, b)
}

// topK is the order of one TopK run. With a typed leading key, lead
// holds its values, desc its direction and rest the keys after it.
type topK[T cmp.Ordered] struct {
	keys, rest []SortKey
	lead       []T
	desc       bool
}

// before reports whether row a comes before row b: by the typed leading
// key when there is one — a NaN is neither below nor above, so it ties
// and the rest of the chain decides, as SortKey.Compare has it — else by
// the whole chain.
func (t *topK[T]) before(a, b int) bool {
	if t.lead == nil {
		return compareRows(t.keys, a, b) < 0
	}
	switch va, vb := t.lead[a], t.lead[b]; {
	case va < vb:
		return !t.desc
	case va > vb:
		return t.desc
	}
	return compareRows(t.rest, a, b) < 0
}

// offer adds row r to h, or puts it in place of the root when h holds k
// rows and r comes before it.
func (t *topK[T]) offer(h []int, r, k int) []int {
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
func (t *topK[T]) siftDown(h []int) {
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
