package bigmeta

import (
	"slices"
	"sync/atomic"

	"biglake/internal/colfmt"
	"biglake/internal/vector"
)

// Index is a table snapshot's columnar prune index — the form §3.3's
// file metadata takes when a query prunes it. It holds the snapshot's
// files, shared and never modified, and per statistics column one min
// and one max column over them, each typed as the data column. Pruning
// is a kernel over it (Prune): each predicate is one typed compare over
// a min or max column or, where both ascend (a clustered key's files),
// a binary search for a window of files, and only the files that
// survive every predicate are copied out. Hive partition values are
// parsed once per literal type a predicate compares them with. An Index
// serves any number of concurrent prunes.
type Index struct {
	files []FileEntry
	// cols are the indexed columns, ascending by name.
	cols []indexColumn
}

// indexColumn is what an Index holds of one column.
type indexColumn struct {
	name  string
	stats statColumn
	part  *partColumn // nil: no file has the column as a partition key
}

// statColumn is one data column's file statistics. min and max have
// the column's type; their Nulls flag the files with no known range.
// Those are the all-null files, which every comparison prunes, and the
// open ones — no statistics for the column, or one bound unknown —
// which none does.
type statColumn struct {
	// any: some file has statistics on the column.
	any      bool
	min, max vector.Column
	open     []bool // nil: no file is open
	// constant flags the null-free files whose min equals max: the only
	// ones NE can prune.
	constant []bool
	// boxed: the files' statistics do not share one type, so every
	// predicate is decided file by file, by StatsCanSatisfy.
	boxed bool
}

// partColumn is one hive partition key over the index's files.
type partColumn struct {
	raw []string
	has []bool // nil: every file has the key
	// parsed holds raw as each literal type has needed it (indexed by
	// vector.Type; see ParsePartitionValue), NULL where a file has no
	// value or its value does not parse.
	parsed [vector.Timestamp + 1]atomic.Pointer[vector.Column]
}

// NewIndex indexes every statistics column and partition key of files,
// which it shares: the caller must not modify them afterwards.
func NewIndex(files []FileEntry) *Index {
	x := &Index{files: files}
	seen := map[string]bool{}
	var names []string
	for i := range files {
		for name := range files[i].ColumnStats {
			if !seen[name] {
				seen[name], names = true, append(names, name)
			}
		}
		for name := range files[i].Partition {
			if !seen[name] {
				seen[name], names = true, append(names, name)
			}
		}
	}
	slices.Sort(names)
	x.cols = make([]indexColumn, len(names))
	for i, name := range names {
		x.fill(vector.Heap, &x.cols[i], name, true)
	}
	return x
}

// search returns where name is, or would be, in cols.
func (x *Index) search(name string) (int, bool) {
	lo, hi := 0, len(x.cols)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if x.cols[m].name < name {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(x.cols) && x.cols[lo].name == name
}

// column returns what the index holds of name, or nil.
func (x *Index) column(name string) *indexColumn {
	if i, ok := x.search(name); ok {
		return &x.cols[i]
	}
	return nil
}

// Len is the number of files indexed.
func (x *Index) Len() int { return len(x.files) }

// fill builds c for the column name from al: its partition key and,
// with stats, its statistics.
func (x *Index) fill(al vector.Alloc, c *indexColumn, name string, stats bool) {
	c.name = name
	if stats {
		x.statColumn(al, &c.stats, name)
	}
	c.part = x.partColumn(al, name)
}

// known reports whether st holds a range to compare with.
func known(st colfmt.ColumnStats) bool {
	return st.Min.Type != vector.Invalid && st.Max.Type != vector.Invalid
}

func (x *Index) statColumn(al vector.Alloc, sc *statColumn, name string) {
	typ := vector.Invalid
	for i := range x.files {
		st, ok := x.files[i].ColumnStats[name]
		sc.any = sc.any || ok
		if !ok || !known(st) {
			continue
		}
		if typ == vector.Invalid {
			typ = st.Min.Type
		}
		if st.Min.Type != typ || st.Max.Type != typ {
			sc.boxed = true
			return
		}
	}
	if !sc.any {
		return
	}
	n := len(x.files)
	sc.min, sc.max, sc.constant = typed(al, typ, n), typed(al, typ, n), al.Bools(n)
	nulls := al.Bools(n)
	allKnown := true
	for i := range x.files {
		st, ok := x.files[i].ColumnStats[name]
		if ok && known(st) {
			put(&sc.min, i, st.Min)
			put(&sc.max, i, st.Max)
			sc.constant[i] = st.Nulls == 0 && same(&sc.min, &sc.max, i)
			continue
		}
		nulls[i], allKnown = true, false
		if allNull := ok && st.Min.Type == st.Max.Type && st.Nulls > 0; !allNull {
			// What the file holds is unknown: no predicate prunes it.
			if sc.open == nil {
				sc.open = al.Bools(n)
			}
			sc.open[i] = true
		}
	}
	if allKnown {
		sc.min.Sorted = vector.Ascending(&sc.min) && vector.Ascending(&sc.max)
		sc.max.Sorted = sc.min.Sorted
	} else {
		sc.min.Nulls, sc.max.Nulls = nulls, nulls
	}
}

// typed returns an empty Plain column of n rows of type t from al.
func typed(al vector.Alloc, t vector.Type, n int) vector.Column {
	c := vector.Column{Type: t, Len: n}
	switch t {
	case vector.Int64, vector.Timestamp:
		c.Ints = al.Int64s(n)
	case vector.Float64:
		c.Floats = al.Float64s(n)
	case vector.Bool:
		c.Bools = al.Bools(n)
	case vector.String, vector.Bytes:
		c.Strs = al.Strings(n)
	}
	return c
}

func put(c *vector.Column, i int, v colfmt.StatValue) {
	switch c.Type {
	case vector.Int64, vector.Timestamp:
		c.Ints[i] = v.I
	case vector.Float64:
		c.Floats[i] = v.ToValue().F // ±Inf is held apart from F
	case vector.Bool:
		c.Bools[i] = v.B
	case vector.String, vector.Bytes:
		c.Strs[i] = v.S
	}
}

// same reports whether row i of a and b compare equal, as the compare
// kernels order their type.
func same(a, b *vector.Column, i int) bool {
	switch a.Type {
	case vector.Int64, vector.Timestamp:
		return a.Ints[i] == b.Ints[i]
	case vector.Float64:
		return !(a.Floats[i] < b.Floats[i]) && !(a.Floats[i] > b.Floats[i])
	case vector.Bool:
		return a.Bools[i] == b.Bools[i]
	case vector.String, vector.Bytes:
		return a.Strs[i] == b.Strs[i]
	}
	return false
}

func (x *Index) partColumn(al vector.Alloc, name string) *partColumn {
	var pc *partColumn
	for i := range x.files {
		v, ok := x.files[i].Partition[name]
		if !ok {
			continue
		}
		if pc == nil {
			pc = &partColumn{raw: al.Strings(len(x.files)), has: al.Bools(len(x.files))}
		}
		pc.raw[i], pc.has[i] = v, true
	}
	if pc == nil {
		return nil
	}
	for _, h := range pc.has {
		if !h {
			return pc
		}
	}
	pc.has = nil
	return pc
}

// as returns the partition values parsed as type t, on the heap: a
// cached index keeps them.
func (pc *partColumn) as(t vector.Type) *vector.Column {
	if t > vector.Timestamp {
		t = vector.String
	}
	if c := pc.parsed[t].Load(); c != nil {
		return c
	}
	ct := t
	switch t {
	case vector.Int64, vector.Timestamp, vector.Float64, vector.Bool:
	default:
		ct = vector.String
	}
	n := len(pc.raw)
	c := new(vector.Column)
	*c = typed(vector.Heap, ct, n)
	for i, s := range pc.raw {
		v := vector.NullValue
		if pc.has == nil || pc.has[i] {
			v = ParsePartitionValue(s, t)
		}
		if v.IsNull() {
			if c.Nulls == nil {
				c.Nulls = make([]bool, n)
			}
			c.Nulls[i] = true
			continue
		}
		put(c, i, colfmt.FromValue(v))
	}
	// A racing prune stores an identical column.
	pc.parsed[t].Store(c)
	return c
}

// Prune returns, in snapshot order and as a new slice, the files whose
// metadata admits rows matching every predicate at granularity g. The
// rules are FileCanMatch's. al supplies the kernel's scratch (nil =
// heap); the result is always heap.
func (x *Index) Prune(al vector.Alloc, preds []colfmt.Predicate, g PruneGranularity) []FileEntry {
	lo, hi, mask := x.keep(al, preds, g)
	n := hi - lo
	if mask != nil {
		n = vector.CountMask(mask)
	}
	return x.appendKept(make([]FileEntry, 0, n), lo, hi, mask)
}

// PruneList keeps, in place and in order, the files of a list the
// caller owns that can hold a match: Prune over an index of only the
// columns preds name, itself on the stack, its columns drawn from al.
func PruneList(al vector.Alloc, files []FileEntry, preds []colfmt.Predicate, g PruneGranularity) []FileEntry {
	if len(preds) == 0 || len(files) == 0 {
		return files
	}
	if al == nil {
		al = vector.Heap
	}
	var cols [4]indexColumn // a list prune names few columns
	x := Index{files: files, cols: cols[:0]}
	for _, p := range preds {
		if i, found := x.search(p.Column); !found {
			x.cols = append(x.cols, indexColumn{})
			copy(x.cols[i+1:], x.cols[i:])
			x.cols[i] = indexColumn{}
			x.fill(al, &x.cols[i], p.Column, g == PruneFiles)
		}
	}
	lo, hi, mask := x.keep(al, preds, g)
	return x.appendKept(files[:0], lo, hi, mask)
}

// appendKept appends the surviving files to out. out may share the
// index's files (PruneList): a survivor never moves to a later slot.
func (x *Index) appendKept(out []FileEntry, lo, hi int, mask []bool) []FileEntry {
	if mask == nil {
		return append(out, x.files[lo:hi]...)
	}
	for i, k := range mask {
		if k {
			out = append(out, x.files[lo+i])
		}
	}
	return out
}

// keep is the prune kernel: the window [lo, hi) of files the sorted
// predicates leave, found by binary search, and over it the mask of the
// files that survive the others too (nil = all of the window).
func (x *Index) keep(al vector.Alloc, preds []colfmt.Predicate, g PruneGranularity) (lo, hi int, mask []bool) {
	if al == nil {
		al = vector.Heap
	}
	lo, hi = 0, len(x.files)
	for _, p := range preds {
		if l, h, ok := x.window(p, g); ok {
			lo, hi = max(lo, l), min(hi, h)
		}
	}
	hi = max(lo, hi) // disjoint windows keep nothing
	for _, p := range preds {
		if lo == hi {
			break
		}
		if x.sorted(p, g) != nil {
			continue
		}
		m := x.predMask(al, p, g, lo, hi)
		switch {
		case mask == nil:
			mask = m
		case m != nil:
			for i, k := range m {
				mask[i] = mask[i] && k
			}
		}
	}
	return lo, hi, mask
}

// sorted returns p's statistics column when p's files can be found by
// binary search: every file has a known integer range, min and max both
// ascend, no file has p's column as a partition key, and p compares
// with an integer literal by an operator other than NE.
func (x *Index) sorted(p colfmt.Predicate, g PruneGranularity) *statColumn {
	if g != PruneFiles || (p.Value.Type != vector.Int64 && p.Value.Type != vector.Timestamp) || pruneOp(p.Op) == vector.NE {
		return nil
	}
	c := x.column(p.Column)
	if c == nil || !c.stats.min.Sorted || c.part != nil {
		return nil
	}
	return &c.stats
}

// window returns the files a sorted predicate keeps: LT and LE those
// whose min is below the literal, GT and GE those whose max is above
// it, and EQ both — LE(min) ∩ GE(max).
func (x *Index) window(p colfmt.Predicate, g PruneGranularity) (lo, hi int, ok bool) {
	sc := x.sorted(p, g)
	if sc == nil {
		return 0, 0, false
	}
	switch op := pruneOp(p.Op); op {
	case vector.LT, vector.LE:
		return vector.SortedWindow(&sc.min, op, p.Value)
	case vector.GT, vector.GE:
		return vector.SortedWindow(&sc.max, op, p.Value)
	default: // EQ
		lo, _, _ := vector.SortedWindow(&sc.max, vector.GE, p.Value)
		_, hi, _ := vector.SortedWindow(&sc.min, vector.LE, p.Value)
		return lo, hi, true
	}
}

// predMask decides p for the files [lo, hi): true where a file may hold
// a match (nil = every file may). A file with p's column as a partition
// key is decided by its value — one that does not parse prunes nothing
// — and any other by its statistics.
func (x *Index) predMask(al vector.Alloc, p colfmt.Predicate, g PruneGranularity, lo, hi int) []bool {
	c := x.column(p.Column)
	if c == nil {
		return nil
	}
	pc := c.part
	var sm []bool
	if pc == nil || pc.has != nil {
		sm = x.statMask(al, &c.stats, p, g, lo, hi)
	}
	if pc == nil {
		return sm
	}
	col := vector.Slice(pc.as(p.Value.Type), lo, hi)
	m := vector.CompareConstWith(al, col, p.Op, p.Value)
	for i := range m {
		switch {
		case pc.has != nil && !pc.has[lo+i]:
			m[i] = sm == nil || sm[i]
		case col.Nulls != nil && col.Nulls[i]:
			m[i] = true
		}
	}
	return m
}

// statMask decides p for the files [lo, hi) by their statistics on p's
// column, with StatsCanSatisfy's rules: a compare over the min column
// (LT, LE), the max column (GT, GE) or both (EQ); NE prunes only a
// constant, null-free file equal to the literal.
func (x *Index) statMask(al vector.Alloc, sc *statColumn, p colfmt.Predicate, g PruneGranularity, lo, hi int) []bool {
	if g != PruneFiles || !sc.any {
		return nil
	}
	op := pruneOp(p.Op)
	if sc.boxed || (sc.min.Type != vector.Invalid && family(sc.min.Type) != family(p.Value.Type)) {
		// Across type families Value.Compare is not a typed order: ask
		// the per-file rule.
		q := colfmt.Predicate{Column: p.Column, Op: op, Value: p.Value}
		m := al.Bools(hi - lo)
		for i := range m {
			st, ok := x.files[lo+i].ColumnStats[p.Column]
			m[i] = !ok || q.StatsCanSatisfy(st)
		}
		return m
	}
	min, max := vector.Slice(&sc.min, lo, hi), vector.Slice(&sc.max, lo, hi)
	var m []bool
	switch op {
	case vector.LT, vector.LE:
		m = vector.CompareConstWith(al, min, op, p.Value)
	case vector.GT, vector.GE:
		m = vector.CompareConstWith(al, max, op, p.Value)
	case vector.EQ:
		m = vector.CompareConstWith(al, min, vector.LE, p.Value)
		ge := vector.CompareConstWith(al, max, vector.GE, p.Value)
		for i, k := range ge {
			m[i] = m[i] && k
		}
	case vector.NE:
		m = vector.CompareConstWith(al, min, vector.EQ, p.Value)
		for i, eq := range m {
			m[i] = (min.Nulls == nil || !min.Nulls[i]) && !(eq && sc.constant[lo+i])
		}
	}
	if sc.open != nil {
		for i, o := range sc.open[lo:hi] {
			m[i] = m[i] || o
		}
	}
	return m
}

// family groups the types Value.Compare orders with one another.
func family(t vector.Type) int {
	switch t {
	case vector.Int64, vector.Float64, vector.Timestamp:
		return 1
	case vector.String, vector.Bytes:
		return 2
	case vector.Bool:
		return 3
	}
	return 0
}
