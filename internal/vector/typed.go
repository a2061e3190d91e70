package vector

import (
	"cmp"
	"encoding/hex"
	"fmt"
	"slices"
	"strconv"
)

// This file holds the kernels that keep boxed Values off the query
// path between operators: statistics, mask extraction, column-vs-column
// comparison, arithmetic and ORDER BY keys all read the typed arrays of
// the physical encoding directly. Value.Compare stays the semantic
// reference; typed_test.go holds its boxed per-row loops and diffs
// every kernel here against them.

// MinMax returns the smallest and largest non-NULL value of a column
// and its NULL count — footer statistics for Big Metadata and the
// join-key range of dynamic partition pruning. It reads the typed
// arrays of the encoding in place: Dict through its dictionary (only
// entries a code references count), RLE once per run.
//
// Two deliberate differences from a per-row Value.Compare loop:
//
//   - NaN is skipped at every position, so a float column's min/max are
//     its extreme numbers and an all-NaN (or all-NULL) column has NULL
//     statistics, which no pruning step acts on. Value.Compare reports
//     0 against NaN, so a leading NaN used to become both min and max
//     and the footer could not be serialized at all. (The comparison
//     kernels also report 0 against NaN, so `=`, `<=` and `>=` match a
//     NaN row; a range built without it can prune that row, as it
//     already could for a NaN in any but the leading position.)
//   - Int64 and Timestamp compare exactly. Value.Compare converts to
//     float64, so beyond 2^53 it sees neighbouring integers as equal
//     and keeps whichever came first. The exact range never excludes a
//     row under either order, while a boxed one excludes rows under the
//     exact integer compare that footer pruning, the prune index and
//     the compare kernels use; colfmt.ColumnStats.Merge keeps row-group
//     ranges exact when it folds them into a file's.
//
// Equal values keep the first encountered (−0.0 vs +0.0). rows, when
// given, are the ascending rows to range over (nil: every row): a
// relation's range is its pieces' ranges over their surviving rows.
func MinMax(c *Column, rows []int32) (min, max Value, nullCount int64) {
	switch c.Type {
	case Int64, Timestamp:
		if c.Enc == Plain && c.Nulls == nil && (c.Len > 0 && rows == nil || len(rows) > 0) {
			lo, hi := intRange(c.Ints, rows, c.Len)
			return Value{Type: c.Type, I: lo}, Value{Type: c.Type, I: hi}, 0
		}
		lo, hi, ok, nulls := minMaxVals(c, c.Ints, rows)
		if ok {
			min, max = Value{Type: c.Type, I: lo}, Value{Type: c.Type, I: hi}
		}
		return min, max, nulls
	case Float64:
		lo, hi, ok, nulls := minMaxVals(c, c.Floats, rows)
		if ok {
			min, max = FloatValue(lo), FloatValue(hi)
		}
		return min, max, nulls
	case String, Bytes:
		lo, hi, ok, nulls := minMaxVals(c, c.Strs, rows)
		if ok {
			min, max = Value{Type: c.Type, S: lo}, Value{Type: c.Type, S: hi}
		}
		return min, max, nulls
	case Bool:
		var sawFalse, sawTrue bool
		eachValIdx(c, rows, func(idx uint32, count int64) {
			switch {
			case idx == NullIdx:
				nullCount += count
			case c.Bools[idx]:
				sawTrue = true
			default:
				sawFalse = true
			}
		})
		if sawFalse || sawTrue {
			min, max = BoolValue(!sawFalse), BoolValue(sawTrue)
		}
		return min, max, nullCount
	}
	if rows != nil {
		return NullValue, NullValue, int64(len(rows))
	}
	return NullValue, NullValue, int64(c.Len)
}

// intRange is MinMax over the rows (nil: the first n) of a Plain
// null-free integer column — the hot case, a DPP capture over a join
// key. Integers hold no NaN and no two equal values that differ, so two
// lanes of branch-free compares halve the chain, in any order.
func intRange(xs []int64, rows []int32, n int) (lo, hi int64) {
	if rows == nil {
		rows = identity(n)
	}
	lo, hi = xs[rows[0]], xs[rows[0]]
	lo2, hi2 := lo, hi
	k := 1
	for ; k+1 < len(rows); k += 2 {
		a, b := xs[rows[k]], xs[rows[k+1]]
		lo, hi = min(lo, a), max(hi, a)
		lo2, hi2 = min(lo2, b), max(hi2, b)
	}
	if k < len(rows) {
		lo, hi = min(lo, xs[rows[k]]), max(hi, xs[rows[k]])
	}
	return min(lo, lo2), max(hi, hi2)
}

// minMaxVals is MinMax over one typed value array. The range starts at
// the first value equal to itself, which is every value but NaN; after
// that NaN is neither below nor above anything and drops out unaided.
func minMaxVals[T cmp.Ordered](c *Column, vals []T, rows []int32) (lo, hi T, ok bool, nulls int64) {
	if c.Enc == Plain && c.Nulls == nil {
		// The hot case (a DPP capture over a join key) in a loop of its
		// own: skip to the first value equal to itself, then compare.
		if rows == nil {
			rows = identity(c.Len)
		}
		i := 0
		for i < len(rows) && vals[rows[i]] != vals[rows[i]] {
			i++
		}
		if i == len(rows) {
			return lo, hi, false, 0
		}
		lo, hi = vals[rows[i]], vals[rows[i]]
		for _, r := range rows[i+1:] {
			// Two independent selects, no branch: a NaN (and an equal
			// value, −0 against +0) moves neither.
			v := vals[r]
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		return lo, hi, true, 0
	}
	// A value index already holding the minimum or maximum cannot move
	// either: low-cardinality string keys compare a handful of times,
	// not once per row.
	loIdx, hiIdx := NullIdx, NullIdx
	eachValIdx(c, rows, func(idx uint32, count int64) {
		if idx == NullIdx {
			nulls += count
			return
		}
		if idx == loIdx || idx == hiIdx {
			return
		}
		v := vals[idx]
		switch {
		case !ok:
			if v == v {
				lo, hi, ok = v, v, true
				loIdx, hiIdx = idx, idx
			}
		case v < lo:
			lo, loIdx = v, idx
		case v > hi:
			hi, hiIdx = v, idx
		}
	})
	return lo, hi, ok, nulls
}

// eachValIdx calls see with the value index of each of c's rows (nil:
// every row; else ascending rows) — NullIdx for a NULL — and how many
// rows in a row hold it: an RLE run's rows at once.
func eachValIdx(c *Column, rows []int32, see func(idx uint32, count int64)) {
	switch c.Enc {
	case Plain:
		if rows == nil {
			rows = identity(c.Len)
		}
		for _, r := range rows {
			if c.Nulls != nil && c.Nulls[r] {
				see(NullIdx, 1)
			} else {
				see(uint32(r), 1)
			}
		}
	case Dict:
		if rows == nil {
			rows = identity(c.Len)
		}
		for _, r := range rows {
			see(c.Codes[r], 1)
		}
	case RLE:
		k, pos := 0, 0
		for _, run := range c.Runs {
			pos += int(run.Count)
			m := int64(run.Count)
			if rows != nil {
				j := k
				for k < len(rows) && int(rows[k]) < pos {
					k++
				}
				m = int64(k - j)
			}
			if m > 0 {
				see(run.ValIdx, m)
			}
		}
	}
}

// TruthMask extracts a Bool column as a selection mask: true where the
// row is non-NULL and true. The mask is fresh (from al), so callers may
// combine into it in place.
func TruthMask(al Alloc, c *Column) []bool {
	mask := al.Bools(c.Len)
	copySelected(mask, c.Bools, c, 0, c.Len, nil, func(i int) { mask[i] = false })
	return mask
}

func numericType(t Type) bool { return t == Int64 || t == Float64 || t == Timestamp }

func stringType(t Type) bool { return t == String || t == Bytes }

// CompareCols evaluates `a op b` element-wise over two columns of the
// same length (the filter-on-two-columns path), allocating the mask
// from al. NULLs compare false. Operands compare as Value.Compare
// orders them — numerics across Int64/Float64/Timestamp, NaN equal to
// everything, operands of different families against the zero value of
// the left one's family — except that two integer columns compare
// exactly instead of through float64.
func CompareCols(al Alloc, a, b *Column, op CmpOp) ([]bool, error) {
	if a.Len != b.Len {
		return nil, fmt.Errorf("vector: column length mismatch %d vs %d", a.Len, b.Len)
	}
	a, b = a.Decode(), b.Decode()
	mask := al.Bools(a.Len)
	switch {
	case numericType(a.Type) && numericType(b.Type):
		switch {
		case a.Type != Float64 && b.Type != Float64:
			compareOrdered(mask, a.Ints, b.Ints, op)
		case a.Type != Float64:
			compareAsFloat(mask, a.Ints, b.Floats, op)
		case b.Type != Float64:
			compareAsFloat(mask, a.Floats, b.Ints, op)
		default:
			compareOrdered(mask, a.Floats, b.Floats, op)
		}
	case stringType(a.Type) && stringType(b.Type):
		compareOrdered(mask, a.Strs, b.Strs, op)
	case a.Type == Bool && b.Type == Bool:
		for i := range mask {
			mask[i] = op.Eval(cmpBool(a.Bools[i], b.Bools[i]))
		}
	default:
		// Different families: Value.Compare reads the right operand's
		// (empty) field of the left operand's family.
		for i := range mask {
			c := 0
			switch {
			case stringType(a.Type):
				c = cmpString(a.Strs[i], "")
			case a.Type == Bool:
				c = cmpBool(a.Bools[i], false)
			}
			mask[i] = op.Eval(c)
		}
	}
	for _, nulls := range [2][]bool{a.Nulls, b.Nulls} {
		for i, isNull := range nulls {
			if isNull {
				mask[i] = false
			}
		}
	}
	return mask, nil
}

// compareOrdered writes `xs[i] op ys[i]` into mask, one loop per
// operator. Everything is phrased through < and > so that for floats
// NaN keeps cmpFloat's meaning: neither below nor above, hence equal.
func compareOrdered[T cmp.Ordered](mask []bool, xs, ys []T, op CmpOp) {
	ys = ys[:len(xs)]
	switch op {
	case EQ:
		for i, x := range xs {
			mask[i] = !(x < ys[i]) && !(x > ys[i])
		}
	case NE:
		for i, x := range xs {
			mask[i] = x < ys[i] || x > ys[i]
		}
	case LT:
		for i, x := range xs {
			mask[i] = x < ys[i]
		}
	case LE:
		for i, x := range xs {
			mask[i] = !(x > ys[i])
		}
	case GT:
		for i, x := range xs {
			mask[i] = x > ys[i]
		}
	case GE:
		for i, x := range xs {
			mask[i] = !(x < ys[i])
		}
	}
}

// compareAsFloat compares an integer column with a float one the way
// Value.Compare does, both as float64.
func compareAsFloat[A, B int64 | float64](mask []bool, xs []A, ys []B, op CmpOp) {
	for i, x := range xs {
		mask[i] = op.Eval(cmpFloat(float64(x), float64(ys[i])))
	}
}

// Arith computes `l op r` element-wise for op in + - * /, allocating
// the output from al. Two numeric columns give Float64 when either is
// Float64 or op is '/', else Int64; a NULL operand or a zero divisor
// gives NULL. '+' with a String operand concatenates the operands'
// renderings (Value.String). Other type pairs are an error.
func Arith(al Alloc, op byte, l, r *Column) (*Column, error) {
	if l.Len != r.Len {
		return nil, fmt.Errorf("vector: arithmetic over lengths %d and %d", l.Len, r.Len)
	}
	l, r = l.Decode(), r.Decode()
	n := l.Len
	out := &Column{Len: n, Enc: Plain, Pooled: al.Pooled()}
	markNull := func(i int) {
		if out.Nulls == nil {
			out.Nulls = al.Bools(n)
		}
		out.Nulls[i] = true
	}
	for _, nulls := range [2][]bool{l.Nulls, r.Nulls} {
		for i, isNull := range nulls {
			if isNull {
				markNull(i)
			}
		}
	}
	switch {
	case numericType(l.Type) && numericType(r.Type):
		lf, rf := l.Type == Float64, r.Type == Float64
		if !lf && !rf && op != '/' {
			out.Type, out.Ints = Int64, al.Int64s(n)
			arithInts(out.Ints, l.Ints, r.Ints, op)
			break
		}
		out.Type, out.Floats = Float64, al.Float64s(n)
		switch {
		case lf && rf:
			arithFloats(out.Floats, l.Floats, r.Floats, op, markNull)
		case lf:
			arithFloats(out.Floats, l.Floats, r.Ints, op, markNull)
		case rf:
			arithFloats(out.Floats, l.Ints, r.Floats, op, markNull)
		default:
			arithFloats(out.Floats, l.Ints, r.Ints, op, markNull)
		}
	case op == '+' && (l.Type == String || r.Type == String):
		out.Type, out.Strs = String, al.Strings(n)
		for i := range out.Strs {
			if out.Nulls == nil || !out.Nulls[i] {
				out.Strs[i] = l.render(i) + r.render(i)
			}
		}
	default:
		return nil, fmt.Errorf("vector: arithmetic over %v and %v", l.Type, r.Type)
	}
	// The numeric loops ran over every row; NULL rows hold zero, as
	// Builder leaves them.
	for i, isNull := range out.Nulls {
		if isNull && out.Type == Int64 {
			out.Ints[i] = 0
		} else if isNull && out.Type == Float64 {
			out.Floats[i] = 0
		}
	}
	return out, nil
}

func arithInts(dst, xs, ys []int64, op byte) {
	ys = ys[:len(xs)]
	switch op {
	case '+':
		for i, x := range xs {
			dst[i] = x + ys[i]
		}
	case '-':
		for i, x := range xs {
			dst[i] = x - ys[i]
		}
	case '*':
		for i, x := range xs {
			dst[i] = x * ys[i]
		}
	}
}

func arithFloats[A, B int64 | float64](dst []float64, xs []A, ys []B, op byte, markNull func(int)) {
	ys = ys[:len(xs)]
	switch op {
	case '+':
		for i, x := range xs {
			dst[i] = float64(x) + float64(ys[i])
		}
	case '-':
		for i, x := range xs {
			dst[i] = float64(x) - float64(ys[i])
		}
	case '*':
		for i, x := range xs {
			dst[i] = float64(x) * float64(ys[i])
		}
	case '/':
		for i, x := range xs {
			if y := float64(ys[i]); y == 0 {
				markNull(i)
			} else {
				dst[i] = float64(x) / y
			}
		}
	}
}

// render formats row i of a plain column as Value.String does.
func (c *Column) render(i int) string {
	switch c.Type {
	case Int64, Timestamp:
		return strconv.FormatInt(c.Ints[i], 10)
	case Float64:
		return strconv.FormatFloat(c.Floats[i], 'g', -1, 64)
	case Bool:
		return strconv.FormatBool(c.Bools[i])
	case String:
		return c.Strs[i]
	case Bytes:
		return hex.EncodeToString([]byte(c.Strs[i]))
	}
	return "?"
}

// SortKey is one ORDER BY key of a relation, taken from each piece's
// column once, so the sort's comparator indexes typed slices instead of
// resolving the encoding and boxing two Values per comparison. A piece's
// part is indexed by the piece's batch rows, so a Plain column is used
// in place. It orders rows as Value.Compare with NULLs first does,
// except that integers compare as integers: Int64 and Timestamp
// exactly, floats numerically (NaN ties with everything), strings
// bytewise, false before true; Desc reverses the key, NULLs included.
// Every part holds the same kind of key, so any two rows of the
// relation compare.
type SortKey struct {
	desc  bool
	kind  sortKind
	nulls bool // some part has a NULL (ints, nums, strs)
	parts []sortPart
}

// sortKind is which slice of its parts a key compares.
type sortKind uint8

const (
	sortInts sortKind = iota // Int64, Timestamp
	sortNums                 // Float64
	sortStrs                 // String, Bytes held as strings
	// sortOrds is the key of encoded strings (each value's rank among
	// the dictionaries of every piece, equal strings sharing a rank) and
	// of Bools (false 0, true 1). NULL is -1, below every rank.
	sortOrds
)

// sortPart is one piece's key.
type sortPart struct {
	nulls []bool // ints, nums and strs; nil when the part has no NULLs
	ints  []int64
	nums  []float64
	strs  []string
	ords  []int32
}

// ExtractSortKey builds the key over the relation in whose column, in
// its first piece, is c, drawing per-row slices from al. Plain numerics
// and plain strings are used in place; Dict and RLE are expanded once,
// at the piece's rows alone — Column.Value on RLE costs O(runs) per
// call, and a row the piece does not hold is never read. A string key
// whose pieces are all encoded compares ranks; one that mixes encodings
// expands the encoded pieces to strings.
func ExtractSortKey(al Alloc, in []Selection, c *Column, desc bool) SortKey {
	ci := argOf(in, c)
	k := SortKey{desc: desc, parts: make([]sortPart, len(in))}
	col := func(p int) *Column { return in[p].Batch.Cols[ci] }
	plain, encoded := 0, 0
	for p := range in {
		if col(p).Enc == Plain {
			plain++
		} else {
			encoded++
		}
	}
	var ranks []int32 // every encoded piece's values ranked together
	switch {
	case c.Type == Float64:
		k.kind = sortNums
	case c.Type == Int64 || c.Type == Timestamp:
		k.kind = sortInts
	case c.Type == Bool || (stringType(c.Type) && plain == 0):
		k.kind = sortOrds
		if c.Type != Bool {
			vals := c.Strs
			if len(in) > 1 {
				n := 0
				for p := range in {
					n += len(col(p).Strs)
				}
				vals = al.Strings(n)[:0]
				for p := range in {
					vals = append(vals, col(p).Strs...)
				}
			}
			ranks = stringRanks(al, vals)
		}
	default:
		k.kind = sortStrs
	}
	for p := range in {
		c, part := col(p), &k.parts[p]
		n, rows := in[p].Hi, in[p].Rows(0, in[p].N)
		setNull := func(i int) {
			if part.nulls == nil {
				part.nulls = al.Bools(n)
			}
			part.nulls[i] = true
		}
		switch k.kind {
		case sortNums:
			if c.Enc == Plain {
				part.nums, part.nulls = c.Floats, c.Nulls
				break
			}
			part.nums = al.Float64s(n)
			expandRows(part.nums, c.Floats, c, rows, setNull)
		case sortInts:
			if c.Enc == Plain {
				part.ints, part.nulls = c.Ints, c.Nulls
				break
			}
			part.ints = al.Int64s(n)
			expandRows(part.ints, c.Ints, c, rows, setNull)
		case sortStrs:
			if c.Enc == Plain {
				part.strs, part.nulls = c.Strs, c.Nulls
				break
			}
			part.strs = al.Strings(n)
			expandRows(part.strs, c.Strs, c, rows, setNull)
		case sortOrds:
			vals := ranks
			if c.Type == Bool {
				vals = al.Int32s(len(c.Bools))
				for i, v := range c.Bools {
					if v {
						vals[i] = 1
					}
				}
			} else {
				ranks = ranks[len(c.Strs):]
			}
			part.ords = al.Int32s(n)
			expandRows(part.ords, vals, c, rows, func(i int) { part.ords[i] = -1 })
		}
		k.nulls = k.nulls || part.nulls != nil
	}
	return k
}

// expandRows writes dst[r] = the value of row r of c for each of rows
// (ascending), reading src — c's value array, or one indexed like it —
// through its Dict codes or RLE runs; a NULL row goes to nullAt. No
// other slot of dst is written.
func expandRows[T any](dst, src []T, c *Column, rows []int32, nullAt func(int)) {
	switch c.Enc {
	case Plain:
		for _, r := range rows {
			if c.Nulls != nil && c.Nulls[r] {
				nullAt(int(r))
			} else {
				dst[r] = src[r]
			}
		}
		return
	case Dict:
		for _, r := range rows {
			if code := c.Codes[r]; code == NullIdx {
				nullAt(int(r))
			} else {
				dst[r] = src[code]
			}
		}
		return
	}
	k, end := 0, 0
	for _, run := range c.Runs {
		end += int(run.Count)
		for ; k < len(rows) && int(rows[k]) < end; k++ {
			if run.ValIdx == NullIdx {
				nullAt(int(rows[k]))
			} else {
				dst[rows[k]] = src[run.ValIdx]
			}
		}
		if k == len(rows) {
			return
		}
	}
}

// stringRanks ranks each entry of a dictionary (or RLE value array) by
// its position in sorted order; duplicates share a rank so they tie.
func stringRanks(al Alloc, vals []string) []int32 {
	order := al.Int32s(len(vals))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int { return cmpString(vals[a], vals[b]) })
	ranks := al.Int32s(len(vals))
	rank := int32(0)
	for i, o := range order {
		if i > 0 && vals[o] != vals[order[i-1]] {
			rank++
		}
		ranks[o] = rank
	}
	return ranks
}

// compare orders row a of piece pa and row b of piece pb by this key:
// negative when a sorts first, 0 on a tie (the caller moves on to the
// next key, then to position order).
func (k *SortKey) compare(pa int, a int32, pb int, b int32) int {
	x, y := &k.parts[pa], &k.parts[pb]
	var c int
	na, nb := x.nulls != nil && x.nulls[a], y.nulls != nil && y.nulls[b]
	switch {
	case k.kind == sortOrds:
		c = cmp.Compare(x.ords[a], y.ords[b])
	case na || nb:
		c = cmpBool(!na, !nb)
	case k.kind == sortInts:
		c = cmp.Compare(x.ints[a], y.ints[b])
	case k.kind == sortNums:
		c = cmpFloat(x.nums[a], y.nums[b])
	default:
		c = cmpString(x.strs[a], y.strs[b])
	}
	if k.desc {
		return -c
	}
	return c
}
