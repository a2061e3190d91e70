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
// Equal values keep the first encountered (−0.0 vs +0.0).
func MinMax(c *Column) (min, max Value, nullCount int64) {
	switch c.Type {
	case Int64, Timestamp:
		lo, hi, ok, nulls := minMaxVals(c, c.Ints)
		if ok {
			min, max = Value{Type: c.Type, I: lo}, Value{Type: c.Type, I: hi}
		}
		return min, max, nulls
	case Float64:
		lo, hi, ok, nulls := minMaxVals(c, c.Floats)
		if ok {
			min, max = FloatValue(lo), FloatValue(hi)
		}
		return min, max, nulls
	case String, Bytes:
		lo, hi, ok, nulls := minMaxVals(c, c.Strs)
		if ok {
			min, max = Value{Type: c.Type, S: lo}, Value{Type: c.Type, S: hi}
		}
		return min, max, nulls
	case Bool:
		var sawFalse, sawTrue bool
		see := func(idx uint32, count int64) {
			switch {
			case idx == NullIdx:
				nullCount += count
			case c.Bools[idx]:
				sawTrue = true
			default:
				sawFalse = true
			}
		}
		switch c.Enc {
		case Plain:
			for i := 0; i < c.Len; i++ {
				if c.Nulls != nil && c.Nulls[i] {
					nullCount++
				} else {
					see(uint32(i), 1)
				}
			}
		case Dict:
			for _, code := range c.Codes {
				see(code, 1)
			}
		case RLE:
			for _, r := range c.Runs {
				if r.Count > 0 {
					see(r.ValIdx, int64(r.Count))
				}
			}
		}
		if sawFalse || sawTrue {
			min, max = BoolValue(!sawFalse), BoolValue(sawTrue)
		}
		return min, max, nullCount
	}
	return NullValue, NullValue, int64(c.Len)
}

// minMaxVals is MinMax over one typed value array. The range starts at
// the first value equal to itself, which is every value but NaN; after
// that NaN is neither below nor above anything and drops out unaided.
func minMaxVals[T cmp.Ordered](c *Column, vals []T) (lo, hi T, ok bool, nulls int64) {
	see := func(v T) {
		switch {
		case !ok:
			if v == v {
				lo, hi, ok = v, v, true
			}
		case v < lo:
			lo = v
		case v > hi:
			hi = v
		}
	}
	switch c.Enc {
	case Plain:
		if c.Nulls == nil {
			// The hot case (a DPP capture over a join key) in a loop of its
			// own: skip to the first value equal to itself, then compare.
			vs := vals[:c.Len]
			i := 0
			for i < len(vs) && vs[i] != vs[i] {
				i++
			}
			if i == len(vs) {
				break
			}
			lo, hi, ok = vs[i], vs[i], true
			for _, v := range vs[i+1:] {
				if v < lo {
					lo = v
				} else if v > hi {
					hi = v
				}
			}
			break
		}
		for i, v := range vals[:c.Len] {
			if c.Nulls[i] {
				nulls++
			} else {
				see(v)
			}
		}
	case Dict:
		// A row whose code already holds the minimum or maximum cannot
		// move either: low-cardinality string keys compare a handful of
		// times, not once per row.
		loCode, hiCode := NullIdx, NullIdx
		for _, code := range c.Codes {
			if code == NullIdx {
				nulls++
				continue
			}
			if code == loCode || code == hiCode {
				continue
			}
			v := vals[code]
			switch {
			case !ok:
				if v == v {
					lo, hi, ok = v, v, true
					loCode, hiCode = code, code
				}
			case v < lo:
				lo, loCode = v, code
			case v > hi:
				hi, hiCode = v, code
			}
		}
	case RLE:
		for _, r := range c.Runs {
			switch {
			case r.Count == 0:
			case r.ValIdx == NullIdx:
				nulls += int64(r.Count)
			default:
				see(vals[r.ValIdx])
			}
		}
	}
	return lo, hi, ok, nulls
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

// SortKey is one ORDER BY key extracted from a column once, so the
// sort's comparator indexes typed slices instead of resolving the
// encoding and boxing two Values per comparison. It orders rows as
// Value.Compare with NULLs first does, except that integers compare as
// integers: Int64 and Timestamp exactly, floats numerically (NaN ties
// with everything), strings bytewise, false before true; Desc reverses
// the key, NULLs included.
type SortKey struct {
	desc  bool
	nulls []bool    // ints, nums and strs; nil when the key has no NULLs
	ints  []int64   // Int64, Timestamp
	nums  []float64 // Float64
	strs  []string  // plain String, Bytes
	// ords is the key of encoded strings (each value's rank in its
	// sorted dictionary, equal strings sharing a rank) and of Bools
	// (false 0, true 1). NULL is -1, below every rank.
	ords []int32
}

// ExtractSortKey builds the key for column c, drawing per-row slices
// from al. Plain numerics and plain strings are used in place; Dict and
// RLE are expanded once — Column.Value on RLE costs O(runs) per call.
func ExtractSortKey(al Alloc, c *Column, desc bool) SortKey {
	k := SortKey{desc: desc}
	switch {
	case c.Type == Float64:
		if c.Enc == Plain {
			k.nums, k.nulls = c.Floats, c.Nulls
			break
		}
		k.nums = al.Float64s(c.Len)
		copySelected(k.nums, c.Floats, c, 0, c.Len, nil, k.nullSetter(al, c.Len))
	case c.Type == Int64 || c.Type == Timestamp:
		if c.Enc == Plain {
			k.ints, k.nulls = c.Ints, c.Nulls
			break
		}
		k.ints = al.Int64s(c.Len)
		copySelected(k.ints, c.Ints, c, 0, c.Len, nil, k.nullSetter(al, c.Len))
	case stringType(c.Type) && c.Enc == Plain:
		k.strs, k.nulls = c.Strs, c.Nulls
	case stringType(c.Type):
		ranks := stringRanks(al, c.Strs)
		k.ords = al.Int32s(c.Len)
		copySelected(k.ords, ranks, c, 0, c.Len, nil, func(i int) { k.ords[i] = -1 })
	case c.Type == Bool:
		k.ords = al.Int32s(c.Len)
		vals := al.Int32s(len(c.Bools))
		for i, v := range c.Bools {
			if v {
				vals[i] = 1
			}
		}
		copySelected(k.ords, vals, c, 0, c.Len, nil, func(i int) { k.ords[i] = -1 })
	}
	return k
}

func (k *SortKey) nullSetter(al Alloc, n int) func(int) {
	return func(i int) {
		if k.nulls == nil {
			k.nulls = al.Bools(n)
		}
		k.nulls[i] = true
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

// Compare orders rows a and b by this key: negative when a sorts
// first, 0 on a tie (the caller moves on to the next key, then to row
// order).
func (k *SortKey) Compare(a, b int) int {
	var c int
	switch {
	case k.ords != nil:
		c = cmp.Compare(k.ords[a], k.ords[b])
	case k.nulls != nil && (k.nulls[a] || k.nulls[b]):
		c = cmpBool(!k.nulls[a], !k.nulls[b])
	case k.ints != nil:
		c = cmp.Compare(k.ints[a], k.ints[b])
	case k.nums != nil:
		c = cmpFloat(k.nums[a], k.nums[b])
	case k.strs != nil:
		c = cmpString(k.strs[a], k.strs[b])
	}
	if k.desc {
		return -c
	}
	return c
}
