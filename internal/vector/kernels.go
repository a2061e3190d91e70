package vector

import (
	"fmt"
	"slices"
	"strconv"
)

// Heap forms. A kernel's X form is its XWith over Mem{} — one line,
// no contract of its own. Filter and CompareConst serve callers that
// hold no arena; HashJoin, GroupKeys and GroupAggregate have no caller
// in the program and are kept only for the benchmark's per-layer
// probes (benchmark/layers.go), whose source stays as it is.

// CmpOp is a comparison operator for predicate kernels.
type CmpOp uint8

// Comparison operators.
const (
	EQ CmpOp = iota
	NE
	LT
	LE
	GT
	GE
)

func (op CmpOp) String() string {
	switch op {
	case EQ:
		return "="
	case NE:
		return "!="
	case LT:
		return "<"
	case LE:
		return "<="
	case GT:
		return ">"
	case GE:
		return ">="
	}
	return "?"
}

// Eval applies the operator to an ordering result from Value.Compare.
func (op CmpOp) Eval(cmp int) bool {
	switch op {
	case EQ:
		return cmp == 0
	case NE:
		return cmp != 0
	case LT:
		return cmp < 0
	case LE:
		return cmp <= 0
	case GT:
		return cmp > 0
	case GE:
		return cmp >= 0
	}
	return false
}

// CompareConst evaluates `col op val` into a mask: true where the row
// satisfies it. NULL rows compare false (SQL semantics). It is
// SelectConst's selection spread over a mask, for the callers that
// combine predicates with OR and NOT (the expression evaluator, file
// pruning).
func CompareConst(c *Column, op CmpOp, val Value) []bool {
	return CompareConstWith(nil, c, op, val)
}

// CompareConstWith is CompareConst allocating the mask (and the
// selection under it) from al; nil falls back to the heap.
func CompareConstWith(al Alloc, c *Column, op CmpOp, val Value) []bool {
	if al == nil {
		al = Heap
	}
	mask := al.Bools(c.Len)
	if c.Len == 0 {
		// Preserve the non-nil empty mask of the make() era.
		mask = []bool{}
	}
	for _, r := range SelectConst(al, c, 0, c.Len, nil, op, val) {
		mask[r] = true
	}
	return mask
}

// SelectConst returns the rows of c in [lo, hi) where `c op val` holds,
// ascending: of every row of the window when sel is nil (written into
// a selection from al), else of the rows sel holds — ascending rows of
// the window, the survivors of the conjuncts before — written over sel
// itself. NULL rows never survive. The kernel runs on the physical
// encoding: Plain rows are compared in typed loops that store every
// row and advance only past a survivor (sel[j] = i; j += cond), with no
// branch on the outcome; a Dict column's predicate is decided once per
// dictionary entry and an RLE column's once per run. An integer column
// compares an integer literal as an integer, exactly, in every
// encoding.
func SelectConst(al Alloc, c *Column, lo, hi int, sel []int32, op CmpOp, val Value) []int32 {
	if al == nil {
		al = Heap
	}
	whole := sel == nil
	if whole {
		if lo == hi {
			return []int32{}
		}
		sel = int32sForOverwrite(al, hi-lo)
	}
	switch c.Enc {
	case Dict:
		// verdicts[code+1]: a NULL's NullIdx wraps to slot 0, false.
		n := c.dictLen()
		verdicts := al.Bools(n + 1)
		for i := 0; i < n; i++ {
			verdicts[i+1] = verdict(c, uint32(i), op, val)
		}
		return selectCodes(sel, c.Codes, verdicts, lo, hi, whole)
	case RLE:
		return selectRuns(sel, c, lo, hi, whole, op, val)
	}
	integer := c.Type == Int64 || c.Type == Timestamp
	switch {
	case integer && val.Type == Float64:
		// Mixed numeric comparison falls back to float.
		return selectEach(sel, lo, hi, whole, func(r int32) bool {
			return (c.Nulls == nil || !c.Nulls[r]) && op.Eval(cmpFloat(float64(c.Ints[r]), val.F))
		})
	case c.Nulls != nil || c.Type == Bool:
		return selectEach(sel, lo, hi, whole, func(r int32) bool {
			if c.Nulls != nil && c.Nulls[r] {
				return false
			}
			switch {
			case integer:
				return op.Eval(cmpInt(c.Ints[r], val.AsInt()))
			case c.Type == Float64:
				return op.Eval(cmpFloat(c.Floats[r], val.AsFloat()))
			case c.Type == Bool:
				return op.Eval(cmpBool(c.Bools[r], val.B))
			}
			return op.Eval(cmpString(c.Strs[r], val.S))
		})
	case integer:
		return selectOrdered(sel, c.Ints, lo, hi, whole, op, val.AsInt())
	case c.Type == Float64:
		return selectOrdered(sel, c.Floats, lo, hi, whole, op, val.AsFloat())
	default:
		return selectOrdered(sel, c.Strs, lo, hi, whole, op, val.S)
	}
}

// verdict decides `value op val` for entry idx of an encoded column's
// value array, as Value.Compare orders them — except that an integer
// column compares an integer literal as an integer, exactly, as the
// Plain kernel does: through float64 two integers past 2^53 can tie.
func verdict(c *Column, idx uint32, op CmpOp, val Value) bool {
	if (c.Type == Int64 || c.Type == Timestamp) && (val.Type == Int64 || val.Type == Timestamp) {
		return op.Eval(cmpInt(c.Ints[idx], val.I))
	}
	return op.Eval(c.valueAtIdx(idx).Compare(val))
}

// selectOrdered is the Plain null-free kernel, one loop per operator so
// the dispatch runs once per column. The loops are written in terms of
// < and > only so NaN keeps cmpFloat's semantics exactly: NaN is
// neither below nor above anything, so cmpFloat reports 0 and EQ/LE/GE
// match it while NE/LT/GT do not. For integers and strings the forms
// are the plain operators.
func selectOrdered[T int64 | float64 | string](dst []int32, xs []T, lo, hi int, whole bool, op CmpOp, t T) []int32 {
	j := 0
	if whole {
		base := int32(lo)
		xs = xs[lo:hi]
		dst = dst[:len(xs)]
		switch op {
		case EQ:
			for i, v := range xs {
				dst[j] = base + int32(i)
				j += boolInt(!(v < t) && !(v > t))
			}
		case NE:
			for i, v := range xs {
				dst[j] = base + int32(i)
				j += boolInt(v < t || v > t)
			}
		case LT:
			for i, v := range xs {
				dst[j] = base + int32(i)
				j += boolInt(v < t)
			}
		case LE:
			for i, v := range xs {
				dst[j] = base + int32(i)
				j += boolInt(!(v > t))
			}
		case GT:
			for i, v := range xs {
				dst[j] = base + int32(i)
				j += boolInt(v > t)
			}
		case GE:
			for i, v := range xs {
				dst[j] = base + int32(i)
				j += boolInt(!(v < t))
			}
		}
		return dst[:j]
	}
	switch op {
	case EQ:
		for _, r := range dst {
			v := xs[r]
			dst[j] = r
			j += boolInt(!(v < t) && !(v > t))
		}
	case NE:
		for _, r := range dst {
			v := xs[r]
			dst[j] = r
			j += boolInt(v < t || v > t)
		}
	case LT:
		for _, r := range dst {
			dst[j] = r
			j += boolInt(xs[r] < t)
		}
	case LE:
		for _, r := range dst {
			dst[j] = r
			j += boolInt(!(xs[r] > t))
		}
	case GT:
		for _, r := range dst {
			dst[j] = r
			j += boolInt(xs[r] > t)
		}
	case GE:
		for _, r := range dst {
			dst[j] = r
			j += boolInt(!(xs[r] < t))
		}
	}
	return dst[:j]
}

// selectCodes keeps the rows whose code's verdict (at code + 1) is
// true.
func selectCodes(dst []int32, codes []uint32, verdicts []bool, lo, hi int, whole bool) []int32 {
	j := 0
	if whole {
		base := int32(lo)
		codes = codes[lo:hi]
		dst = dst[:len(codes)]
		for i, code := range codes {
			dst[j] = base + int32(i)
			j += boolInt(verdicts[code+1])
		}
		return dst[:j]
	}
	for _, r := range dst {
		dst[j] = r
		j += boolInt(verdicts[codes[r]+1])
	}
	return dst[:j]
}

// selectRuns keeps the rows of the runs whose value satisfies the
// predicate: decided once per run, each run a stretch of rows (or of
// the ascending rows dst holds).
func selectRuns(dst []int32, c *Column, lo, hi int, whole bool, op CmpOp, val Value) []int32 {
	j, k, pos := 0, 0, 0
	for _, run := range c.Runs {
		from, to := max(pos, lo), min(pos+int(run.Count), hi)
		pos += int(run.Count)
		keep := run.ValIdx != NullIdx && from < to && verdict(c, run.ValIdx, op, val)
		if whole {
			for r := from; keep && r < to; r++ {
				dst[j] = int32(r)
				j++
			}
		} else {
			for ; k < len(dst) && int(dst[k]) < to; k++ {
				dst[j] = dst[k]
				j += boolInt(keep)
			}
		}
		if pos >= hi {
			break
		}
	}
	return dst[:j]
}

// selectEach keeps the rows keep holds true for, one call per row.
func selectEach(dst []int32, lo, hi int, whole bool, keep func(r int32) bool) []int32 {
	j := 0
	if whole {
		dst = dst[:hi-lo]
		for r := lo; r < hi; r++ {
			dst[j] = int32(r)
			j += boolInt(keep(int32(r)))
		}
		return dst[:j]
	}
	for _, r := range dst {
		dst[j] = r
		j += boolInt(keep(r))
	}
	return dst[:j]
}

// boolInt is 1 for true and 0 for false, without a branch.
func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func cmpString(a, b string) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func cmpBool(a, b bool) int {
	switch {
	case !a && b:
		return -1
	case a && !b:
		return 1
	}
	return 0
}

// IsNullMask returns a mask that is true where the column is NULL.
func IsNullMask(c *Column) []bool {
	mask := make([]bool, c.Len)
	switch c.Enc {
	case Plain:
		if c.Nulls != nil {
			copy(mask, c.Nulls)
		}
	case Dict:
		for i, code := range c.Codes {
			mask[i] = code == NullIdx
		}
	case RLE:
		pos := 0
		for _, r := range c.Runs {
			if r.ValIdx == NullIdx {
				for k := 0; k < int(r.Count); k++ {
					mask[pos+k] = true
				}
			}
			pos += int(r.Count)
		}
	}
	return mask
}

// And combines masks in place into a new mask.
func And(a, b []bool) []bool {
	out := make([]bool, len(a))
	for i := range a {
		out[i] = a[i] && b[i]
	}
	return out
}

// Or combines masks.
func Or(a, b []bool) []bool {
	out := make([]bool, len(a))
	for i := range a {
		out[i] = a[i] || b[i]
	}
	return out
}

// Not negates a mask.
func Not(a []bool) []bool {
	out := make([]bool, len(a))
	for i := range a {
		out[i] = !a[i]
	}
	return out
}

// CountMask returns the number of set positions. Four independent
// branch-free sums keep the loop off the branch predictor and off one
// add chain.
func CountMask(mask []bool) int {
	var a, b, c, d int
	i := 0
	for ; i+4 <= len(mask); i += 4 {
		m := mask[i : i+4 : i+4]
		a += boolInt(m[0])
		b += boolInt(m[1])
		c += boolInt(m[2])
		d += boolInt(m[3])
	}
	for ; i < len(mask); i++ {
		a += boolInt(mask[i])
	}
	return a + b + c + d
}

// Filter returns a batch containing only the rows where mask is true.
// Output columns are plain-encoded — unless every row is selected, when
// the result is b itself (see FilterWith).
func Filter(b *Batch, mask []bool) (*Batch, error) {
	return FilterWith(Mem{}, b, mask)
}

// FilterWith is Filter with an explicit memory policy: selection
// scratch and output arrays come from m's allocator, and Dict columns
// stay dictionary-encoded when m is pooled.
//
// A mask that selects every row returns b itself, and one that selects
// none an empty batch: a residual WHERE that pushdown already enforced
// costs its compare kernel and no copy. Because of the first case a
// filter result may alias its input, and the input may be a shared
// immutable batch (a scan-cache entry): callers must never write
// through a filter result's arrays. None does — operators and the DML
// rewrites only ever build new columns.
func FilterWith(m Mem, b *Batch, mask []bool) (*Batch, error) {
	if len(mask) != b.N {
		return nil, fmt.Errorf("vector: mask length %d != batch %d", len(mask), b.N)
	}
	n := CountMask(mask)
	switch n {
	case b.N:
		return b, nil
	case 0:
		return EmptyBatch(b.Schema), nil
	}
	// Knowing the count first sizes the index scratch to the survivors,
	// not the batch, and stopping at the n-th spares a selective filter
	// (a point lookup), on average, half of this second pass.
	idx := m.Allocator().Ints(n)[:0]
	for i, keep := range mask {
		if keep {
			if idx = append(idx, i); len(idx) == n {
				break
			}
		}
	}
	return gatherBatch(m, b, idx), nil
}

// filterCounted gathers the rows of one piece: the batch itself when
// every row survives, an empty one when none does.
func filterCounted(m Mem, s Selection) *Batch {
	b := s.Batch
	switch s.N {
	case b.N:
		return b
	case 0:
		return EmptyBatch(b.Schema)
	}
	idx := m.Allocator().Ints(s.N)
	for k, r := range s.Rows(0, s.N) {
		idx[k] = int(r)
	}
	return gatherBatch(m, b, idx)
}

// gatherBatch gathers the rows at idx of every column of b.
func gatherBatch(m Mem, b *Batch, idx []int) *Batch {
	cols := make([]*Column, len(b.Cols))
	for i, c := range b.Cols {
		cols[i] = GatherWith(m, c, idx)
	}
	return &Batch{Schema: b.Schema, Cols: cols, N: len(idx)}
}

// GatherWith gathers the rows at idx. Under a pooled allocator (late
// materialization) a Dict input stays Dict: only the codes are
// gathered and the dictionary value arrays are shared, so strings are
// not copied until result emission (Column.Value decodes on read).
// Otherwise the output is plain-encoded.
func GatherWith(m Mem, c *Column, idx []int) *Column {
	al := m.Allocator()
	dec := c
	if c.Enc == RLE {
		dec = c.Decode() // random access over RLE is O(runs); decode once
	}
	if m.Pooled() && dec.Enc == Dict {
		out := &Column{Type: c.Type, Len: len(idx), Enc: Dict, Pooled: m.Pooled() || dec.Pooled}
		out.Ints, out.Floats, out.Bools, out.Strs = dec.Ints, dec.Floats, dec.Bools, dec.Strs
		codes := al.Uint32s(len(idx))
		for outI, i := range idx {
			codes[outI] = dec.Codes[i]
		}
		out.Codes = codes
		return out
	}
	out := &Column{Type: c.Type, Len: len(idx), Enc: Plain, Pooled: m.Pooled()}
	var nulls []bool
	nullAt := func(outI int) {
		if nulls == nil {
			nulls = al.Bools(len(idx))
		}
		nulls[outI] = true
	}
	if dec.Enc == Dict {
		switch c.Type {
		case Int64, Timestamp:
			out.Ints = al.Int64s(len(idx))
			for outI, i := range idx {
				if code := dec.Codes[i]; code != NullIdx {
					out.Ints[outI] = dec.Ints[code]
				} else {
					nullAt(outI)
				}
			}
		case Float64:
			out.Floats = al.Float64s(len(idx))
			for outI, i := range idx {
				if code := dec.Codes[i]; code != NullIdx {
					out.Floats[outI] = dec.Floats[code]
				} else {
					nullAt(outI)
				}
			}
		case Bool:
			out.Bools = al.Bools(len(idx))
			for outI, i := range idx {
				if code := dec.Codes[i]; code != NullIdx {
					out.Bools[outI] = dec.Bools[code]
				} else {
					nullAt(outI)
				}
			}
		case String, Bytes:
			out.Strs = al.Strings(len(idx))
			for outI, i := range idx {
				if code := dec.Codes[i]; code != NullIdx {
					out.Strs[outI] = dec.Strs[code]
				} else {
					nullAt(outI)
				}
			}
		}
		out.Nulls = nulls
		return out
	}
	isNull := func(i int) bool { return dec.Nulls != nil && dec.Nulls[i] }
	switch c.Type {
	case Int64, Timestamp:
		out.Ints = al.Int64s(len(idx))
		for outI, i := range idx {
			if isNull(i) {
				nullAt(outI)
			} else {
				out.Ints[outI] = dec.Ints[i]
			}
		}
	case Float64:
		out.Floats = al.Float64s(len(idx))
		for outI, i := range idx {
			if isNull(i) {
				nullAt(outI)
			} else {
				out.Floats[outI] = dec.Floats[i]
			}
		}
	case Bool:
		out.Bools = al.Bools(len(idx))
		for outI, i := range idx {
			if isNull(i) {
				nullAt(outI)
			} else {
				out.Bools[outI] = dec.Bools[i]
			}
		}
	case String, Bytes:
		out.Strs = al.Strings(len(idx))
		for outI, i := range idx {
			if isNull(i) {
				nullAt(outI)
			} else {
				out.Strs[outI] = dec.Strs[i]
			}
		}
	}
	out.Nulls = nulls
	return out
}

// MaskKind is a data-masking transform (§3.2: "data masking" applied
// inside the Read API trust boundary).
type MaskKind uint8

// Masking transforms.
const (
	MaskNone     MaskKind = iota
	MaskNullify           // replace with NULL
	MaskHash              // replace with a deterministic hash token
	MaskDefault           // replace with the type's zero value
	MaskLastFour          // strings: keep last 4 chars, X out the rest
)

func (m MaskKind) String() string {
	switch m {
	case MaskNone:
		return "NONE"
	case MaskNullify:
		return "NULLIFY"
	case MaskHash:
		return "HASH"
	case MaskDefault:
		return "DEFAULT"
	case MaskLastFour:
		return "LAST_FOUR"
	}
	return "?"
}

// ApplyMask returns a masked copy of the column. For Dict and RLE
// columns the transform runs once per dictionary entry — masking is
// vectorized over the encoding just like predicates. HASH and LAST_FOUR
// produce a String column whose values share one buffer; LAST_FOUR
// keeps the last four *bytes* of the value as Value.String renders it,
// so it may cut a multi-byte UTF-8 character. An unknown kind fails
// closed, as NULLIFY.
func ApplyMask(c *Column, kind MaskKind) *Column {
	switch kind {
	case MaskNone:
		return c
	case MaskHash, MaskLastFour:
		out := &Column{Type: String, Len: c.Len, Enc: c.Enc, Codes: c.Codes, Runs: c.Runs}
		if c.Enc == Plain && c.Nulls != nil && slices.Contains(c.Nulls, true) {
			out.Nulls = append([]bool(nil), c.Nulls...)
		}
		out.Strs = maskValues(c, kind == MaskHash, out.Nulls)
		return out
	}
	out := &Column{Type: c.Type, Len: c.Len, Enc: Plain}
	if kind != MaskDefault {
		out.Nulls = make([]bool, c.Len)
		for i := range out.Nulls {
			out.Nulls[i] = true
		}
	}
	switch c.Type {
	case Int64, Timestamp:
		out.Ints = make([]int64, c.Len)
	case Float64:
		out.Floats = make([]float64, c.Len)
	case Bool:
		out.Bools = make([]bool, c.Len)
	case String, Bytes:
		out.Strs = make([]string, c.Len)
	}
	return out
}

// masker renders HASH or LAST_FOUR values into one buffer. HASH is
// "hash_%016x" of the FNV-1a of fmt's "%d:%s:%d:%g:%t" over a Value's
// (Type, S, I, F, B): a column's type fills one of the four fields, so
// the text around it — pre and suf — is fixed per column and hashed
// without being formatted.
type masker struct {
	strBuf
	hash bool
	pre  uint64 // FNV state after the prefix
	suf  string
	num  [32]byte // a numeric value's rendering
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
	hexDigits   = "0123456789abcdef"
	maskXs      = "XXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXX"
)

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}

func fnvBytes(h uint64, s []byte) uint64 {
	for _, b := range s {
		h = (h ^ uint64(b)) * fnvPrime64
	}
	return h
}

// hashed writes the token for a value whose field hashed to h.
func (m *masker) hashed(h uint64) string {
	h = fnvString(h, m.suf)
	tok := [21]byte{'h', 'a', 's', 'h', '_'}
	for i := 0; i < 16; i++ {
		tok[5+i] = hexDigits[h>>(60-4*i)&15]
	}
	m.sb.Write(tok[:])
	return m.cut()
}

// xs writes n X's.
func (m *masker) xs(n int) {
	for ; n > 0; n -= len(maskXs) {
		m.sb.WriteString(maskXs[:min(n, len(maskXs))])
	}
}

// lastFour writes s with all but its last four bytes X-ed out.
func (m *masker) lastFour(s string) string {
	if len(s) > 4 {
		m.xs(len(s) - 4)
		s = s[len(s)-4:]
	}
	m.sb.WriteString(s)
	return m.cut()
}

// lastFourHex is lastFour of s's "%x" rendering, which is how a Bytes
// value prints.
func (m *masker) lastFourHex(s string) string {
	if len(s) > 2 {
		m.xs(2*len(s) - 4)
		s = s[len(s)-2:]
	}
	for i := 0; i < len(s); i++ {
		m.sb.WriteByte(hexDigits[s[i]>>4])
		m.sb.WriteByte(hexDigits[s[i]&15])
	}
	return m.cut()
}

// rendered masks a numeric or boolean value whose rendering is b; b is
// overwritten.
func (m *masker) rendered(b []byte) string {
	if m.hash {
		return m.hashed(fnvBytes(m.pre, b))
	}
	for i := 0; i < len(b)-4; i++ {
		b[i] = 'X'
	}
	m.sb.Write(b)
	return m.cut()
}

// live reports whether row i is not flagged in nulls.
func live(nulls []bool, i int) bool { return nulls == nil || !nulls[i] }

// maskValues masks c's value arrays — the rows of a Plain column, the
// dictionary of a Dict or RLE one — skipping the rows nulls flags.
func maskValues(c *Column, hash bool, nulls []bool) []string {
	out := make([]string, c.dictLen())
	m := masker{hash: hash}
	// What "%d:%s:%d:%g:%t" prints around the type's one field, and the
	// longest rendering of a value: the bound of LAST_FOUR's buffer.
	pre, width := strconv.Itoa(int(c.Type))+"::", 0
	switch c.Type {
	case Int64, Timestamp:
		m.suf, width = ":0:false", 20
	case Float64:
		pre, m.suf, width = pre+"0:", ":false", 24
	case Bool:
		pre, width = pre+"0:0:", 5
	case String, Bytes:
		pre, m.suf = pre[:len(pre)-1], ":0:0:false"
		for i, s := range c.Strs {
			if live(nulls, i) {
				width += len(s)
			}
		}
		if c.Type == Bytes {
			width *= 2
		}
	}
	m.pre = fnvString(fnvOffset64, pre)
	switch {
	case hash:
		m.sb.Grow(21 * len(out))
	case c.Type == String || c.Type == Bytes:
		m.sb.Grow(width)
	default:
		m.sb.Grow(width * len(out))
	}

	switch c.Type {
	case Int64, Timestamp:
		for i, v := range c.Ints {
			if live(nulls, i) {
				out[i] = m.rendered(strconv.AppendInt(m.num[:0], v, 10))
			}
		}
	case Float64:
		for i, v := range c.Floats {
			if live(nulls, i) {
				out[i] = m.rendered(strconv.AppendFloat(m.num[:0], v, 'g', -1, 64))
			}
		}
	case Bool:
		for i, v := range c.Bools {
			if live(nulls, i) {
				out[i] = m.rendered(strconv.AppendBool(m.num[:0], v))
			}
		}
	case String, Bytes:
		for i, s := range c.Strs {
			switch {
			case !live(nulls, i):
			case hash:
				out[i] = m.hashed(fnvString(m.pre, s))
			case c.Type == String:
				out[i] = m.lastFour(s)
			default:
				out[i] = m.lastFourHex(s)
			}
		}
	}
	return out
}

// AggKind is a partial-aggregate function the Read API can push down
// (§3.4 future work, implemented here).
type AggKind uint8

// Aggregate kinds.
const (
	AggCount AggKind = iota
	AggSum
	AggMin
	AggMax
)

func (a AggKind) String() string {
	switch a {
	case AggCount:
		return "COUNT"
	case AggSum:
		return "SUM"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	}
	return "?"
}
