package vector

import (
	"math"
	"math/bits"
)

// This file holds the exact float SUM the aggregate accumulators share.
// A float SUM is the float64 nearest (ties to even) to the exact sum of
// its multiset of inputs, so it does not depend on the order the rows
// are added in, on how they are split into morsels, workers, files or
// streams, or on the door that asked.
//
// Two tiers give that answer:
//   - The fast path is a plain float64 sum whose every add and merge is
//     checked for exactness (TwoSum's error term is zero). While each is
//     exact the plain sum is the exact sum, and needs no rounding. Every
//     dyadic input whose sums fit 53 bits stays here.
//   - Otherwise the rows are refolded exactly: summed in windows of a
//     128-bit register pair, whose totals a superaccumulator collects
//     (Neal, "Fast exact summation using small and large
//     superaccumulators", arXiv 1505.05571): a fixed-point integer wide
//     enough for every float64, with carries deferred.
//     Superaccumulators merge by addition and are rounded once; a group
//     that fits one window is rounded from it directly.
//
// ±Inf and NaN are kept beside the superaccumulator and give IEEE's
// answer: NaN if any input is NaN or both infinities occur, else the
// infinity that occurs. A sum whose every input is −0 is −0, so plain
// sums start at −0 (−0 + x is x for every x, +0 included).

// negZero is where a plain float sum starts.
var negZero = math.Copysign(0, -1)

// addExact returns a+b rounded and whether it is the exact sum: the
// TwoSum error term is zero. That is so exactly when t−a == b and
// t−b == a: if |a| ≥ |b|, t−a is computed exactly (Dekker), so it is b
// only when t is a+b; the other case is symmetric. An overflow, or an
// infinite or NaN operand, is never exact.
func addExact(a, b float64) (float64, bool) {
	t := a + b
	return t, t-a == b && t-b == a
}

// sumRun is the plain sum of the values of vals at rows and whether it
// is exact. Four lanes run side by side: a sum whose every add is exact
// is the same however its adds are grouped.
func sumRun(vals []float64, rows []int32) (float64, bool) {
	s0, s1, s2, s3 := negZero, negZero, negZero, negZero
	exact := true
	i := 0
	for ; i+4 <= len(rows); i += 4 {
		r := rows[i : i+4 : i+4]
		v0, v1, v2, v3 := vals[r[0]], vals[r[1]], vals[r[2]], vals[r[3]]
		t0, t1, t2, t3 := s0+v0, s1+v1, s2+v2, s3+v3
		if t0-s0 != v0 || t0-v0 != s0 || t1-s1 != v1 || t1-v1 != s1 ||
			t2-s2 != v2 || t2-v2 != s2 || t3-s3 != v3 || t3-v3 != s3 {
			exact = false
		}
		s0, s1, s2, s3 = t0, t1, t2, t3
	}
	for ; i < len(rows); i++ {
		var ok bool
		s0, ok = addExact(s0, vals[rows[i]])
		exact = exact && ok
	}
	s01, ok01 := addExact(s0, s1)
	s23, ok23 := addExact(s2, s3)
	s, ok := addExact(s01, s23)
	return s, exact && ok01 && ok23 && ok
}

// Superaccumulator layout: digit i holds bits [32i, 32i+32) of the sum
// in units of 2^-1074 (the smallest subnormal), as a signed int64 whose
// carries out of its 32 bits are deferred. A finite float64 spans bits
// 0 through 2097; 68 digits leave room above for the carries of 2^63
// adds. One add changes three digits by less than 2^32 each, so the
// digits cannot overflow before carryEvery adds since they were last
// normalized.
const (
	exactDigits = 68
	carryEvery  = 1 << 30
)

// exactSum is one superaccumulator. Only digits [low, span) can be
// non-zero, so normalizing and rounding touch only the digits its
// values reached (span 0: nothing added).
type exactSum struct {
	d                   [exactDigits]int64
	low, span           int
	adds                int64 // adds and merges since the last normalize
	nan, posInf, negInf bool
	notNegZero          bool // a value other than −0 was added: a zero sum is +0
}

const signBit = 1 << 63

// touch widens the digit span to cover digits [lo, hi].
func (a *exactSum) touch(lo, hi int) {
	if a.span == 0 || lo < a.low {
		a.low = lo
	}
	a.span = max(a.span, hi+1)
}

// add folds v in exactly.
func (a *exactSum) add(v float64) {
	b := math.Float64bits(v)
	a.notNegZero = a.notNegZero || b != signBit
	exp := int(b>>52) & 0x7ff
	m := b & (1<<52 - 1)
	switch exp {
	case 0x7ff:
		switch {
		case m != 0:
			a.nan = true
		case b&signBit != 0:
			a.negInf = true
		default:
			a.posInf = true
		}
		return
	case 0: // subnormal or zero: the exponent of the smallest normal
		if m == 0 {
			return
		}
		exp = 1
	default:
		m |= 1 << 52
	}
	// v is m × 2^(exp-1075), so m's lowest bit is bit exp-1 above 2^-1074.
	p := exp - 1
	i, s := p>>5, uint(p&31)
	lo, hi := m<<s, (m>>1)>>(63-s) // m << s as 85 bits ((m>>1)>>63 is 0)
	d0, d1, d2 := int64(lo&0xffffffff), int64(lo>>32), int64(hi)
	if b&signBit != 0 {
		d0, d1, d2 = -d0, -d1, -d2
	}
	a.d[i] += d0
	a.d[i+1] += d1
	a.d[i+2] += d2
	a.touch(i, i+2)
	if a.adds++; a.adds >= carryEvery {
		a.normalize()
	}
}

// windowRows bounds one window: 2^11 values of under 2^116 each sum to
// under 2^127, so a window never overflows 128 signed bits.
const windowRows = 1 << 11

// window is a run of values summed exactly in a 128-bit register pair:
// their sum is the signed integer hi:lo times 2^(p-1074).
type window struct {
	hi, lo uint64
	p      int
}

// sumWindow sums win, at most windowRows values, in a window whose
// lowest bit is 63 bits below the lowest bit of its largest exponent's
// values; a value below that is handed to below instead. It reports
// false, summing nothing, when win holds ±Inf or NaN. notNegZero is
// non-zero unless every value of win is −0.
func sumWindow(win []float64, below func(float64)) (w window, notNegZero uint64, ok bool) {
	top := 1 // a subnormal's exponent field is 0 but it scales as 1
	for _, v := range win {
		b := math.Float64bits(v)
		notNegZero |= b ^ signBit
		top = max(top, int(b>>52)&0x7ff)
	}
	if top == 0x7ff {
		return w, notNegZero, false
	}
	base := top - 63 // a value of exponent e is m << (e-base)
	for _, v := range win {
		b := math.Float64bits(v)
		e, m := int(b>>52)&0x7ff, b&(1<<52-1)
		if e == 0 {
			e = 1
		} else {
			m |= 1 << 52
		}
		k := e - base
		if k < 0 {
			below(v)
			continue
		}
		// m << k as 128 bits; each shift masked below 64 so it compiles
		// to one instruction ((m>>1)>>63 is 0: m has 53 bits).
		x0, x1 := m<<(uint(k)&63), (m>>1)>>((63-uint(k))&63)
		neg := -(b >> 63) // all ones for a negative v: add ^x + 1
		var c uint64
		w.lo, c = bits.Add64(w.lo, x0^neg, neg&1)
		w.hi += x1 ^ neg + c
	}
	w.p = base - 1
	return w, notNegZero, true
}

// round returns w's sum rounded once to the nearest float64, ties to
// even: its top 53 bits, rounded by the bit below them and every bit
// below that. A zero sum is −0 when negZeroOnly.
func (w window) round(negZeroOnly bool) float64 {
	hi, lo := w.hi, w.lo
	neg := int64(hi) < 0
	if neg {
		var c uint64
		lo, c = bits.Add64(^lo, 1, 0)
		hi = ^hi + c
	}
	n := bits.Len64(lo)
	if hi != 0 {
		n = 64 + bits.Len64(hi)
	}
	if n == 0 {
		if negZeroOnly {
			return negZero
		}
		return 0
	}
	sig, shift := lo, max(n-53, 0)
	if shift > 0 {
		r := shift - 1 // the rounding bit
		var half, sticky bool
		if r >= 64 {
			sig = hi >> (shift - 64)
			half, sticky = hi>>(r-64)&1 != 0, lo != 0 || hi&(1<<(r-64)-1) != 0
		} else {
			sig = lo>>shift | hi<<(64-shift)
			half, sticky = lo>>r&1 != 0, lo&(1<<r-1) != 0
		}
		if half && (sticky || sig&1 != 0) {
			sig++ // 2^53 at most, still exact as a float64
		}
	}
	// Exact below 2^-1022 (a multiple of 2^-1074 there is a subnormal);
	// ±Inf past the largest float64.
	f := math.Ldexp(float64(sig), shift+w.p-1074)
	if neg {
		f = -f
	}
	return f
}

// addSlice adds every value of vals, a window at a time: only each
// window's total touches the digits. A value below its window, or a
// window holding ±Inf or NaN, goes through add.
func (a *exactSum) addSlice(vals []float64) {
	for len(vals) > 0 {
		win := vals[:min(len(vals), windowRows)]
		vals = vals[len(win):]
		w, notNegZero, ok := sumWindow(win, a.add)
		if !ok {
			for _, v := range win {
				a.add(v)
			}
			continue
		}
		a.addWindow(w.hi, w.lo, w.p)
		a.notNegZero = a.notNegZero || notNegZero != 0
	}
}

// addWindow adds the signed 128-bit hi:lo at bit p above 2^-1074. Bits
// below p < 0 are zero (every float64 is a multiple of 2^-1074), so
// they are shifted out.
func (a *exactSum) addWindow(hi, lo uint64, p int) {
	if p < 0 {
		lo = lo>>uint(-p) | hi<<uint(64+p)
		hi = uint64(int64(hi) >> uint(-p))
		p = 0
	}
	// Four 32-bit parts, the top one signed, each added at its bit.
	for j, part := range [4]int64{int64(lo & 0xffffffff), int64(lo >> 32), int64(hi & 0xffffffff), int64(hi) >> 32} {
		q := p + 32*j
		x := part << uint(q&31)
		a.d[q>>5] += x & 0xffffffff
		a.d[q>>5+1] += x >> 32
	}
	a.touch(p>>5, (p+96)>>5+1)
	if a.adds += 2; a.adds >= carryEvery {
		a.normalize()
	}
}

// merge adds o into a.
func (a *exactSum) merge(o *exactSum) {
	if o.span > 0 {
		for i := o.low; i < o.span; i++ {
			a.d[i] += o.d[i]
		}
		a.touch(o.low, o.span-1)
	}
	a.nan, a.posInf, a.negInf = a.nan || o.nan, a.posInf || o.posInf, a.negInf || o.negInf
	a.notNegZero = a.notNegZero || o.notNegZero
	if a.adds += o.adds + 1; a.adds >= carryEvery {
		a.normalize()
	}
}

// normalize propagates the deferred carries from the span's lowest
// digit up: each digit it passes ends in [0, 2^32), and the last carry
// lands, with its sign, in the digit above them — the highest non-zero
// digit then carries the sum's sign.
func (a *exactSum) normalize() {
	var carry int64
	i := a.low
	for ; i < exactDigits-1 && (i < a.span || carry != 0); i++ {
		v := a.d[i] + carry
		a.d[i], carry = v&0xffffffff, v>>32
	}
	a.d[i] += carry
	a.span = max(a.span, i+1)
	a.adds = 0
}

// round returns the float64 nearest the exact sum, ties to even; an
// exact zero is +0, or −0 when every value added was −0. The sum's top
// 127 bits are rounded as a window, every bit below them folded into
// its lowest.
func (a *exactSum) round() float64 {
	switch {
	case a.nan || (a.posInf && a.negInf):
		return math.NaN()
	case a.posInf:
		return math.Inf(1)
	case a.negInf:
		return math.Inf(-1)
	}
	m := *a
	m.normalize()
	top := m.span - 1
	for top >= m.low && m.d[top] == 0 {
		top--
	}
	if top < m.low {
		return window{}.round(!a.notNegZero)
	}
	neg := m.d[top] < 0
	if neg {
		for i := m.low; i < m.span; i++ {
			m.d[i] = -m.d[i]
		}
		m.normalize()
		for top = m.span - 1; m.d[top] == 0; top-- {
		}
	}
	hb := 32*top + bits.Len64(uint64(m.d[top])) - 1 // the highest set bit
	p := max(hb-126, 0)
	w := window{hi: m.bitsFrom(p + 64), lo: m.bitsFrom(p), p: p}
	sticky := uint64(m.d[p>>5])&(1<<(p&31)-1) != 0
	for i := m.low; i < p>>5 && !sticky; i++ {
		sticky = m.d[i] != 0
	}
	if sticky {
		w.lo |= 1
	}
	f := w.round(false)
	if neg {
		f = -f
	}
	return f
}

// bitsFrom returns the 64 bits of a normalized accumulator from bit lo
// up.
func (a *exactSum) bitsFrom(lo int) uint64 {
	digit := func(i int) uint64 {
		if i < exactDigits {
			return uint64(a.d[i])
		}
		return 0
	}
	i, s := lo>>5, uint(lo&31)
	return digit(i)>>s | digit(i+1)<<(32-s) | digit(i+2)<<(64-s)
}
