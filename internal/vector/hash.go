package vector

import "math"

// This file implements the typed columnar hashing layer under the
// parallel join and grouped-aggregation kernels. Keys are hashed
// directly from their physical representation — int64/float64/bool
// values straight from the column arrays, strings once per dictionary
// entry when dict-encoded — so no per-row Value boxing or string key
// materialization happens on the hot path.
//
// Key identity deliberately mirrors the engine's historical
// `Type|String()` rendering (shared with the differential oracle):
// values of different logical types never compare equal (Int64(5) is
// not Timestamp(5) and not Float64(5.0)), every NaN is one key, and
// -0.0 and +0.0 are distinct keys (they render differently under %g).

// canonicalNaN is the single bit pattern all NaNs collapse to for key
// identity; "%g" renders every NaN as "NaN".
var canonicalNaN = math.Float64bits(math.NaN())

// floatKeyBits returns the key-identity bits of a float: raw IEEE bits
// with NaNs collapsed. ±0.0 keep their distinct bit patterns.
func floatKeyBits(f float64) uint64 {
	if f != f {
		return canonicalNaN
	}
	return math.Float64bits(f)
}

// mix64 is the splitmix64 finalizer; good avalanche for cheap.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hashString is FNV-1a 64 over the string bytes, finalized with mix64.
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return mix64(h)
}

// combineHash folds one column's contribution into a row hash.
func combineHash(h, contrib uint64) uint64 {
	return (h ^ contrib) * 0x9e3779b97f4a7c15
}

// keyAccess is boxing-free random access to one key column. RLE
// columns are decoded once up front (random access over runs is
// O(runs)); Plain and Dict are accessed in place.
type keyAccess struct {
	c *Column
	// dictHash caches per-dictionary-entry hashes for Dict columns so
	// string (and every other) dictionary value is hashed exactly once
	// regardless of row count.
	dictHash []uint64
}

// valueAccess is keyAccess without the dictionary hashes: what an
// aggregate input reads, values only.
func valueAccess(c *Column) keyAccess {
	if c.Enc == RLE {
		c = c.Decode()
	}
	return keyAccess{c: c}
}

// newKeyAccess takes the dictionary hash cache from al.
func newKeyAccess(al Alloc, c *Column) keyAccess {
	ka := valueAccess(c)
	if c := ka.c; c.Enc == Dict {
		n := c.dictLen()
		ka.dictHash = al.Uint64s(n)
		for i := 0; i < n; i++ {
			ka.dictHash[i] = hashValIdx(c, uint32(i))
		}
	}
	return ka
}

// hashValIdx hashes the dictionary/array value at idx.
func hashValIdx(c *Column, idx uint32) uint64 {
	switch c.Type {
	case Int64, Timestamp:
		return mix64(uint64(c.Ints[idx]))
	case Float64:
		return mix64(floatKeyBits(c.Floats[idx]))
	case Bool:
		if c.Bools[idx] {
			return mix64(1)
		}
		return mix64(0)
	default: // String, Bytes
		return hashString(c.Strs[idx])
	}
}

// null reports whether row i is NULL.
func (k keyAccess) null(i int) bool {
	if k.c.Enc == Dict {
		return k.c.Codes[i] == NullIdx
	}
	return k.c.Nulls != nil && k.c.Nulls[i]
}

// valIdx returns the value-array index for row i (caller ensures the
// row is non-null).
func (k keyAccess) valIdx(i int) uint32 {
	if k.c.Enc == Dict {
		return k.c.Codes[i]
	}
	return uint32(i)
}

// hash returns the hash contribution of row i (caller ensures
// non-null).
func (k keyAccess) hash(i int) uint64 {
	if k.dictHash != nil {
		return k.dictHash[k.c.Codes[i]]
	}
	return hashValIdx(k.c, uint32(i))
}

// valEq reports key equality between row i of a and row j of b. The
// caller has already verified the column types are identical and both
// rows are non-null.
func valEq(a keyAccess, i int, b keyAccess, j int) bool {
	ai, bi := a.valIdx(i), b.valIdx(j)
	switch a.c.Type {
	case Int64, Timestamp:
		return a.c.Ints[ai] == b.c.Ints[bi]
	case Float64:
		return floatKeyBits(a.c.Floats[ai]) == floatKeyBits(b.c.Floats[bi])
	case Bool:
		return a.c.Bools[ai] == b.c.Bools[bi]
	default:
		return a.c.Strs[ai] == b.c.Strs[bi]
	}
}

// keysEq reports multi-column key equality between row i of a and row
// j of b.
func keysEq(a []keyAccess, i int, b []keyAccess, j int) bool {
	for k := range a {
		if !valEq(a[k], i, b[k], j) {
			return false
		}
	}
	return true
}

// hashKeyRange fills hashes and null for the combined key columns at
// rows, one slot per row: null[k] is true when any key column is NULL
// at rows[k] (SQL join/group semantics treat such rows as matching
// nothing).
func hashKeyRange(keys []keyAccess, rows []int32, hashes []uint64, null []bool) {
	for k := range hashes {
		hashes[k] = 0x9e3779b97f4a7c15
	}
	for _, ka := range keys {
		for k, r := range rows {
			if null[k] {
				continue
			}
			if ka.null(int(r)) {
				null[k] = true
				continue
			}
			hashes[k] = combineHash(hashes[k], ka.hash(int(r)))
		}
	}
}
