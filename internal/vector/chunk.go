package vector

import "math"

// This file is the write path's one pass over a column chunk: it
// chooses the chunk's physical encoding, builds only that encoding, and
// yields the chunk's footer statistics, reading the typed arrays and
// never a boxed Value.
//
// Values are told apart by the hash kernel's key identity (hash.go):
// Int64 and Timestamp exactly, Float64 by floatKeyBits (−0.0 and +0.0
// are distinct values, every NaN is one value), strings and bytes
// byte-wise, bools by value. So a dictionary or a run never merges −0.0
// with 0.0 or two integers beyond 2^53, and NaN never splits into one
// entry per row. A NaN's payload is the one part of a value the pass
// does not keep: a dictionary or run holds the canonical NaN.

// ChunkEncoder chooses and builds the encodings of column chunks. Its
// buffers are reused from one Encode to the next, so the column of a
// Chunk it returns is valid only until its next Encode. The zero value
// is ready to use; an encoder is not safe for concurrent use.
type ChunkEncoder struct {
	codes []uint32 // each row's first-appearance code; NullIdx for NULL
	slots []uint32 // open-addressing table of codes; NullIdx is a free slot
	keys  []uint64 // each row's key, for the numeric and Bool types
	words []uint64 // the distinct keys, in first-appearance order
	dict  Column   // the distinct values, in first-appearance order
	runs  []Run
}

// Chunk is one column chunk in its chosen encoding, with the statistics
// its footer records.
type Chunk struct {
	Col      *Column
	Min, Max Value // as MinMax reports them
	Nulls    int64
	// Distinct is the number of distinct non-NULL values under the key
	// identity; for a chunk handed over Dict-encoded, its dictionary's
	// length.
	Distinct int
}

// Encode codes a chunk in one pass over its rows. With choose set, a
// Plain chunk is written as a dictionary when its distinct values are
// at most half its rows, and then as runs instead when its runs are at
// most a third of its rows; otherwise, and always for a chunk that is
// already Dict or RLE, the column is kept as it is.
func (e *ChunkEncoder) Encode(c *Column, choose bool) Chunk {
	switch c.Enc {
	case Dict:
		min, max, nulls := MinMax(c, nil)
		return Chunk{Col: c, Min: min, Max: max, Nulls: nulls, Distinct: c.dictLen()}
	case RLE:
		ch := e.Encode(c.Decode(), false)
		ch.Col = c
		return ch
	}
	runs, nulls := e.code(c)
	ch := Chunk{Col: c, Nulls: nulls, Distinct: e.dict.Len}
	ch.Min, ch.Max, _ = MinMax(&e.dict, nil)
	if choose && ch.Distinct > 0 && ch.Distinct*2 <= c.Len {
		if runs*3 <= c.Len {
			ch.Col = e.rleColumn(c, runs)
		} else {
			ch.Col = e.dictColumn(c)
		}
	}
	return ch
}

// DictEncode returns a dictionary-encoded copy of a plain column (or
// the column itself if already encoded).
func DictEncode(c *Column) *Column {
	if c.Enc != Plain {
		return c
	}
	var e ChunkEncoder
	e.code(c)
	return e.dictColumn(c)
}

// RLEncode returns a run-length-encoded copy of a plain column (or the
// column itself if already encoded).
func RLEncode(c *Column) *Column {
	if c.Enc != Plain {
		return c
	}
	var e ChunkEncoder
	runs, _ := e.code(c)
	return e.rleColumn(c, runs)
}

// code fills e.codes with the first-appearance code of each of c's
// rows and e.dict with its distinct values, and returns its number of
// runs — maximal stretches of one code, a stretch of NULLs included —
// and of NULL rows.
func (e *ChunkEncoder) code(c *Column) (runs int, nulls int64) {
	n := c.Len
	e.codes = resize(e.codes, n)
	size := 8
	for size < 2*n {
		size *= 2
	}
	e.slots = resize(e.slots, size)
	for i := range e.slots {
		e.slots[i] = NullIdx
	}
	e.dict = Column{Type: c.Type, Enc: Plain, Ints: e.dict.Ints[:0], Floats: e.dict.Floats[:0],
		Bools: e.dict.Bools[:0], Strs: e.dict.Strs[:0]}
	var isNull []bool
	if c.Nulls != nil {
		isNull = c.Nulls[:n]
	}
	switch c.Type {
	case String, Bytes:
		e.dict.Strs = codeStrings(e.codes, e.slots, c.Strs[:n], isNull, e.dict.Strs)
		e.dict.Len = len(e.dict.Strs)
	case Int64, Timestamp, Float64, Bool:
		e.keys = resize(e.keys, n)
		switch c.Type {
		case Float64:
			for i, v := range c.Floats[:n] {
				e.keys[i] = floatKeyBits(v)
			}
		case Bool:
			for i, v := range c.Bools[:n] {
				e.keys[i] = uint64(boolInt(v))
			}
		default:
			for i, v := range c.Ints[:n] {
				e.keys[i] = uint64(v)
			}
		}
		e.words = codeWords(e.codes, e.slots, e.keys, isNull, e.words[:0])
		e.dict.Len = len(e.words)
		switch c.Type {
		case Float64:
			for _, k := range e.words {
				e.dict.Floats = append(e.dict.Floats, math.Float64frombits(k))
			}
		case Bool:
			for _, k := range e.words {
				e.dict.Bools = append(e.dict.Bools, k == 1)
			}
		default:
			for _, k := range e.words {
				e.dict.Ints = append(e.dict.Ints, int64(k))
			}
		}
	}
	prev := NullIdx
	for i, code := range e.codes {
		if code == NullIdx {
			nulls++
		}
		if i == 0 || code != prev {
			runs++
		}
		prev = code
	}
	return runs, nulls
}

// codeWords gives each non-NULL key its first-appearance code through
// the open-addressing table slots (a power of two, at least twice the
// rows), appending each new key to dict.
func codeWords(codes, slots []uint32, keys []uint64, nulls []bool, dict []uint64) []uint64 {
	mask := uint64(len(slots) - 1)
	last, lastCode := uint64(0), NullIdx
	for i, k := range keys {
		if nulls != nil && nulls[i] {
			codes[i] = NullIdx
			continue
		}
		if k == last && lastCode != NullIdx {
			codes[i] = lastCode
			continue
		}
		h := mix64(k) & mask
		for {
			s := slots[h]
			if s == NullIdx {
				s = uint32(len(dict))
				slots[h] = s
				dict = append(dict, k)
			} else if dict[s] != k {
				h = (h + 1) & mask
				continue
			}
			codes[i], last, lastCode = s, k, s
			break
		}
	}
	return dict
}

// codeStrings is codeWords over string values.
func codeStrings(codes, slots []uint32, vals []string, nulls []bool, dict []string) []string {
	mask := uint64(len(slots) - 1)
	last, lastCode := "", NullIdx
	for i, v := range vals {
		if nulls != nil && nulls[i] {
			codes[i] = NullIdx
			continue
		}
		if v == last && lastCode != NullIdx {
			codes[i] = lastCode
			continue
		}
		h := hashString(v) & mask
		for {
			s := slots[h]
			if s == NullIdx {
				s = uint32(len(dict))
				slots[h] = s
				dict = append(dict, v)
			} else if dict[s] != v {
				h = (h + 1) & mask
				continue
			}
			codes[i], last, lastCode = s, v, s
			break
		}
	}
	return dict
}

// dictColumn is the coded chunk as a dictionary: the codes over the
// distinct values.
func (e *ChunkEncoder) dictColumn(c *Column) *Column {
	out := &Column{Type: c.Type, Len: c.Len, Enc: Dict, Codes: e.codes}
	switch c.Type {
	case Int64, Timestamp:
		out.Ints = e.dict.Ints
	case Float64:
		out.Floats = e.dict.Floats
	case Bool:
		out.Bools = e.dict.Bools
	case String, Bytes:
		out.Strs = e.dict.Strs
	}
	return out
}

// rleColumn is the coded chunk as runs. A run of values holds its own
// copy of the value, so the value arrays hold one entry per non-NULL
// run, in row order.
func (e *ChunkEncoder) rleColumn(c *Column, runs int) *Column {
	e.runs = e.runs[:0]
	if cap(e.runs) < runs {
		e.runs = make([]Run, 0, runs)
	}
	for i, code := range e.codes {
		if i > 0 && code == e.codes[i-1] {
			e.runs[len(e.runs)-1].Count++
			continue
		}
		e.runs = append(e.runs, Run{Count: 1, ValIdx: code})
	}
	out := &Column{Type: c.Type, Len: c.Len, Enc: RLE, Runs: e.runs}
	switch c.Type {
	case Int64, Timestamp:
		out.Ints = runValues(e.runs, e.dict.Ints)
	case Float64:
		out.Floats = runValues(e.runs, e.dict.Floats)
	case Bool:
		out.Bools = runValues(e.runs, e.dict.Bools)
	case String, Bytes:
		out.Strs = runValues(e.runs, e.dict.Strs)
	}
	return out
}

// runValues points each non-NULL run, whose ValIdx is still its code,
// at its own entry of a new value array.
func runValues[T any](runs []Run, dict []T) []T {
	vals := make([]T, 0, len(runs))
	for i := range runs {
		if code := runs[i].ValIdx; code != NullIdx {
			runs[i].ValIdx = uint32(len(vals))
			vals = append(vals, dict[code])
		}
	}
	return vals
}

// resize returns s with length n, reusing its array when it is large
// enough; the contents are not preserved.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
