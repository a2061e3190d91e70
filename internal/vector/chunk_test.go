package vector

import (
	"fmt"
	"math"
	"testing"

	"biglake/internal/sim"
)

// chunkKey renders a non-NULL value under the key identity the chunk
// pass documents: exact integers, float bits with every NaN one key,
// strings byte-wise.
func chunkKey(c *Column, i int) string {
	switch c.Type {
	case Float64:
		f := c.Floats[i]
		if f != f {
			return "NaN"
		}
		return fmt.Sprint(math.Float64bits(f))
	case Bool:
		return fmt.Sprint(c.Bools[i])
	case String, Bytes:
		return "s" + c.Strs[i]
	}
	return fmt.Sprint(c.Ints[i])
}

// chunkReference is the pass's contract spelled out per row with a map:
// distinct non-NULL keys, runs (NULL stretches included) and NULLs.
func chunkReference(c *Column) (distinct, runs int, nulls int64) {
	seen := map[string]bool{}
	prev := ""
	for i := 0; i < c.Len; i++ {
		k := "null"
		if c.Nulls != nil && c.Nulls[i] {
			nulls++
		} else {
			k = chunkKey(c, i)
			seen[k] = true
		}
		if i == 0 || k != prev {
			runs++
		}
		prev = k
	}
	return len(seen), runs, nulls
}

// sameBits reports whether two decoded rows hold the same value: NULL
// alike, floats bit for bit except that NaN need only stay NaN.
func sameBits(a *Column, i int, b *Column, j int) bool {
	an, bn := a.IsNullAt(i), b.IsNullAt(j)
	if an || bn {
		return an == bn
	}
	if a.Type == Float64 {
		x, y := a.Floats[i], b.Floats[j]
		if x != x {
			return y != y
		}
		return math.Float64bits(x) == math.Float64bits(y)
	}
	return chunkKey(a, i) == chunkKey(b, j)
}

// randomChunk draws a Plain column of t shaped to reach each encoding:
// few or many distinct values, long or no runs, NULL stretches, and
// the values a float64 comparison merges (−0 and 0, NaN payloads,
// integers beyond 2^53).
func randomChunk(r *sim.RNG, t Type, n int) *Column {
	card := 1 + r.Intn([]int{2, 8, n + 1}[r.Intn(3)])
	runLen := 1 + r.Intn([]int{1, 4, 40}[r.Intn(3)])
	nullPct := []int{0, 10, 60}[r.Intn(3)]
	floats := []float64{math.Copysign(0, -1), 0, math.NaN(), math.Float64frombits(0x7ff8000000000001), 1.5, -2}
	c := &Column{Type: t, Len: n, Enc: Plain}
	var v int
	for i := 0; i < n; i++ {
		if i%runLen == 0 {
			v = r.Intn(card)
		}
		null := r.Intn(100) < nullPct
		if null {
			if c.Nulls == nil {
				c.Nulls = make([]bool, n)
			}
			c.Nulls[i] = true
		}
		switch t {
		case Int64, Timestamp:
			c.Ints = append(c.Ints, 1<<53+int64(v))
		case Float64:
			if v < len(floats) {
				c.Floats = append(c.Floats, floats[v])
			} else {
				c.Floats = append(c.Floats, float64(v)/4)
			}
		case Bool:
			c.Bools = append(c.Bools, v%2 == 1)
		case String, Bytes:
			c.Strs = append(c.Strs, fmt.Sprintf("v%d", v))
		}
	}
	return c
}

// TestChunkEncoderMatchesReference: over random chunks of every type,
// the one pass counts what the per-row reference counts, chooses by the
// documented rule, reports MinMax's statistics, and its encoding
// decodes to the input row for row.
func TestChunkEncoderMatchesReference(t *testing.T) {
	r := sim.NewRNG(42)
	var e ChunkEncoder
	for trial := 0; trial < 400; trial++ {
		typ := []Type{Int64, Timestamp, Float64, Bool, String, Bytes}[trial%6]
		c := randomChunk(r, typ, r.Intn(300))
		distinct, runs, nulls := chunkReference(c)
		ch := e.Encode(c, true)
		want := Plain
		if distinct > 0 && distinct*2 <= c.Len {
			want = Dict
			if runs*3 <= c.Len {
				want = RLE
			}
		}
		if ch.Distinct != distinct || ch.Nulls != nulls || ch.Col.Enc != want {
			t.Fatalf("trial %d %v: distinct %d nulls %d enc %v, want %d %d %v", trial, typ,
				ch.Distinct, ch.Nulls, ch.Col.Enc, distinct, nulls, want)
		}
		min, max, _ := MinMax(c, nil)
		if !sameValue(ch.Min, min) || !sameValue(ch.Max, max) {
			t.Fatalf("trial %d %v: min/max %v/%v, want %v/%v", trial, typ, ch.Min, ch.Max, min, max)
		}
		back := ch.Col.Decode()
		for i := 0; i < c.Len; i++ {
			if !sameBits(back, i, c, i) {
				t.Fatalf("trial %d %v %v: row %d reads %v, wrote %v", trial, typ, ch.Col.Enc, i, back.Value(i), c.Value(i))
			}
		}
		if e.Encode(c, false).Col != c {
			t.Fatalf("trial %d: a chunk with encodings off was not kept as it is", trial)
		}
	}
}

// TestChunkEncoderKeyIdentity: −0 and 0 are two dictionary entries, a
// chunk's NaNs one, and integers beyond 2^53 that float64 cannot tell
// apart stay distinct runs.
func TestChunkEncoderKeyIdentity(t *testing.T) {
	var e ChunkEncoder
	var fs []float64
	for i := 0; i < 8; i++ {
		fs = append(fs, math.Copysign(0, -1), 0, math.NaN())
	}
	ch := e.Encode(NewFloat64Column(fs), true)
	if ch.Col.Enc != Dict || len(ch.Col.Floats) != 3 || ch.Distinct != 3 {
		t.Fatalf("{−0, 0, NaN} × 8: %v with %d entries, distinct %d; want a 3-entry dictionary",
			ch.Col.Enc, len(ch.Col.Floats), ch.Distinct)
	}
	back := ch.Col.Decode()
	for i, f := range fs {
		if !sameBits(back, i, NewFloat64Column(fs), i) {
			t.Fatalf("row %d reads %v (bits %x), wrote bits %x", i, back.Floats[i], math.Float64bits(back.Floats[i]), math.Float64bits(f))
		}
	}

	ints := make([]int64, 64)
	for i := range ints {
		ints[i] = 1 << 53
		if i >= 32 {
			ints[i]++
		}
	}
	for _, c := range []*Column{NewInt64Column(ints), NewTimestampColumn(ints)} {
		ch := e.Encode(c, true)
		if ch.Col.Enc != RLE || len(ch.Col.Runs) != 2 || ch.Distinct != 2 {
			t.Fatalf("%v 32 × 2^53, 32 × 2^53+1: %v with %d runs, distinct %d; want 2 runs", c.Type, ch.Col.Enc, len(ch.Col.Runs), ch.Distinct)
		}
		if back := ch.Col.Decode(); back.Ints[31] != 1<<53 || back.Ints[32] != 1<<53+1 {
			t.Fatalf("%v: rows 31, 32 read %d, %d", c.Type, back.Ints[31], back.Ints[32])
		}
	}
}

// TestChunkEncoderKeepsEncodedInput: a Dict chunk keeps its dictionary
// and reports its length as Distinct; an RLE chunk keeps its runs.
func TestChunkEncoderKeepsEncodedInput(t *testing.T) {
	var e ChunkEncoder
	d := &Column{Type: String, Len: 3, Enc: Dict, Strs: []string{"a", "b", "unused"}, Codes: []uint32{1, NullIdx, 0}}
	ch := e.Encode(d, true)
	if ch.Col != d || ch.Distinct != 3 || ch.Nulls != 1 || ch.Min.S != "a" || ch.Max.S != "b" {
		t.Fatalf("Dict input: %+v", ch)
	}
	rl := RLEncode(NewInt64Column([]int64{4, 4, 9, 9, 4}))
	ch = e.Encode(rl, true)
	if ch.Col != rl || ch.Distinct != 2 || ch.Min.I != 4 || ch.Max.I != 9 {
		t.Fatalf("RLE input: %+v", ch)
	}
}
