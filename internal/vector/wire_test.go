package vector

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"
)

// ---- the reference codec -------------------------------------------
//
// The byte-reader encoder/decoder wire.go had before it was rewritten
// over a slice cursor, kept verbatim as the format's definition: the
// parity tests below hold the rewrite to it byte for byte. It validates
// nothing, so it is only ever fed well-formed input.

func refEncodeBatch(b *Batch, keepEncodings bool) []byte {
	var buf bytes.Buffer
	refWriteU32(&buf, wireMagic)
	refWriteUvarint(&buf, uint64(len(b.Schema.Fields)))
	for _, f := range b.Schema.Fields {
		refWriteString(&buf, f.Name)
		buf.WriteByte(byte(f.Type))
	}
	refWriteUvarint(&buf, uint64(b.N))
	for _, c := range b.Cols {
		col := c
		if !keepEncodings {
			col = c.Decode()
		}
		refEncodeColumnTo(&buf, col)
	}
	return buf.Bytes()
}

func refEncodeColumn(c *Column) []byte {
	var buf bytes.Buffer
	refEncodeColumnTo(&buf, c)
	return buf.Bytes()
}

func refEncodeColumnTo(buf *bytes.Buffer, c *Column) {
	buf.WriteByte(byte(c.Type))
	buf.WriteByte(byte(c.Enc))
	refWriteUvarint(buf, uint64(c.Len))

	switch c.Type {
	case Int64, Timestamp:
		refWriteUvarint(buf, uint64(len(c.Ints)))
		for _, v := range c.Ints {
			refWriteVarint(buf, v)
		}
	case Float64:
		refWriteUvarint(buf, uint64(len(c.Floats)))
		for _, v := range c.Floats {
			var tmp [8]byte
			binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(v))
			buf.Write(tmp[:])
		}
	case Bool:
		refWriteUvarint(buf, uint64(len(c.Bools)))
		for _, v := range c.Bools {
			if v {
				buf.WriteByte(1)
			} else {
				buf.WriteByte(0)
			}
		}
	case String, Bytes:
		refWriteUvarint(buf, uint64(len(c.Strs)))
		for _, v := range c.Strs {
			refWriteString(buf, v)
		}
	}

	switch c.Enc {
	case Plain:
		if c.Nulls == nil {
			buf.WriteByte(0)
		} else {
			buf.WriteByte(1)
			for _, v := range c.Nulls {
				if v {
					buf.WriteByte(1)
				} else {
					buf.WriteByte(0)
				}
			}
		}
	case Dict:
		for _, code := range c.Codes {
			refWriteUvarint(buf, uint64(code))
		}
	case RLE:
		refWriteUvarint(buf, uint64(len(c.Runs)))
		for _, r := range c.Runs {
			refWriteUvarint(buf, uint64(r.Count))
			refWriteUvarint(buf, uint64(r.ValIdx))
		}
	}
}

func refDecodeBatch(data []byte) (*Batch, error) {
	r := bytes.NewReader(data)
	var magic uint32
	if err := binary.Read(r, binary.LittleEndian, &magic); err != nil {
		return nil, fmt.Errorf("vector: short batch header: %w", err)
	}
	if magic != wireMagic {
		return nil, fmt.Errorf("vector: bad batch magic %#x", magic)
	}
	nFields, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	schema := Schema{Fields: make([]Field, nFields)}
	for i := range schema.Fields {
		name, err := refReadString(r)
		if err != nil {
			return nil, err
		}
		tb, err := r.ReadByte()
		if err != nil {
			return nil, err
		}
		schema.Fields[i] = Field{Name: name, Type: Type(tb)}
	}
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	cols := make([]*Column, nFields)
	for i := range cols {
		c, err := refDecodeColumnFrom(r)
		if err != nil {
			return nil, fmt.Errorf("vector: column %d: %w", i, err)
		}
		if c.Len != int(n) {
			return nil, fmt.Errorf("vector: column %d length %d != batch %d", i, c.Len, n)
		}
		cols[i] = c
	}
	return &Batch{Schema: schema, Cols: cols, N: int(n)}, nil
}

func refDecodeColumn(data []byte) (*Column, error) {
	return refDecodeColumnFrom(bytes.NewReader(data))
}

func refDecodeColumnFrom(r *bytes.Reader) (*Column, error) {
	tb, err := r.ReadByte()
	if err != nil {
		return nil, err
	}
	eb, err := r.ReadByte()
	if err != nil {
		return nil, err
	}
	clen, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	c := &Column{Type: Type(tb), Enc: Encoding(eb), Len: int(clen)}

	nVals, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	switch c.Type {
	case Int64, Timestamp:
		c.Ints = make([]int64, nVals)
		for i := range c.Ints {
			v, err := binary.ReadVarint(r)
			if err != nil {
				return nil, err
			}
			c.Ints[i] = v
		}
	case Float64:
		c.Floats = make([]float64, nVals)
		var tmp [8]byte
		for i := range c.Floats {
			if _, err := io.ReadFull(r, tmp[:]); err != nil {
				return nil, err
			}
			c.Floats[i] = math.Float64frombits(binary.LittleEndian.Uint64(tmp[:]))
		}
	case Bool:
		c.Bools = make([]bool, nVals)
		for i := range c.Bools {
			b, err := r.ReadByte()
			if err != nil {
				return nil, err
			}
			c.Bools[i] = b != 0
		}
	case String, Bytes:
		c.Strs = make([]string, nVals)
		for i := range c.Strs {
			s, err := refReadString(r)
			if err != nil {
				return nil, err
			}
			c.Strs[i] = s
		}
	default:
		return nil, fmt.Errorf("unknown column type %d", tb)
	}

	switch c.Enc {
	case Plain:
		hasNulls, err := r.ReadByte()
		if err != nil {
			return nil, err
		}
		if hasNulls == 1 {
			c.Nulls = make([]bool, c.Len)
			for i := range c.Nulls {
				b, err := r.ReadByte()
				if err != nil {
					return nil, err
				}
				c.Nulls[i] = b != 0
			}
		}
	case Dict:
		c.Codes = make([]uint32, c.Len)
		for i := range c.Codes {
			v, err := binary.ReadUvarint(r)
			if err != nil {
				return nil, err
			}
			c.Codes[i] = uint32(v)
		}
	case RLE:
		nRuns, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, err
		}
		c.Runs = make([]Run, nRuns)
		for i := range c.Runs {
			cnt, err := binary.ReadUvarint(r)
			if err != nil {
				return nil, err
			}
			idx, err := binary.ReadUvarint(r)
			if err != nil {
				return nil, err
			}
			c.Runs[i] = Run{Count: uint32(cnt), ValIdx: uint32(idx)}
		}
	default:
		return nil, fmt.Errorf("unknown encoding %d", eb)
	}
	return c, nil
}

func refWriteU32(buf *bytes.Buffer, v uint32) {
	var tmp [4]byte
	binary.LittleEndian.PutUint32(tmp[:], v)
	buf.Write(tmp[:])
}

func refWriteUvarint(buf *bytes.Buffer, v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	buf.Write(tmp[:n])
}

func refWriteVarint(buf *bytes.Buffer, v int64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutVarint(tmp[:], v)
	buf.Write(tmp[:n])
}

func refWriteString(buf *bytes.Buffer, s string) {
	refWriteUvarint(buf, uint64(len(s)))
	buf.WriteString(s)
}

func refReadString(r *bytes.Reader) (string, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return "", err
	}
	if n > uint64(r.Len()) {
		return "", fmt.Errorf("vector: string length %d exceeds remaining %d", n, r.Len())
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return "", err
	}
	return string(b), nil
}

// ---- the corpus ------------------------------------------------------

var wireTypes = []Type{Int64, Timestamp, Float64, Bool, String, Bytes}

// wireNulls are the null patterns: none, some, all.
const (
	nullsNone = iota
	nullsSome
	nullsAll
)

// wireColumn builds a seeded column of n rows. Values repeat in runs
// over a small domain so that Dict and RLE have something to encode,
// with the edge values of each type among them.
func wireColumn(rng *rand.Rand, t Type, enc Encoding, nulls, n int) *Column {
	c := &Column{Type: t, Len: n, Enc: Plain}
	run, pick := 0, 0
	next := func(domain int) int {
		if run == 0 {
			run, pick = 1+rng.Intn(6), rng.Intn(domain)
		}
		run--
		return pick
	}
	switch t {
	case Int64, Timestamp:
		edge := []int64{0, 1, -1, 63, 64, -64, -65, 127, 128, 1 << 20, -(1 << 41), math.MaxInt64, math.MinInt64}
		for len(edge) < 40 {
			edge = append(edge, rng.Int63n(1<<uint(1+rng.Intn(62)))-rng.Int63n(1<<30))
		}
		c.Ints = make([]int64, n)
		for i := range c.Ints {
			c.Ints[i] = edge[next(len(edge))]
		}
	case Float64:
		edge := []float64{0, math.Copysign(0, -1), 1, -1.5, math.NaN(), math.Inf(1), math.Inf(-1),
			math.MaxFloat64, math.SmallestNonzeroFloat64, 1e21, 1e-7, 123456.789}
		for len(edge) < 40 {
			edge = append(edge, rng.NormFloat64()*math.Pow(10, float64(rng.Intn(40)-20)))
		}
		c.Floats = make([]float64, n)
		for i := range c.Floats {
			c.Floats[i] = edge[next(len(edge))]
		}
	case Bool:
		c.Bools = make([]bool, n)
		for i := range c.Bools {
			c.Bools[i] = next(2) == 1
		}
	case String, Bytes:
		edge := []string{"", "a", "abcd", "abcde", "héllo wörld", "日本語のテキスト", "\x00\xff\x80", strings.Repeat("k", 127), strings.Repeat("K", 128),
			strings.Repeat("multi-KB ", 700)}
		for len(edge) < 40 {
			b := make([]byte, rng.Intn(24))
			rng.Read(b)
			edge = append(edge, string(b))
		}
		c.Strs = make([]string, n)
		for i := range c.Strs {
			c.Strs[i] = edge[next(len(edge))]
		}
	}
	switch nulls {
	case nullsSome:
		c.Nulls = make([]bool, n)
		for i := range c.Nulls {
			c.Nulls[i] = next(3) == 0
		}
	case nullsAll:
		c.Nulls = make([]bool, n)
		for i := range c.Nulls {
			c.Nulls[i] = true
		}
	}
	switch enc {
	case Dict:
		return DictEncode(c)
	case RLE:
		return RLEncode(c)
	}
	return c
}

type wireCase struct {
	name string
	col  *Column
}

// wireCorpus is every type × encoding × null pattern at each length.
func wireCorpus(seed int64, lengths ...int) []wireCase {
	rng := rand.New(rand.NewSource(seed))
	var out []wireCase
	for _, t := range wireTypes {
		for _, enc := range []Encoding{Plain, Dict, RLE} {
			for nulls := nullsNone; nulls <= nullsAll; nulls++ {
				for _, n := range lengths {
					out = append(out, wireCase{
						name: fmt.Sprintf("%v/%v/nulls%d/n%d", t, enc, nulls, n),
						col:  wireColumn(rng, t, enc, nulls, n),
					})
				}
			}
		}
	}
	return out
}

// sameColumn is reflect.DeepEqual — nil and empty slices told apart —
// but for floats, compared by bits: NaN equals itself, ±0 differ.
func sameColumn(a, b *Column) bool {
	x, y := *a, *b
	x.Floats, y.Floats = nil, nil
	return reflect.DeepEqual(x, y) && (a.Floats == nil) == (b.Floats == nil) &&
		slices.EqualFunc(a.Floats, b.Floats, func(p, q float64) bool { return math.Float64bits(p) == math.Float64bits(q) })
}

func sameBatch(a, b *Batch) bool {
	if a.N != b.N || !a.Schema.Equal(b.Schema) || len(a.Cols) != len(b.Cols) {
		return false
	}
	for i := range a.Cols {
		if !sameColumn(a.Cols[i], b.Cols[i]) {
			return false
		}
	}
	return true
}

var wireLengths = []int{0, 1, 8191, 8192, 8193, 40_000}

// ---- parity ----------------------------------------------------------

// TestWireColumnParity: the cursor codec and the reference agree byte
// for byte on encode and value for value on decode, so files at rest
// and payloads in flight did not change.
func TestWireColumnParity(t *testing.T) {
	for _, tc := range wireCorpus(24, wireLengths...) {
		want := refEncodeColumn(tc.col)
		got := EncodeColumn(tc.col)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: encode differs from the reference (%d vs %d bytes)", tc.name, len(got), len(want))
		}
		if cap(got) != len(got) {
			t.Errorf("%s: encode buffer cap %d != len %d: the size pass is not exact", tc.name, cap(got), len(got))
		}
		ref, err := refDecodeColumn(want)
		if err != nil {
			t.Fatalf("%s: reference decode: %v", tc.name, err)
		}
		dec, err := DecodeColumn(want)
		if err != nil {
			t.Fatalf("%s: decode: %v", tc.name, err)
		}
		if !sameColumn(dec, ref) {
			t.Fatalf("%s: decode differs from the reference", tc.name)
		}
		if !bytes.Equal(EncodeColumn(dec), want) {
			t.Fatalf("%s: round trip changed the column", tc.name)
		}
	}
}

// TestWireBatchParity: the same for whole batches, with the encodings
// kept on the wire and decoded to PLAIN first.
func TestWireBatchParity(t *testing.T) {
	for _, n := range []int{0, 1, 8192, 40_000} { // TestWireColumnParity walks the lengths around 8192

		byName := map[int][]wireCase{}
		for _, tc := range wireCorpus(int64(n)+7, n) {
			nulls := int(tc.name[strings.Index(tc.name, "nulls")+5] - '0')
			byName[nulls] = append(byName[nulls], tc)
		}
		for nulls, cases := range byName {
			fields := make([]Field, len(cases))
			cols := make([]*Column, len(cases))
			for i, tc := range cases {
				fields[i] = Field{Name: strings.Repeat("c", i%3) + tc.name, Type: tc.col.Type}
				cols[i] = tc.col
			}
			b := MustBatch(Schema{Fields: fields}, cols)
			for _, keep := range []bool{true, false} {
				want := refEncodeBatch(b, keep)
				got := EncodeBatch(b, keep)
				if !bytes.Equal(got, want) {
					t.Fatalf("n=%d nulls=%d keep=%v: encode differs from the reference", n, nulls, keep)
				}
				if cap(got) != len(got) {
					t.Errorf("n=%d nulls=%d keep=%v: encode buffer cap %d != len %d", n, nulls, keep, cap(got), len(got))
				}
				ref, err := refDecodeBatch(want)
				if err != nil {
					t.Fatal(err)
				}
				dec, err := DecodeBatch(want)
				if err != nil {
					t.Fatalf("n=%d nulls=%d keep=%v: %v", n, nulls, keep, err)
				}
				if !sameBatch(dec, ref) {
					t.Fatalf("n=%d nulls=%d keep=%v: decode differs from the reference", n, nulls, keep)
				}
			}
		}
	}
	// No fields at all: a row count and nothing else.
	empty := &Batch{N: 7}
	if !bytes.Equal(EncodeBatch(empty, false), refEncodeBatch(empty, false)) {
		t.Fatal("field-less batch encodes differently")
	}
	if b, err := DecodeBatch(EncodeBatch(empty, false)); err != nil || b.N != 7 || len(b.Cols) != 0 {
		t.Fatalf("field-less batch = %+v, %v", b, err)
	}
}

// ---- truncation and hostile input --------------------------------------

// allocatedBy is the bytes f allocates. The counter is process-wide
// (tests in this package do not run in parallel, but the runtime's own
// goroutines allocate now and then), so a reading over limit is taken
// again and the smallest of three kept.
func allocatedBy(limit uint64, f func()) uint64 {
	least := ^uint64(0)
	for try := 0; try < 3 && least > limit; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// wireCuts is where a b-byte encoding is truncated: every offset of a
// short one; of a long one every offset near both ends and some 64 odd
// strides through the middle (a 300-row column of multi-KB strings is
// 100 KB; every offset of each would be 10^9 bytes copied).
func wireCuts(b int) []int {
	var cuts []int
	for cut := 0; cut < b; cut++ {
		cuts = append(cuts, cut)
		if b > 1024 && cut >= 300 && cut < b-300 {
			cut = min(cut+(b/64|1), b-301)
		}
	}
	return cuts
}

// TestWireTruncatedPrefixes: every proper prefix of an encoded column is
// refused with ErrMalformed, having allocated no more than a small
// multiple of the bytes it was handed — a count read from the payload is
// never trusted for an allocation.
func TestWireTruncatedPrefixes(t *testing.T) {
	for _, tc := range wireCorpus(5, 0, 1, 37, 300) {
		data := EncodeColumn(tc.col)
		for _, cut := range wireCuts(len(data)) {
			var err error
			limit, got := uint64(32*cut+2048), uint64(0)
			if tc.col.Len <= 1 || cut%16 == 0 { // reading the counter costs more than the decode
				got = allocatedBy(limit, func() { _, err = DecodeColumn(data[:cut]) })
			} else {
				_, err = DecodeColumn(data[:cut])
			}
			if !errors.Is(err, ErrMalformed) {
				t.Fatalf("%s: %d of %d bytes decoded: err = %v", tc.name, cut, len(data), err)
			}
			if got > limit {
				t.Fatalf("%s: %d of %d bytes allocated %d bytes (limit %d)", tc.name, cut, len(data), got, limit)
			}
		}
	}
	schema := NewSchema(Field{"i", Int64}, Field{"s", String}, Field{"f", Float64})
	rng := rand.New(rand.NewSource(9))
	b := MustBatch(schema, []*Column{wireColumn(rng, Int64, Dict, nullsSome, 500),
		wireColumn(rng, String, Plain, nullsSome, 500), wireColumn(rng, Float64, RLE, nullsNone, 500)})
	data := EncodeBatch(b, true)
	for _, cut := range wireCuts(len(data)) {
		if _, err := DecodeBatch(data[:cut]); err == nil {
			t.Fatalf("batch: %d of %d bytes decoded", cut, len(data))
		}
	}
}

// uv is the uvarint of v.
func uv(v uint64) []byte { return binary.AppendUvarint(nil, v) }

func cat(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

// wireHostile are well-framed columns whose counts lie. The first two
// crashed the byte-reader decoder: a value count handed straight to
// make ("makeslice: len out of range"), and a dictionary code past the
// dictionary that decoded and then panicked in Column.Value.
var wireHostile = []struct {
	name string
	data []byte
}{
	{"value count 1<<50", cat([]byte{byte(Int64), byte(Plain)}, uv(1), uv(1<<50))},
	{"dict code past the dictionary", cat([]byte{byte(String), byte(Dict)}, uv(1), uv(1), uv(1), []byte("x"), uv(9))},
	{"value count 1<<33", cat([]byte{byte(Int64), byte(Plain)}, uv(1), uv(1<<33), []byte{2, 0})},
	{"float count", cat([]byte{byte(Float64), byte(Plain)}, uv(3), uv(3), make([]byte, 23))},
	{"string count", cat([]byte{byte(String), byte(Plain)}, uv(1<<40), uv(1<<40), []byte{0})},
	{"string length", cat([]byte{byte(String), byte(Plain)}, uv(1), uv(1), uv(1<<45), []byte("abc"), []byte{0})},
	{"string length overflows int", cat([]byte{byte(Bytes), byte(Plain)}, uv(1), uv(1), uv(math.MaxUint64), []byte{0})},
	{"dict length", cat([]byte{byte(Int64), byte(Dict)}, uv(1<<30), uv(1), uv(2), uv(0))},
	{"column length", cat([]byte{byte(Int64), byte(RLE)}, uv(1<<40), uv(0), uv(0))},
	{"null mask length", cat([]byte{byte(Bool), byte(Plain)}, uv(2), uv(2), []byte{1, 0, 1, 1})},
	{"plain count below length", cat([]byte{byte(Int64), byte(Plain)}, uv(3), uv(1), uv(2), []byte{0})},
	{"plain count above length", cat([]byte{byte(Int64), byte(Plain)}, uv(1), uv(2), uv(2), uv(4), []byte{0})},
	{"run count", cat([]byte{byte(Int64), byte(RLE)}, uv(4), uv(1), uv(2), uv(1<<50))},
	{"runs short of length", cat([]byte{byte(Int64), byte(RLE)}, uv(4), uv(1), uv(2), uv(1), uv(3), uv(0))},
	{"runs past length", cat([]byte{byte(Int64), byte(RLE)}, uv(4), uv(1), uv(2), uv(1), uv(5), uv(0))},
	{"run length wraps uint32", cat([]byte{byte(Int64), byte(RLE)}, uv(4), uv(1), uv(2), uv(1), uv(1<<32+4), uv(0))},
	{"run value index", cat([]byte{byte(Int64), byte(RLE)}, uv(4), uv(1), uv(2), uv(1), uv(4), uv(1))},
	{"dict code wraps uint32", cat([]byte{byte(Int64), byte(Dict)}, uv(1), uv(1), uv(2), uv(1<<32))},
	{"overlong varint", cat([]byte{byte(Int64), byte(Plain)}, uv(1), uv(1), bytes.Repeat([]byte{0x80}, 10), []byte{2, 0})},
	{"unknown type", cat([]byte{9, byte(Plain)}, uv(0), uv(0), []byte{0})},
	{"unknown encoding", cat([]byte{byte(Int64), 3}, uv(0), uv(0), []byte{0})},
}

// TestWireHostileLengths: a count the payload cannot back is an error
// before it is an allocation, and a column that decodes is safe to
// index. Both crashers panic at the parent commit.
func TestWireHostileLengths(t *testing.T) {
	for _, h := range wireHostile {
		var c *Column
		var err error
		got := allocatedBy(4096, func() { c, err = DecodeColumn(h.data) })
		if !errors.Is(err, ErrMalformed) || c != nil {
			t.Errorf("%s: DecodeColumn = %+v, %v; want ErrMalformed", h.name, c, err)
		}
		if got > 4096 {
			t.Errorf("%s: allocated %d bytes for a %d-byte input", h.name, got, len(h.data))
		}
		// The same column inside a batch — what a Read API client decodes,
		// with no checksum in front of it.
		batch := cat(binary.LittleEndian.AppendUint32(nil, wireMagic), uv(1), uv(1), []byte("c"), []byte{h.data[0]}, uv(1), h.data)
		if b, err := DecodeBatch(batch); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: DecodeBatch = %+v, %v; want ErrMalformed", h.name, b, err)
		}
	}
	for name, data := range map[string][]byte{
		"field count":       cat(binary.LittleEndian.AppendUint32(nil, wireMagic), uv(1<<40), uv(0)),
		"field name length": cat(binary.LittleEndian.AppendUint32(nil, wireMagic), uv(1), uv(1<<40), []byte("ab")),
		"batch length":      cat(binary.LittleEndian.AppendUint32(nil, wireMagic), uv(0), uv(1<<40)),
		"column length != batch length": cat(binary.LittleEndian.AppendUint32(nil, wireMagic), uv(1), uv(1), []byte("c"),
			[]byte{byte(Int64)}, uv(2), EncodeColumn(NewInt64Column([]int64{1}))),
	} {
		var err error
		got := allocatedBy(4096, func() { _, err = DecodeBatch(data) })
		if !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: DecodeBatch err = %v; want ErrMalformed", name, err)
		}
		if got > 4096 {
			t.Errorf("%s: allocated %d bytes for a %d-byte input", name, got, len(data))
		}
	}
}

// ---- fuzz ------------------------------------------------------------

// fuzzSeeds are small corpus columns, the hostile columns and a few
// truncations.
func fuzzSeeds() [][]byte {
	var out [][]byte
	for _, tc := range wireCorpus(3, 0, 1, 9) {
		data := EncodeColumn(tc.col)
		out = append(out, data, data[:len(data)/2])
	}
	for _, h := range wireHostile {
		out = append(out, h.data)
	}
	return out
}

// FuzzDecodeColumn: any bytes decode to a column or an error, never a
// panic, and a column that decodes can be walked, re-encoded and decoded
// back to itself.
func FuzzDecodeColumn(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := DecodeColumn(data)
		if err != nil {
			if c != nil || !errors.Is(err, ErrMalformed) {
				t.Fatalf("DecodeColumn = %+v, %v", c, err)
			}
			return
		}
		checkDecoded(t, c)
	})
}

func checkDecoded(t *testing.T, c *Column) {
	t.Helper()
	if c.Len <= 1<<16 { // an RLE column's length is not bounded by its bytes
		for i := 0; i < c.Len; i++ {
			if c.Value(i).IsNull() != c.IsNullAt(i) {
				t.Fatalf("row %d: Value and IsNullAt disagree", i)
			}
		}
	}
	again, err := DecodeColumn(EncodeColumn(c))
	if err != nil {
		t.Fatalf("re-encoded column does not decode: %v", err)
	}
	if !sameColumn(again, c) {
		t.Fatalf("re-encoded column decodes differently:\n%+v\n%+v", c, again)
	}
}

// FuzzDecodeBatch is FuzzDecodeColumn for payloads.
func FuzzDecodeBatch(f *testing.F) {
	head := cat(binary.LittleEndian.AppendUint32(nil, wireMagic), uv(1), uv(1), []byte("c"))
	for _, s := range fuzzSeeds() {
		if len(s) > 2 {
			_, w := binary.Uvarint(s[2:])
			f.Add(cat(head, s[:1], s[2:2+max(w, 0)], s)) // the column's type and length as the batch's
		}
		f.Add(cat(head, s))
	}
	rng := rand.New(rand.NewSource(4))
	b := MustBatch(NewSchema(Field{"a", Int64}, Field{"b", String}),
		[]*Column{wireColumn(rng, Int64, RLE, nullsSome, 20), wireColumn(rng, String, Dict, nullsSome, 20)})
	f.Add(EncodeBatch(b, true))
	f.Add(EncodeBatch(b, false))
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := DecodeBatch(data)
		if err != nil {
			if b != nil || !errors.Is(err, ErrMalformed) {
				t.Fatalf("DecodeBatch = %+v, %v", b, err)
			}
			return
		}
		if len(b.Cols) != len(b.Schema.Fields) {
			t.Fatalf("%d columns for %d fields", len(b.Cols), len(b.Schema.Fields))
		}
		for _, c := range b.Cols {
			if c.Len != b.N {
				t.Fatalf("column length %d in a batch of %d", c.Len, b.N)
			}
			checkDecoded(t, c)
		}
		again, err := DecodeBatch(EncodeBatch(b, true))
		if err != nil || !sameBatch(again, b) {
			t.Fatalf("re-encoded batch decodes differently: %v", err)
		}
	})
}

// ---- string lifetime ---------------------------------------------------

// span is the address range of the strings' bytes.
func span(strs []string) (lo, hi uintptr) {
	lo = ^uintptr(0)
	for _, s := range strs {
		if len(s) == 0 {
			continue
		}
		p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
		lo, hi = min(lo, p), max(hi, p+uintptr(len(s)))
	}
	return lo, hi
}

// TestDecodedStringsShareOneBuffer: a decoded column's strings are cut
// from one buffer — the copy of their run in the input, a length byte
// before each — and DetachColumn — the
// copy-out of a result that outlives its query — takes the strings a
// query gathered out of such a column with it, so a held result never
// pins a scan-cache entry's buffer.
func TestDecodedStringsShareOneBuffer(t *testing.T) {
	vals := make([]string, 1000)
	total := 0
	for i := range vals {
		vals[i] = fmt.Sprintf("user-%04d@example.com", i)
		total += len(vals[i])
	}
	c, err := DecodeColumn(EncodeColumn(NewStringColumn(vals)))
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := span(c.Strs)
	if int(hi-lo) != total+len(vals)-1 {
		t.Fatalf("decoded strings span %d bytes, not the %d of their bytes and the lengths between: not one buffer", hi-lo, total+len(vals)-1)
	}

	// A query's gather of three rows, in its arena.
	got := &Column{Type: String, Len: 3, Enc: Plain, Strs: []string{c.Strs[5], c.Strs[500], c.Strs[999]}, Pooled: true}
	out := DetachColumn(got)
	if out.Pooled || !slices.Equal(out.Strs, got.Strs) {
		t.Fatalf("detached = %+v", out)
	}
	for i, s := range out.Strs {
		if p := uintptr(unsafe.Pointer(unsafe.StringData(s))); p >= lo && p < hi {
			t.Fatalf("detached string %d still points into the decoded column's buffer", i)
		}
	}
	if dlo, dhi := span(out.Strs); int(dhi-dlo) != len(got.Strs[0])*3 {
		t.Fatalf("detached strings span %d bytes: not one buffer of their own", dhi-dlo)
	}
	// A column that is not pooled is the owner's to share, as before.
	if DetachColumn(c) != c {
		t.Fatal("a heap-owned column should detach to itself")
	}
}

// ---- budgets and benchmarks ----------------------------------------------

// TestGCLeanDecodeColumnAllocs: decoding costs allocations per column,
// not per value.
func TestGCLeanDecodeColumnAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct {
		name   string
		col    *Column
		budget float64
	}{
		{"plain ints", wireColumn(rng, Int64, Plain, nullsNone, 8192), 2},        // column + values
		{"plain strings", wireColumn(rng, String, Plain, nullsSome, 8192), 4},    // + buffer + nulls
		{"dict strings", wireColumn(rng, String, Dict, nullsSome, 8192), 4},      // + buffer + codes
		{"rle floats", wireColumn(rng, Float64, RLE, nullsSome, 8192), 3},        // + runs
		{"plain bools, nulls", wireColumn(rng, Bool, Plain, nullsSome, 8192), 3}, // + nulls
	} {
		data := EncodeColumn(tc.col)
		if got := testing.AllocsPerRun(20, func() {
			if _, err := DecodeColumn(data); err != nil {
				t.Fatal(err)
			}
		}); got > tc.budget {
			t.Errorf("%s: DecodeColumn allocates %.0f times, budget %.0f", tc.name, got, tc.budget)
		}
		if got := testing.AllocsPerRun(20, func() { EncodeColumn(tc.col) }); got > 1 {
			t.Errorf("%s: EncodeColumn allocates %.0f times, budget 1", tc.name, got)
		}
	}
}

// benchColumns are the three shapes bench.wide is made of.
func benchColumns() []wireCase {
	const n = 8192
	ints := make([]int64, n)
	emails := make([]string, n)
	tags := make([]string, n)
	rng := rand.New(rand.NewSource(2))
	for i := range ints {
		ints[i] = rng.Int63n(1_000_000)
		emails[i] = fmt.Sprintf("user%04d@example.com", rng.Intn(4096))
		tags[i] = []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"}[rng.Intn(8)]
	}
	return []wireCase{{"ints", NewInt64Column(ints)}, {"dict_strings", DictEncode(NewStringColumn(tags))},
		{"plain_strings", NewStringColumn(emails)}}
}

var benchSink any

func BenchmarkDecodeColumn(b *testing.B) {
	for _, tc := range benchColumns() {
		data := EncodeColumn(tc.col)
		b.Run(tc.name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c, err := DecodeColumn(data)
				if err != nil {
					b.Fatal(err)
				}
				benchSink = c
			}
		})
	}
}

func BenchmarkEncodeColumn(b *testing.B) {
	for _, tc := range benchColumns() {
		b.Run(tc.name, func(b *testing.B) {
			b.SetBytes(int64(len(EncodeColumn(tc.col))))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink = EncodeColumn(tc.col)
			}
		})
	}
}
