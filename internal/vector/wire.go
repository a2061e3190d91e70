package vector

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// Wire format for batches — the stand-in for the Arrow IPC payload the
// Read API streams to clients (§2.2.1) — and for the column chunks of a
// colfmt file, which are one encoded column each. EncodeBatch can either
// retain dictionary/RLE encodings on the wire (the §3.4 "future work"
// payload-efficiency optimization, ablation A4) or fully decode columns
// first (the baseline payload).
//
//	batch  = magic:u32le nFields:uvarint {nameLen:uvarint name type:u8}* n:uvarint column*
//	column = type:u8 enc:u8 len:uvarint nVals:uvarint values tail
//	values = zigzag varint* | f64le* | u8* | {len:uvarint bytes}*   (by type)
//	tail   = hasNulls:u8 [null:u8 × len]                            (Plain)
//	       | code:uvarint × len                                     (Dict)
//	       | nRuns:uvarint {count:uvarint valIdx:uvarint}*          (RLE)
//
// The encoder sizes its buffer exactly and appends; the decoder walks
// the input slice with an index. A payload reaches DecodeBatch with no
// checksum in front of it, so every count is bounded by the bytes left
// before anything is allocated and the column's shape is checked once:
// a column that decodes is safe to index (DESIGN.md "Column codec").

const wireMagic = uint32(0xB161AC3) // "BIGLAKe"

// ErrMalformed is wrapped by every decode failure: the bytes are not an
// encoded column or batch.
var ErrMalformed = errors.New("vector: malformed wire data")

// maxWireLen bounds a column's row count. An RLE column's length is not
// bounded by its bytes; row positions are int32 throughout the kernels.
const maxWireLen = math.MaxInt32

// EncodeBatch serializes the batch. If keepEncodings is false, all
// columns are decoded to PLAIN before serialization.
func EncodeBatch(b *Batch, keepEncodings bool) []byte {
	cols := b.Cols
	if !keepEncodings {
		cols = make([]*Column, len(b.Cols))
		for i, c := range b.Cols {
			cols[i] = c.Decode()
		}
	}
	size := 4 + uvarintLen(uint64(len(b.Schema.Fields))) + uvarintLen(uint64(b.N))
	for _, f := range b.Schema.Fields {
		size += uvarintLen(uint64(len(f.Name))) + len(f.Name) + 1
	}
	for _, c := range cols {
		size += columnWireSize(c)
	}
	buf := make([]byte, 0, size)
	buf = binary.LittleEndian.AppendUint32(buf, wireMagic)
	buf = binary.AppendUvarint(buf, uint64(len(b.Schema.Fields)))
	for _, f := range b.Schema.Fields {
		buf = appendString(buf, f.Name)
		buf = append(buf, byte(f.Type))
	}
	buf = binary.AppendUvarint(buf, uint64(b.N))
	for _, c := range cols {
		buf = appendColumn(buf, c)
	}
	return buf
}

// EncodeColumn serializes one column (with its physical encoding) to
// bytes; the columnar file format stores column chunks this way.
func EncodeColumn(c *Column) []byte {
	return appendColumn(make([]byte, 0, columnWireSize(c)), c)
}

func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// columnWireSize is the exact number of bytes appendColumn writes.
func columnWireSize(c *Column) int {
	size := 2 + uvarintLen(uint64(c.Len))
	switch c.Type {
	case Int64, Timestamp:
		size += uvarintLen(uint64(len(c.Ints)))
		for _, v := range c.Ints {
			size += uvarintLen(zigzag(v))
		}
	case Float64:
		size += uvarintLen(uint64(len(c.Floats))) + 8*len(c.Floats)
	case Bool:
		size += uvarintLen(uint64(len(c.Bools))) + len(c.Bools)
	case String, Bytes:
		size += uvarintLen(uint64(len(c.Strs)))
		for _, s := range c.Strs {
			size += uvarintLen(uint64(len(s))) + len(s)
		}
	}
	switch c.Enc {
	case Plain:
		size++
		if c.Nulls != nil {
			size += len(c.Nulls)
		}
	case Dict:
		for _, code := range c.Codes {
			size += uvarintLen(uint64(code))
		}
	case RLE:
		size += uvarintLen(uint64(len(c.Runs)))
		for _, r := range c.Runs {
			size += uvarintLen(uint64(r.Count)) + uvarintLen(uint64(r.ValIdx))
		}
	}
	return size
}

func appendColumn(buf []byte, c *Column) []byte {
	buf = append(buf, byte(c.Type), byte(c.Enc))
	buf = binary.AppendUvarint(buf, uint64(c.Len))

	// Value arrays (plain values or the dictionary).
	switch c.Type {
	case Int64, Timestamp:
		buf = binary.AppendUvarint(buf, uint64(len(c.Ints)))
		for _, v := range c.Ints {
			buf = binary.AppendUvarint(buf, zigzag(v))
		}
	case Float64:
		buf = binary.AppendUvarint(buf, uint64(len(c.Floats)))
		for _, v := range c.Floats {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
	case Bool:
		buf = binary.AppendUvarint(buf, uint64(len(c.Bools)))
		buf = appendBools(buf, c.Bools)
	case String, Bytes:
		buf = binary.AppendUvarint(buf, uint64(len(c.Strs)))
		for _, v := range c.Strs {
			buf = appendString(buf, v)
		}
	}

	switch c.Enc {
	case Plain:
		if c.Nulls == nil {
			buf = append(buf, 0)
		} else {
			buf = append(buf, 1)
			buf = appendBools(buf, c.Nulls)
		}
	case Dict:
		for _, code := range c.Codes {
			buf = binary.AppendUvarint(buf, uint64(code))
		}
	case RLE:
		buf = binary.AppendUvarint(buf, uint64(len(c.Runs)))
		for _, r := range c.Runs {
			buf = binary.AppendUvarint(buf, uint64(r.Count))
			buf = binary.AppendUvarint(buf, uint64(r.ValIdx))
		}
	}
	return buf
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendBools(buf []byte, vals []bool) []byte {
	for _, v := range vals {
		b := byte(0)
		if v {
			b = 1
		}
		buf = append(buf, b)
	}
	return buf
}

// wireReader is the decode cursor: the input and the next unread index.
type wireReader struct {
	b []byte
	i int
}

func (r *wireReader) left() int { return len(r.b) - r.i }

func (r *wireReader) fail(format string, args ...any) error {
	return fmt.Errorf("%w: at byte %d of %d: %s", ErrMalformed, r.i, len(r.b), fmt.Sprintf(format, args...))
}

func (r *wireReader) byte(what string) (byte, error) {
	if r.i >= len(r.b) {
		return 0, r.fail("truncated before %s", what)
	}
	v := r.b[r.i]
	r.i++
	return v, nil
}

// uvarintRest finishes the uvarint whose first byte first, at b[i-1],
// had its continuation bit set, returning the value and the index after
// it — or index 0 when the input ends inside it or it runs past ten
// bytes or 64 bits (what encoding/binary calls an overflow).
func uvarintRest(b []byte, i int, first byte) (uint64, int) {
	u := uint64(first & 0x7f)
	for s := uint(7); s <= 63 && i < len(b); s += 7 {
		c := b[i]
		i++
		u |= uint64(c&0x7f) << s
		if c < 0x80 {
			if s == 63 && c > 1 {
				return 0, 0
			}
			return u, i
		}
	}
	return 0, 0
}

func (r *wireReader) uvarint(what string) (uint64, error) {
	if r.i >= len(r.b) {
		return 0, r.fail("truncated before %s", what)
	}
	c := r.b[r.i]
	r.i++
	if c < 0x80 {
		return uint64(c), nil
	}
	u, next := uvarintRest(r.b, r.i, c)
	if next == 0 {
		return 0, r.fail("truncated or overlong %s", what)
	}
	r.i = next
	return u, nil
}

// count reads a count of items that each take at least itemBytes more
// bytes, and refuses one the remaining input cannot hold — before the
// caller allocates for it.
func (r *wireReader) count(what string, itemBytes int) (int, error) {
	v, err := r.uvarint(what)
	if err != nil {
		return 0, err
	}
	if v > uint64(r.left()/itemBytes) {
		return 0, r.fail("%s %d exceeds the %d bytes left", what, v, r.left())
	}
	return int(v), nil
}

// bools reads n one-byte flags.
func (r *wireReader) bools(n int, what string) ([]bool, error) {
	if n > r.left() {
		return nil, r.fail("%d %s exceed the %d bytes left", n, what, r.left())
	}
	out := make([]bool, n)
	for k, v := range r.b[r.i : r.i+n] {
		out[k] = v != 0
	}
	r.i += n
	return out, nil
}

// varints decodes len(dst) zigzag varints.
func (r *wireReader) varints(dst []int64) error {
	b, i := r.b, r.i
	for k := range dst {
		if i >= len(b) {
			r.i = i
			return r.fail("truncated before integer %d of %d", k, len(dst))
		}
		u := uint64(b[i])
		i++
		if u >= 0x80 {
			if u, i = uvarintRest(b, i, byte(u)); i == 0 {
				return r.fail("truncated or overlong integer %d of %d", k, len(dst))
			}
		}
		dst[k] = int64(u>>1) ^ -int64(u&1)
	}
	r.i = i
	return nil
}

// codes decodes len(dst) dictionary codes over nVals values: NullIdx,
// or a position below nVals.
func (r *wireReader) codes(dst []uint32, nVals int) error {
	b, i := r.b, r.i
	for k := range dst {
		if i >= len(b) {
			r.i = i
			return r.fail("truncated before dictionary code %d of %d", k, len(dst))
		}
		u := uint64(b[i])
		i++
		if u >= 0x80 {
			if u, i = uvarintRest(b, i, byte(u)); i == 0 {
				return r.fail("truncated or overlong dictionary code %d of %d", k, len(dst))
			}
		}
		if u >= uint64(nVals) && u != uint64(NullIdx) {
			return r.fail("dictionary code %d outside the %d values", u, nVals)
		}
		dst[k] = uint32(u)
	}
	r.i = i
	return nil
}

// strings reads n length-prefixed strings. A pass over the lengths
// bounds each by the bytes left and finds where the last one ends; the
// whole run — lengths included, a byte or two a string — is then copied
// once, and a second pass slices the strings out of the copy. The
// column's strings share that one buffer, and live and die together.
func (r *wireReader) strings(n int) ([]string, error) {
	b, i, start := r.b, r.i, r.i
	for k := 0; k < n; k++ {
		if i >= len(b) {
			r.i = i
			return nil, r.fail("truncated before string %d of %d", k, n)
		}
		l := uint64(b[i])
		i++
		if l >= 0x80 {
			if l, i = uvarintRest(b, i, byte(l)); i == 0 {
				return nil, r.fail("truncated or overlong length of string %d of %d", k, n)
			}
		}
		if l > uint64(len(b)-i) {
			r.i = i
			return nil, r.fail("string %d of %d: length %d exceeds the %d bytes left", k, n, l, len(b)-i)
		}
		i += int(l)
	}
	all := string(b[start:i])
	r.i = i
	out := make([]string, n)
	i = start
	for k := range out {
		l := uint64(b[i])
		i++
		if l >= 0x80 {
			l, i = uvarintRest(b, i, byte(l))
		}
		out[k] = all[i-start : i-start+int(l)]
		i += int(l)
	}
	return out, nil
}

// DecodeBatch parses a batch from wire bytes.
func DecodeBatch(data []byte) (*Batch, error) {
	r := &wireReader{b: data}
	if r.left() < 4 {
		return nil, r.fail("short batch header")
	}
	if magic := binary.LittleEndian.Uint32(data); magic != wireMagic {
		return nil, r.fail("bad batch magic %#x", magic)
	}
	r.i = 4
	// A field is at least a name length and a type.
	nFields, err := r.count("field count", 2)
	if err != nil {
		return nil, err
	}
	schema := Schema{Fields: make([]Field, nFields)}
	for i := range schema.Fields {
		l, err := r.count("field name length", 1)
		if err != nil {
			return nil, err
		}
		name := string(r.b[r.i : r.i+l])
		r.i += l
		tb, err := r.byte("field type")
		if err != nil {
			return nil, err
		}
		schema.Fields[i] = Field{Name: name, Type: Type(tb)}
	}
	n, err := r.uvarint("batch length")
	if err != nil {
		return nil, err
	}
	if n > maxWireLen {
		return nil, r.fail("batch length %d too large", n)
	}
	cols := make([]*Column, nFields)
	for i := range cols {
		c, err := decodeColumn(r)
		if err != nil {
			return nil, fmt.Errorf("vector: column %d: %w", i, err)
		}
		if c.Len != int(n) {
			return nil, fmt.Errorf("vector: column %d: %w", i, r.fail("length %d != batch %d", c.Len, n))
		}
		cols[i] = c
	}
	return &Batch{Schema: schema, Cols: cols, N: int(n)}, nil
}

// DecodeColumn parses a column serialized by EncodeColumn.
func DecodeColumn(data []byte) (*Column, error) {
	return decodeColumn(&wireReader{b: data})
}

func decodeColumn(r *wireReader) (*Column, error) {
	tb, err := r.byte("column type")
	if err != nil {
		return nil, err
	}
	eb, err := r.byte("column encoding")
	if err != nil {
		return nil, err
	}
	clen, err := r.uvarint("column length")
	if err != nil {
		return nil, err
	}
	if clen > maxWireLen {
		return nil, r.fail("column length %d too large", clen)
	}
	c := &Column{Type: Type(tb), Enc: Encoding(eb), Len: int(clen)}
	if c.Enc > RLE {
		return nil, r.fail("unknown encoding %d", eb)
	}

	var nVals int
	switch c.Type {
	case Int64, Timestamp:
		if nVals, err = r.count("value count", 1); err != nil {
			return nil, err
		}
		c.Ints = make([]int64, nVals)
		if err := r.varints(c.Ints); err != nil {
			return nil, err
		}
	case Float64:
		if nVals, err = r.count("value count", 8); err != nil {
			return nil, err
		}
		c.Floats = make([]float64, nVals)
		src := r.b[r.i : r.i+8*nVals]
		for k := range c.Floats {
			c.Floats[k] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*k:]))
		}
		r.i += 8 * nVals
	case Bool:
		if nVals, err = r.count("value count", 1); err != nil {
			return nil, err
		}
		if c.Bools, err = r.bools(nVals, "values"); err != nil {
			return nil, err
		}
	case String, Bytes:
		if nVals, err = r.count("value count", 1); err != nil {
			return nil, err
		}
		if c.Strs, err = r.strings(nVals); err != nil {
			return nil, err
		}
	default:
		return nil, r.fail("unknown column type %d", tb)
	}

	switch c.Enc {
	case Plain:
		if nVals != c.Len {
			return nil, r.fail("plain column of length %d holds %d values", c.Len, nVals)
		}
		hasNulls, err := r.byte("null flag")
		if err != nil {
			return nil, err
		}
		if hasNulls == 1 {
			if c.Nulls, err = r.bools(c.Len, "null flags"); err != nil {
				return nil, err
			}
		}
	case Dict:
		if c.Len > r.left() {
			return nil, r.fail("column length %d exceeds the %d bytes left", c.Len, r.left())
		}
		c.Codes = make([]uint32, c.Len)
		if err := r.codes(c.Codes, nVals); err != nil {
			return nil, err
		}
	case RLE:
		nRuns, err := r.count("run count", 2)
		if err != nil {
			return nil, err
		}
		c.Runs = make([]Run, nRuns)
		rows := uint64(0)
		for k := range c.Runs {
			cnt, err := r.uvarint("run length")
			if err != nil {
				return nil, err
			}
			if rows += cnt; cnt > maxWireLen || rows > clen {
				return nil, r.fail("runs cover more than the column's %d rows", clen)
			}
			idx, err := r.uvarint("run value index")
			if err != nil {
				return nil, err
			}
			if idx >= uint64(nVals) && idx != uint64(NullIdx) {
				return nil, r.fail("run value index %d outside the %d values", idx, nVals)
			}
			c.Runs[k] = Run{Count: uint32(cnt), ValIdx: uint32(idx)}
		}
		if rows != clen {
			return nil, r.fail("runs cover %d rows of the column's %d", rows, clen)
		}
	}
	return c, nil
}
