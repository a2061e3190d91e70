// Package colfmt implements the open self-describing columnar file
// format BigLake tables store data in — the repository's Apache
// Parquet stand-in (§2.1, §3.3, §3.4). Files consist of row groups of
// independently-encoded column chunks (PLAIN / DICT / RLE), followed
// by a footer holding the schema, row-group index, and per-column
// statistics (min/max, null count, distinct count).
//
// Each chunk is written by one typed pass over its rows
// (vector.ChunkEncoder). It is a dictionary when its distinct values
// are at most half its rows, and runs instead when its runs are at most
// a third of its rows; otherwise it is Plain. Values are told apart by
// the hash kernel's key identity: integers exactly, floats by their
// bits with −0 and +0 distinct and every NaN one value, strings
// byte-wise. A chunk's Distinct stat is that count; a batch that fills
// exactly one row group keeps its columns' encodings, and its Dict
// columns report their dictionary's length.
//
// Two readers are provided on purpose:
//
//   - RowReader models Dremel's original row-oriented Parquet reader:
//     it materializes every row as boxed values and re-columnarizes at
//     the end. This is the §3.4 baseline.
//   - VectorizedReader emits encoded vector.Column chunks directly,
//     skipping whole row groups using footer statistics. This is the
//     vectorized reader whose introduction doubled ReadRows throughput
//     and improved server CPU efficiency by an order of magnitude.
package colfmt

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"unicode/utf8"

	"biglake/internal/integrity"
	"biglake/internal/vector"
)

// Magic trails the file, like Parquet's "PAR1".
const Magic = "BLK1"

// trailerLen is the fixed trailer after the footer JSON: 4 bytes of
// footer CRC-32C, 4 bytes of footer length, then the magic.
const trailerLen = 12

// ColumnStats summarizes one column within a row group or file.
type ColumnStats struct {
	Min      StatValue `json:"min"`
	Max      StatValue `json:"max"`
	Nulls    int64     `json:"nulls"`
	Distinct int64     `json:"distinct"`
}

// Merge returns the statistics of s's rows and o's together: the wider
// range, its bounds compared as StatsCanSatisfy compares them
// (integers exactly, so a merged bound never excludes a row the compare
// kernel selects), the summed nulls and an upper bound on distinct
// values.
func (s ColumnStats) Merge(o ColumnStats) ColumnStats {
	if min := o.Min.ToValue(); !min.IsNull() && (s.Min.Type == vector.Invalid || compareStat(min, s.Min.ToValue()) < 0) {
		s.Min = o.Min
	}
	if max := o.Max.ToValue(); !max.IsNull() && (s.Max.Type == vector.Invalid || compareStat(max, s.Max.ToValue()) > 0) {
		s.Max = o.Max
	}
	s.Nulls += o.Nulls
	s.Distinct += o.Distinct
	return s
}

// StatValue is a JSON-serializable vector.Value. JSON has no number for
// ±Inf, so an infinite bound is held as Inf, its sign, with F zero; a
// StatValue without one encodes as it always has.
type StatValue struct {
	Type vector.Type `json:"type"`
	I    int64       `json:"i,omitempty"`
	F    float64     `json:"f,omitempty"`
	S    string      `json:"s,omitempty"`
	B    bool        `json:"b,omitempty"`
	Inf  int8        `json:"inf,omitempty"` // +1 or −1: the bound is ±Inf
}

// ToValue converts back to a vector.Value.
func (sv StatValue) ToValue() vector.Value {
	f := sv.F
	if sv.Inf != 0 {
		f = math.Inf(int(sv.Inf))
	}
	return vector.Value{Type: sv.Type, I: sv.I, F: f, S: sv.S, B: sv.B}
}

// FromValue converts a vector.Value into its stat form.
func FromValue(v vector.Value) StatValue {
	sv := StatValue{Type: v.Type, I: v.I, F: v.F, S: v.S, B: v.B}
	if math.IsInf(v.F, 0) {
		sv.F, sv.Inf = 0, 1
		if v.F < 0 {
			sv.Inf = -1
		}
	}
	return sv
}

// ChunkMeta locates one column chunk within the file.
type ChunkMeta struct {
	Column string `json:"column"`
	Offset int64  `json:"offset"`
	Length int64  `json:"length"`
	// CRC is the CRC-32C of the encoded chunk bytes, verified on every
	// decode so a flipped bit in the body becomes a typed error, never
	// a silent mis-decode.
	CRC   uint32      `json:"crc"`
	Stats ColumnStats `json:"stats"`
}

// RowGroupMeta describes one row group.
type RowGroupMeta struct {
	Rows   int64       `json:"rows"`
	Chunks []ChunkMeta `json:"chunks"`
}

// FieldMeta is one schema field in the footer.
type FieldMeta struct {
	Name string      `json:"name"`
	Type vector.Type `json:"type"`
}

// Footer is the file's self-describing metadata.
type Footer struct {
	Fields    []FieldMeta    `json:"fields"`
	RowGroups []RowGroupMeta `json:"row_groups"`
	Rows      int64          `json:"rows"`
}

// Schema reconstructs the vector schema from the footer.
func (f *Footer) Schema() vector.Schema {
	fields := make([]vector.Field, len(f.Fields))
	for i, fm := range f.Fields {
		fields[i] = vector.Field{Name: fm.Name, Type: fm.Type}
	}
	return vector.Schema{Fields: fields}
}

// fieldIndex returns the position of the named field, or -1.
func (f *Footer) fieldIndex(name string) int {
	for i, fm := range f.Fields {
		if fm.Name == name {
			return i
		}
	}
	return -1
}

// ColumnStatsFor merges per-row-group stats for one column across the
// whole file (ColumnStats.Merge); ok is false if the column is unknown.
func (f *Footer) ColumnStatsFor(name string) (ColumnStats, bool) {
	var out ColumnStats
	found := false
	for _, rg := range f.RowGroups {
		for _, ch := range rg.Chunks {
			if ch.Column != name {
				continue
			}
			if !found {
				out = ch.Stats
				found = true
				continue
			}
			out = out.Merge(ch.Stats)
		}
	}
	if !found {
		for _, fm := range f.Fields {
			if fm.Name == name {
				return ColumnStats{}, true
			}
		}
	}
	return out, found
}

// Stats returns the file-level statistics of every column — what a
// metadata entry for the file records.
func (f *Footer) Stats() map[string]ColumnStats {
	stats := make(map[string]ColumnStats, len(f.Fields))
	for _, fm := range f.Fields {
		if st, ok := f.ColumnStatsFor(fm.Name); ok {
			stats[fm.Name] = st
		}
	}
	return stats
}

// WriterOptions tunes file layout.
type WriterOptions struct {
	// RowGroupRows caps rows per row group (default 8192).
	RowGroupRows int
	// DisableEncodings forces PLAIN chunks (for baselines/ablations).
	DisableEncodings bool
}

// Writer accumulates batches and serializes a columnar file.
type Writer struct {
	schema vector.Schema
	opts   WriterOptions
	pend   *vector.Batch
	body   []byte
	footer Footer
	enc    vector.ChunkEncoder
}

// NewWriter returns a writer for schema.
func NewWriter(schema vector.Schema, opts WriterOptions) *Writer {
	if opts.RowGroupRows <= 0 {
		opts.RowGroupRows = 8192
	}
	w := &Writer{schema: schema, opts: opts}
	for _, f := range schema.Fields {
		w.footer.Fields = append(w.footer.Fields, FieldMeta{Name: f.Name, Type: f.Type})
	}
	return w
}

// WriteBatch appends rows; full row groups are flushed to the body. A
// batch that fills exactly one row group is written with its columns'
// encodings as they are. One that spans more is cut into row groups as
// windows of it, made Plain first (plainRows), which copies a column
// only to decode it or to zero a NULL row's value.
func (w *Writer) WriteBatch(b *vector.Batch) error {
	if !b.Schema.Equal(w.schema) {
		return fmt.Errorf("colfmt: batch schema %v != file schema %v", b.Schema, w.schema)
	}
	p, err := vector.Concat([]*vector.Batch{w.pend, b})
	if err != nil {
		return err
	}
	n := w.opts.RowGroupRows
	w.pend = p
	if p == nil || p.N < n {
		return nil
	}
	if p.N > n {
		p = plainRows(p)
	}
	lo := 0
	for ; p.N-lo >= n; lo += n {
		if err := w.flushGroup(window(p, lo, lo+n)); err != nil {
			return err
		}
	}
	w.pend = nil
	if lo < p.N {
		w.pend = window(p, lo, p.N)
	}
	return nil
}

// plainRows is b with every column Plain and every NULL row holding its
// type's zero value, as a gather copies them; a column that is so
// already is kept, not copied.
func plainRows(b *vector.Batch) *vector.Batch {
	cols := make([]*vector.Column, len(b.Cols))
	for i, c := range b.Cols {
		if c = c.Decode(); c.Nulls != nil {
			z := *c
			switch c.Type {
			case vector.Int64, vector.Timestamp:
				z.Ints = zeroNulls(c.Ints, c.Nulls, func(v int64) bool { return v == 0 })
			case vector.Float64:
				z.Floats = zeroNulls(c.Floats, c.Nulls, func(v float64) bool { return math.Float64bits(v) == 0 })
			case vector.Bool:
				z.Bools = zeroNulls(c.Bools, c.Nulls, func(v bool) bool { return !v })
			case vector.String, vector.Bytes:
				z.Strs = zeroNulls(c.Strs, c.Nulls, func(v string) bool { return v == "" })
			}
			c = &z
		}
		cols[i] = c
	}
	return &vector.Batch{Schema: b.Schema, Cols: cols, N: b.N}
}

// zeroNulls is vals with the zero value at each NULL row, copied only
// if some NULL row holds another.
func zeroNulls[T any](vals []T, nulls []bool, isZero func(T) bool) []T {
	copied := false
	for i, null := range nulls {
		if null && !isZero(vals[i]) {
			if !copied {
				vals, copied = slices.Clone(vals), true
			}
			var zero T
			vals[i] = zero
		}
	}
	return vals
}

// window is rows [lo, hi) of a plainRows batch as a row group, each
// column without a NULL array where its rows hold no NULL; the whole
// batch is returned as it is.
func window(b *vector.Batch, lo, hi int) *vector.Batch {
	out := vector.SliceBatch(b, lo, hi)
	if out == b {
		return b
	}
	for _, c := range out.Cols {
		if c.Nulls != nil && !slices.Contains(c.Nulls, true) {
			c.Nulls = nil
		}
	}
	return out
}

func (w *Writer) flushGroup(b *vector.Batch) error {
	rg := RowGroupMeta{Rows: int64(b.N)}
	for i, c := range b.Cols {
		ch := w.enc.Encode(c, !w.opts.DisableEncodings)
		chunk := vector.EncodeColumn(ch.Col)
		rg.Chunks = append(rg.Chunks, ChunkMeta{
			Column: w.schema.Fields[i].Name,
			Offset: int64(len(w.body)),
			Length: int64(len(chunk)),
			CRC:    integrity.Checksum(chunk),
			Stats: ColumnStats{
				Min:      FromValue(ch.Min),
				Max:      FromValue(ch.Max),
				Nulls:    ch.Nulls,
				Distinct: int64(ch.Distinct),
			},
		})
		w.body = append(w.body, chunk...)
	}
	w.footer.RowGroups = append(w.footer.RowGroups, rg)
	w.footer.Rows += int64(b.N)
	return nil
}

// Finish flushes pending rows and returns the complete file bytes and
// the footer they end with, as ReadFooter would parse it from them.
// The writer is done with once it returns.
func (w *Writer) Finish() ([]byte, *Footer, error) {
	if w.pend != nil && w.pend.N > 0 {
		if err := w.flushGroup(w.pend); err != nil {
			return nil, nil, err
		}
		w.pend = nil
	}
	footerJSON, err := json.Marshal(&w.footer)
	if err != nil {
		return nil, nil, err
	}
	out := append(w.body, footerJSON...)
	out = binary.LittleEndian.AppendUint32(out, integrity.Checksum(footerJSON))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(footerJSON)))
	out = append(out, Magic...)
	// The footer outlives the writer (a committed file's entry keeps it
	// as its chunk map), so it is handed over apart from the writer's
	// buffers.
	footer := w.footer
	footer.asRead()
	return out, &footer, nil
}

// asRead makes f what json.Unmarshal gives back for its JSON: a −0
// bound, which the "omitempty" of StatValue.F drops, reads as +0, and
// each byte of invalid UTF-8 in a string reads as U+FFFD.
func (f *Footer) asRead() {
	for i := range f.Fields {
		f.Fields[i].Name = jsonText(f.Fields[i].Name)
	}
	for _, rg := range f.RowGroups {
		for i := range rg.Chunks {
			m := &rg.Chunks[i]
			m.Column = jsonText(m.Column)
			for _, sv := range []*StatValue{&m.Stats.Min, &m.Stats.Max} {
				if sv.F == 0 {
					sv.F = 0
				}
				sv.S = jsonText(sv.S)
			}
		}
	}
}

// jsonText is s as encoding/json writes and reads it back.
func jsonText(s string) string {
	if utf8.ValidString(s) {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); {
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b.WriteRune(utf8.RuneError)
		} else {
			b.WriteString(s[i : i+size])
		}
		i += size
	}
	return b.String()
}

// WriteFile is a convenience that writes one batch as a whole file.
func WriteFile(b *vector.Batch, opts WriterOptions) ([]byte, error) {
	w := NewWriter(b.Schema, opts)
	if err := w.WriteBatch(b); err != nil {
		return nil, err
	}
	file, _, err := w.Finish()
	return file, err
}

// FooterSize returns the byte length of the footer region (footer JSON
// + trailer) for a file, so callers can model a ranged footer read.
func FooterSize(file []byte) (int64, error) {
	if len(file) < trailerLen || string(file[len(file)-4:]) != Magic {
		return 0, &integrity.Error{Source: "colfmt.footer", Detail: "not a columnar file: missing magic trailer"}
	}
	flen := binary.LittleEndian.Uint32(file[len(file)-8 : len(file)-4])
	return int64(flen) + trailerLen, nil
}

// ReadFooter parses and checksum-verifies the footer from complete
// file bytes. A truncated file, a mangled trailer, or a flipped bit
// anywhere in the footer JSON surfaces as a typed integrity error.
func ReadFooter(file []byte) (*Footer, error) {
	if len(file) < trailerLen || string(file[len(file)-4:]) != Magic {
		return nil, &integrity.Error{Source: "colfmt.footer", Detail: "missing magic trailer"}
	}
	flen := int(binary.LittleEndian.Uint32(file[len(file)-8 : len(file)-4]))
	if flen < 0 || flen+trailerLen > len(file) {
		return nil, &integrity.Error{Source: "colfmt.footer",
			Detail: fmt.Sprintf("footer length %d exceeds file size %d", flen, len(file))}
	}
	footerJSON := file[len(file)-trailerLen-flen : len(file)-trailerLen]
	want := binary.LittleEndian.Uint32(file[len(file)-trailerLen : len(file)-8])
	if got := integrity.Checksum(footerJSON); got != want {
		return nil, &integrity.Error{Source: "colfmt.footer",
			Detail: fmt.Sprintf("footer checksum mismatch: got %08x want %08x", got, want)}
	}
	var f Footer
	if err := json.Unmarshal(footerJSON, &f); err != nil {
		return nil, &integrity.Error{Source: "colfmt.footer", Detail: "bad footer JSON: " + err.Error()}
	}
	return &f, nil
}

// Range is a span of a file's bytes: what one ranged GET asks for.
type Range struct {
	Offset, Length int64
}

// Extent is bytes of a file from Offset on: what one ranged GET
// returned.
type Extent struct {
	Offset int64
	Data   []byte
}

// Extents are the bytes of a file a fetch returned, in offset order. A
// complete file is the one extent at offset 0 (Whole).
type Extents []Extent

// Whole is a complete file's bytes as extents.
func Whole(file []byte) Extents { return Extents{{Data: file}} }

// chunk returns chunk m's bytes, checksum-verified: the one bounds and
// CRC step every read of a chunk takes. A chunk outside the bytes on
// hand or whose CRC does not match them is a typed integrity error
// naming the column, never a mis-decode.
func (src Extents) chunk(m ChunkMeta) ([]byte, error) {
	// The last extent starting at or before the chunk is the only one
	// that can hold it.
	i := sort.Search(len(src), func(i int) bool { return src[i].Offset > m.Offset }) - 1
	if m.Offset < 0 || m.Length < 0 || i < 0 || m.Offset+m.Length > src[i].Offset+int64(len(src[i].Data)) {
		return nil, &integrity.Error{Source: "colfmt.chunk", Block: m.Column,
			Detail: fmt.Sprintf("chunk [%d,+%d) is outside the bytes read", m.Offset, m.Length)}
	}
	raw := src[i].Data[m.Offset-src[i].Offset:][:m.Length]
	if got := integrity.Checksum(raw); got != m.CRC {
		return nil, &integrity.Error{Source: "colfmt.chunk", Block: m.Column,
			Detail: fmt.Sprintf("chunk checksum mismatch: got %08x want %08x", got, m.CRC)}
	}
	return raw, nil
}

// readChunk checksum-verifies and decodes one column chunk.
func (src Extents) readChunk(m ChunkMeta) (*vector.Column, error) {
	raw, err := src.chunk(m)
	if err != nil {
		return nil, err
	}
	col, err := vector.DecodeColumn(raw)
	if err != nil {
		return nil, &integrity.Error{Source: "colfmt.chunk", Block: m.Column,
			Detail: "decode failed despite matching checksum: " + err.Error()}
	}
	return col, nil
}

// ReadChunk checksum-verifies and decodes one column chunk from file
// bytes.
func ReadChunk(file []byte, m ChunkMeta) (*vector.Column, error) {
	return Whole(file).readChunk(m)
}

// Verify walks the whole file — footer and every chunk CRC — without
// decoding any data. It is the scrubber's unit of work: nil means the
// bytes at rest match every embedded checksum.
func Verify(file []byte) error {
	f, err := ReadFooter(file)
	if err != nil {
		return err
	}
	src := Whole(file)
	for _, rg := range f.RowGroups {
		for _, m := range rg.Chunks {
			if _, err := src.chunk(m); err != nil {
				return err
			}
		}
	}
	return nil
}
