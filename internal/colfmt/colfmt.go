// Package colfmt implements the open self-describing columnar file
// format BigLake tables store data in — the repository's Apache
// Parquet stand-in (§2.1, §3.3, §3.4). Files consist of row groups of
// independently-encoded column chunks (PLAIN / DICT / RLE), followed
// by a footer holding the schema, row-group index, and per-column
// statistics (min/max, null count, distinct estimate).
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
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"sort"

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

// StatValue is a JSON-serializable vector.Value.
type StatValue struct {
	Type vector.Type `json:"type"`
	I    int64       `json:"i,omitempty"`
	F    float64     `json:"f,omitempty"`
	S    string      `json:"s,omitempty"`
	B    bool        `json:"b,omitempty"`
}

// ToValue converts back to a vector.Value.
func (sv StatValue) ToValue() vector.Value {
	return vector.Value{Type: sv.Type, I: sv.I, F: sv.F, S: sv.S, B: sv.B}
}

// FromValue converts a vector.Value into its stat form.
func FromValue(v vector.Value) StatValue {
	return StatValue{Type: v.Type, I: v.I, F: v.F, S: v.S, B: v.B}
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
	body   bytes.Buffer
	footer Footer
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

// WriteBatch appends rows; full row groups are flushed to the body.
func (w *Writer) WriteBatch(b *vector.Batch) error {
	if !b.Schema.Equal(w.schema) {
		return fmt.Errorf("colfmt: batch schema %v != file schema %v", b.Schema, w.schema)
	}
	merged, err := vector.Concat([]*vector.Batch{w.pend, b})
	if err != nil {
		return err
	}
	w.pend = merged
	for w.pend != nil && w.pend.N >= w.opts.RowGroupRows {
		head, tail, err := splitBatch(w.pend, w.opts.RowGroupRows)
		if err != nil {
			return err
		}
		if err := w.flushGroup(head); err != nil {
			return err
		}
		w.pend = tail
	}
	return nil
}

func splitBatch(b *vector.Batch, n int) (head, tail *vector.Batch, err error) {
	if b.N <= n {
		return b, nil, nil
	}
	headIdx := make([]int, n)
	for i := range headIdx {
		headIdx[i] = i
	}
	tailIdx := make([]int, b.N-n)
	for i := range tailIdx {
		tailIdx[i] = n + i
	}
	hc := make([]*vector.Column, len(b.Cols))
	tc := make([]*vector.Column, len(b.Cols))
	for i, c := range b.Cols {
		hc[i] = vector.GatherWith(vector.Mem{}, c, headIdx)
		tc[i] = vector.GatherWith(vector.Mem{}, c, tailIdx)
	}
	head, err = vector.NewBatch(b.Schema, hc)
	if err != nil {
		return nil, nil, err
	}
	tail, err = vector.NewBatch(b.Schema, tc)
	return head, tail, err
}

// chooseEncoding picks the cheapest physical encoding for a chunk.
func chooseEncoding(c *vector.Column) *vector.Column {
	if c.Len == 0 {
		return c
	}
	distinct := c.DistinctCount()
	if distinct > 0 && distinct*2 <= c.Len {
		dict := vector.DictEncode(c)
		rle := vector.RLEncode(c)
		if len(rle.Runs)*3 <= c.Len {
			return rle
		}
		return dict
	}
	return c
}

func (w *Writer) flushGroup(b *vector.Batch) error {
	rg := RowGroupMeta{Rows: int64(b.N)}
	for i, c := range b.Cols {
		enc := c
		if !w.opts.DisableEncodings {
			enc = chooseEncoding(c)
		}
		min, max, nulls := vector.MinMax(c)
		chunk := vector.EncodeColumn(enc)
		rg.Chunks = append(rg.Chunks, ChunkMeta{
			Column: w.schema.Fields[i].Name,
			Offset: int64(w.body.Len()),
			Length: int64(len(chunk)),
			CRC:    integrity.Checksum(chunk),
			Stats: ColumnStats{
				Min:      FromValue(min),
				Max:      FromValue(max),
				Nulls:    nulls,
				Distinct: int64(enc.DistinctCount()),
			},
		})
		w.body.Write(chunk)
	}
	w.footer.RowGroups = append(w.footer.RowGroups, rg)
	w.footer.Rows += int64(b.N)
	return nil
}

// Finish flushes pending rows and returns the complete file bytes.
func (w *Writer) Finish() ([]byte, error) {
	if w.pend != nil && w.pend.N > 0 {
		if err := w.flushGroup(w.pend); err != nil {
			return nil, err
		}
		w.pend = nil
	}
	footerJSON, err := json.Marshal(&w.footer)
	if err != nil {
		return nil, err
	}
	out := bytes.Buffer{}
	out.Write(w.body.Bytes())
	out.Write(footerJSON)
	var crcBuf [4]byte
	binary.LittleEndian.PutUint32(crcBuf[:], integrity.Checksum(footerJSON))
	out.Write(crcBuf[:])
	var lenBuf [4]byte
	binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(footerJSON)))
	out.Write(lenBuf[:])
	out.WriteString(Magic)
	return out.Bytes(), nil
}

// WriteFile is a convenience that writes one batch as a whole file.
func WriteFile(b *vector.Batch, opts WriterOptions) ([]byte, error) {
	w := NewWriter(b.Schema, opts)
	if err := w.WriteBatch(b); err != nil {
		return nil, err
	}
	return w.Finish()
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
