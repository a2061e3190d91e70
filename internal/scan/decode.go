package scan

import (
	"fmt"
	"sort"

	"biglake/internal/bigmeta"
	"biglake/internal/colfmt"
	"biglake/internal/integrity"
	"biglake/internal/objstore"
	"biglake/internal/sim"
	"biglake/internal/vector"
)

// ReadBatch is the contained read of one file as rows: the columns in
// cols (nil = every column) decoded through the vectorized reader —
// only their chunks, and those of the predicates' columns, are fetched,
// CRC-checked and decoded — the table's hive partition columns among
// them injected, and the rows preds select marked. With a Cache the
// columns are served from or added to the object's entry, keyed by the
// pinned generation (or the one an unpinned GET returned), and preds
// select the selection's rows; without one they skip row groups and are
// applied during the decode, and every row of the returned batch is
// selected. preds may name columns the file does not store (partition
// columns, consumed by pruning): those are dropped here; a column the
// table has must be in cols. On a skip the selection is empty.
func (r *Reader) ReadBatch(ch sim.Charger, src *Source, f bigmeta.FileEntry, cols Columns, al vector.Alloc, preds []colfmt.Predicate) (vector.Selection, Outcome, error) {
	if err := cols.covers(src.Table.Schema, preds); err != nil {
		return vector.Selection{}, Outcome{}, err
	}
	var sel vector.Selection
	var hit bool
	out, err := r.contain(src, f, func() error {
		b, ok, err := r.load(ch, src, f, cols, preds)
		if err != nil {
			return err
		}
		hit = ok
		rowPreds := preds
		if r.Cache == nil {
			rowPreds = nil // applied during the decode
		}
		sel, err = Select(al, b, cols, rowPreds, f.Partition, src.Table.Schema)
		return annotate(src, f, err)
	})
	if err != nil || out.Skipped {
		return vector.Selection{}, out, err
	}
	out.CacheHit, out.CacheMiss = hit, r.Cache != nil && !hit
	return sel, out, nil
}

// load is one attempt at f's columns cols, unfiltered when there is a
// Cache. It reads through the file's chunk map: the Cache's resident
// columns are served, and the rest are decoded from ranged GETs of
// exactly their chunks — with no Cache, only in the row groups the
// predicates do not rule out. An entry with no map, or no pinned
// generation, is fetched whole and its footer parsed from the bytes;
// the decode is the same.
func (r *Reader) load(ch sim.Charger, src *Source, f bigmeta.FileEntry, cols Columns, preds []colfmt.Predicate) (b *vector.Batch, hit bool, err error) {
	layout, gen, table := f.Layout, f.Generation, src.Table.Schema
	var whole colfmt.Extents
	if layout == nil || gen <= 0 {
		data, info, err := r.Fetch(ch, src, f)
		if err != nil {
			return nil, false, err
		}
		if layout, err = colfmt.ReadFooter(data); err != nil {
			return nil, false, annotate(src, f, err)
		}
		whole, gen = colfmt.Whole(data), info.Generation
	}
	fs := layout.Schema()
	fw := cols.onFile(nil, table, fs)
	key := cacheKey{Cloud: src.Table.Cloud, Bucket: f.Bucket, Key: f.Key, Generation: gen}
	var got []*vector.Column // by file position: the resident columns
	if r.Cache != nil {
		if b, ok := r.Cache.get(key, cols, table); ok {
			return b, true, nil
		}
		if got = r.Cache.resident(key); got == nil {
			got = make([]*vector.Column, fs.Len())
		}
		preds = nil // the selection's rows, not the decode's
	}
	names := make([]string, 0, fs.Len())
	var at []int
	for j, fld := range fs.Fields {
		if hasBit(fw, j) && (got == nil || got[j] == nil) {
			names, at = append(names, fld.Name), append(at, j)
		}
	}
	rd, err := colfmt.ReaderFor(layout, names, FilePredicates(fs, preds))
	if err != nil {
		return nil, false, annotate(src, f, err)
	}
	if whole == nil {
		ranges, err := rd.Ranges()
		if err != nil {
			return nil, false, annotate(src, f, err)
		}
		if whole, err = r.fetchRanges(ch, src, f, ranges); err != nil {
			return nil, false, err
		}
	}
	if b, err = rd.ReadFrom(whole); err != nil {
		return nil, false, annotate(src, f, err)
	}
	if r.Cache == nil {
		return b, false, nil
	}
	if int64(b.N) != layout.Rows {
		return nil, false, annotate(src, f, &integrity.Error{Source: "colfmt.footer",
			Detail: fmt.Sprintf("row groups hold %d rows, footer says %d", b.N, layout.Rows)})
	}
	// Sortedness is a fact about resident data: recorded once here, as
	// the freshly decoded columns become resident, and read by Select.
	for i, j := range at {
		c := b.Cols[i]
		c.Sorted = vector.Ascending(c)
		got[j] = c
	}
	return r.Cache.add(key, fs, int(layout.Rows), fw, got), false, nil
}

// Verify is the contained read with no decode: its use of the bytes is
// the whole-file CRC walk, so with the response checks it covers every
// check a stored copy can fail. It returns the bytes walked, over both
// attempts when there were two.
func (r *Reader) Verify(ch sim.Charger, src *Source, f bigmeta.FileEntry) (int64, Outcome, error) {
	var n int64
	out, err := r.Read(ch, src, f, func(data []byte, _ objstore.ObjectInfo) error {
		n += int64(len(data))
		return colfmt.Verify(data)
	})
	return n, out, err
}

// Resident returns f's columns cols (nil = all), unfiltered, when the
// snapshot pinned its generation and the Cache holds every one of them
// for that generation. An object generation pins immutable content, so
// a hit needs neither the GET nor the decode: Select turns it into the
// file's selection. Resident does not gate; callers run Gate first.
func (r *Reader) Resident(src *Source, f bigmeta.FileEntry, cols Columns) (*vector.Batch, bool) {
	if r.Cache == nil || f.Generation <= 0 {
		return nil, false
	}
	return r.Cache.get(cacheKey{Cloud: src.Table.Cloud, Bucket: f.Bucket, Key: f.Key, Generation: f.Generation}, cols, src.Table.Schema)
}

// FilePredicates keeps the predicates a file's own schema can
// evaluate. Hive-partitioned files do not store the partition column;
// predicates on it were consumed by pruning.
func FilePredicates(file vector.Schema, preds []colfmt.Predicate) []colfmt.Predicate {
	kept := preds[:0:0]
	for _, p := range preds {
		if file.Index(p.Column) >= 0 {
			kept = append(kept, p)
		}
	}
	return kept
}

// Select turns a file's resident columns cols — decoded, unfiltered —
// into what the direct decode produces, short of the copy: the batch
// with the wanted partition columns injected, and the rows of it the
// file-level predicates select. It is SelectWindow over b's Window.
// schema is the table's.
func Select(al vector.Alloc, b *vector.Batch, cols Columns, preds []colfmt.Predicate, partition map[string]string, schema vector.Schema) (vector.Selection, error) {
	lo, hi := Window(b, preds)
	return SelectWindow(al, b, lo, hi, cols, preds, partition, schema)
}

// Window returns the rows [lo, hi) of b that the predicates with an
// integer literal on a Sorted column leave, found by binary search —
// the rows Select compares the other predicates on, and so the measure
// of its work. Every row when no predicate narrows it.
func Window(b *vector.Batch, preds []colfmt.Predicate) (lo, hi int) {
	lo, hi = 0, b.N
	for _, p := range preds {
		if l, h, ok := vector.SortedWindow(b.Column(p.Column), p.Op, p.Value); ok {
			lo, hi = max(lo, l), min(hi, h)
		}
	}
	return lo, max(lo, hi) // disjoint windows select nothing
}

// SelectWindow is Select given Window(b, preds) = [lo, hi): the
// predicates a sorted column does not answer are evaluated inside the
// window only, their kernels writing the surviving rows. A predicate on
// a column the file does not store (a hive partition column) was
// consumed by pruning, which kept or dropped the whole file.
func SelectWindow(al vector.Alloc, b *vector.Batch, lo, hi int, cols Columns, preds []colfmt.Predicate, partition map[string]string, schema vector.Schema) (vector.Selection, error) {
	if err := cols.covers(schema, preds); err != nil {
		return vector.Selection{}, err
	}
	var rest []colfmt.Predicate
	for _, p := range preds {
		c := b.Column(p.Column)
		if c == nil {
			continue // not stored: consumed by pruning (FilePredicates)
		}
		if !vector.Windowed(c, p.Op, p.Value) {
			rest = append(rest, p)
		}
	}
	var sel []int32
	if len(rest) > 0 && lo < hi {
		var err error
		if sel, err = colfmt.EvalPredicatesWith(al, b, lo, hi, rest); err != nil {
			return vector.Selection{}, err
		}
	}
	b, err := InjectPartitionColumns(b, partition, schema, cols)
	if err != nil {
		return vector.Selection{}, err
	}
	return vector.Window(b, lo, hi, sel)
}

// InjectPartitionColumns adds hive partition values as columns when
// the table schema declares them, want has them (nil = all) and files
// do not store them.
func InjectPartitionColumns(b *vector.Batch, partition map[string]string, schema vector.Schema, want Columns) (*vector.Batch, error) {
	if len(partition) == 0 {
		return b, nil
	}
	keys := make([]string, 0, len(partition))
	for k := range partition {
		// A key the file stores already, the declared schema lacks, or
		// the read does not want adds nothing.
		if idx := schema.Index(k); idx >= 0 && want.Has(idx) && b.Schema.Index(k) < 0 {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		return b, nil
	}
	sort.Strings(keys)
	fields := append([]vector.Field(nil), b.Schema.Fields...)
	cols := append([]*vector.Column(nil), b.Cols...)
	for _, k := range keys {
		typ := schema.Fields[schema.Index(k)].Type
		fields = append(fields, vector.Field{Name: k, Type: typ})
		cols = append(cols, constRun(bigmeta.ParsePartitionValue(partition[k], typ), typ, b.N))
	}
	return vector.NewBatch(vector.Schema{Fields: fields}, cols)
}

// constRun is an n-row column of one value as a single RLE run, O(1)
// to build however many rows the file has: the scan merge expands it
// for the surviving rows only.
func constRun(v vector.Value, t vector.Type, n int) *vector.Column {
	c := &vector.Column{Type: t, Len: n, Enc: vector.RLE}
	if n == 0 {
		return c
	}
	run := vector.Run{Count: uint32(n), ValIdx: vector.NullIdx}
	if !v.IsNull() {
		run.ValIdx = 0
		switch t {
		case vector.Int64, vector.Timestamp:
			c.Ints = []int64{v.I}
		case vector.Float64:
			c.Floats = []float64{v.F}
		case vector.Bool:
			c.Bools = []bool{v.B}
		default:
			c.Strs = []string{v.S}
		}
	}
	c.Runs = []vector.Run{run}
	return c
}
