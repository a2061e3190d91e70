package scan

import (
	"fmt"
	"sort"

	"biglake/internal/bigmeta"
	"biglake/internal/colfmt"
	"biglake/internal/objstore"
	"biglake/internal/sim"
	"biglake/internal/vector"
)

// ReadBatch is the contained read of one file as rows: decoded through
// the vectorized reader with every chunk CRC checked, the table's hive
// partition columns injected, and the rows preds select marked. With a
// Cache the full decode is served from or kept in it, keyed by the
// generation the GET actually returned, and preds become the
// selection's mask; without one they are applied during the decode and
// every row of the returned batch is selected. preds may name columns
// the file does not store (partition columns, consumed by pruning):
// those are dropped here. On a skip the selection is empty.
func (r *Reader) ReadBatch(ch sim.Charger, src *Source, f bigmeta.FileEntry, al vector.Alloc, preds []colfmt.Predicate) (vector.Selection, Outcome, error) {
	var sel vector.Selection
	var hit, miss bool
	out, err := r.Read(ch, src, f, func(data []byte, info objstore.ObjectInfo) error {
		if r.Cache == nil {
			b, err := decode(data, preds)
			if err != nil {
				return err
			}
			if b, err = InjectPartitionColumns(b, f.Partition, src.Table.Schema); err != nil {
				return err
			}
			sel = vector.Selection{Batch: b, N: b.N}
			return nil
		}
		// The file-entry generation may be unknown (0): the GET just
		// told us the real one, so the decode may still be reusable —
		// or worth caching for the next read.
		key := cacheKey{Cloud: src.Table.Cloud, Bucket: f.Bucket, Key: f.Key, Generation: info.Generation}
		full, ok := r.Cache.get(key)
		hit, miss = ok, !ok
		if !ok {
			var err error
			if full, err = decode(data, nil); err != nil {
				// Poisoning guard: the failed decode is not cached.
				return err
			}
			r.Cache.put(key, full)
		}
		var err error
		sel, err = Select(al, full, preds, f.Partition, src.Table.Schema)
		return err
	})
	if err != nil || out.Skipped {
		return vector.Selection{}, out, err
	}
	out.CacheHit, out.CacheMiss = hit, miss
	return sel, out, nil
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

// Resident returns f's full decode when the snapshot pinned its
// generation and the Cache holds that generation. An object generation
// pins immutable content, so a hit needs neither the GET nor the
// decode: Select turns it into the file's selection. Resident does not
// gate; callers run Gate first.
func (r *Reader) Resident(src *Source, f bigmeta.FileEntry) (*vector.Batch, bool) {
	if r.Cache == nil || f.Generation <= 0 {
		return nil, false
	}
	return r.Cache.get(cacheKey{Cloud: src.Table.Cloud, Bucket: f.Bucket, Key: f.Key, Generation: f.Generation})
}

// FilePredicates keeps the predicates the file's own schema can
// evaluate. Hive-partitioned files do not store the partition column;
// predicates on it were consumed by pruning.
func FilePredicates(data []byte, preds []colfmt.Predicate) ([]colfmt.Predicate, error) {
	footer, err := colfmt.ReadFooter(data)
	if err != nil {
		return nil, err
	}
	return schemaPredicates(footer.Schema(), preds), nil
}

func schemaPredicates(s vector.Schema, preds []colfmt.Predicate) []colfmt.Predicate {
	kept := preds[:0:0]
	for _, p := range preds {
		if s.Index(p.Column) >= 0 {
			kept = append(kept, p)
		}
	}
	return kept
}

// decode decodes complete file bytes through the vectorized reader,
// applying the predicates the file can evaluate.
func decode(data []byte, preds []colfmt.Predicate) (*vector.Batch, error) {
	if len(preds) > 0 { // a full decode skips the extra footer parse
		var err error
		if preds, err = FilePredicates(data, preds); err != nil {
			return nil, err
		}
	}
	r, err := colfmt.NewVectorizedReader(data, nil, preds)
	if err != nil {
		return nil, err
	}
	return r.ReadAll()
}

// Select turns a cached full (unfiltered) decode into what the direct
// decode produces, short of the copy: the batch with its partition
// columns injected, and the rows of it the file-level predicates
// select. The caller's merge applies the selection.
func Select(al vector.Alloc, full *vector.Batch, preds []colfmt.Predicate, partition map[string]string, schema vector.Schema) (vector.Selection, error) {
	var mask []bool
	if preds = schemaPredicates(full.Schema, preds); len(preds) > 0 {
		var err error
		if mask, err = colfmt.EvalPredicatesWith(al, full, preds); err != nil {
			return vector.Selection{}, err
		}
	}
	b, err := InjectPartitionColumns(full, partition, schema)
	if err != nil {
		return vector.Selection{}, err
	}
	return vector.Select(b, mask)
}

// InjectPartitionColumns adds hive partition values as columns when
// the table schema declares them but files do not store them.
func InjectPartitionColumns(b *vector.Batch, partition map[string]string, schema vector.Schema) (*vector.Batch, error) {
	if len(partition) == 0 {
		return b, nil
	}
	fields := append([]vector.Field(nil), b.Schema.Fields...)
	cols := append([]*vector.Column(nil), b.Cols...)
	keys := make([]string, 0, len(partition))
	for k := range partition {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if b.Schema.Index(k) >= 0 {
			continue // file stores the column already
		}
		idx := schema.Index(k)
		if idx < 0 {
			continue // partition key not in declared schema
		}
		typ := schema.Fields[idx].Type
		fields = append(fields, vector.Field{Name: k, Type: typ})
		cols = append(cols, constRun(partitionValue(partition[k], typ), typ, b.N))
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

func partitionValue(s string, t vector.Type) vector.Value {
	switch t {
	case vector.Int64, vector.Timestamp:
		var v int64
		if _, err := fmt.Sscanf(s, "%d", &v); err != nil {
			return vector.NullValue
		}
		return vector.Value{Type: t, I: v}
	case vector.Float64:
		var v float64
		if _, err := fmt.Sscanf(s, "%g", &v); err != nil {
			return vector.NullValue
		}
		return vector.FloatValue(v)
	case vector.Bool:
		return vector.BoolValue(s == "true")
	default:
		return vector.StringValue(s)
	}
}
