package core

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"biglake/internal/storageapi"
	"biglake/internal/vector"
)

// mergedSchema holds the values a float64 comparison merges: −0 and 0,
// NaN, and integers beyond 2^53.
func mergedSchema() vector.Schema {
	return vector.NewSchema(
		vector.Field{Name: "id", Type: vector.Int64},
		vector.Field{Name: "f", Type: vector.Float64},
		vector.Field{Name: "big", Type: vector.Int64},
	)
}

// mergedRow is the (f, big) the test writes at id: the Write API rows
// 0..63 and their INSERT … SELECT copies 64..127 cycle {−0, 0, NaN}
// beside 32 × 2^53 then 32 × (2^53+1); the INSERT VALUES rows 128..133
// (literals only, so no −0) are 0 beside three 2^53 then three 2^53+1.
func mergedRow(id int64) (float64, int64) {
	if id >= 128 {
		if id < 131 {
			return 0, 1 << 53
		}
		return 0, 1<<53 + 1
	}
	i := id % 64
	big := int64(1 << 53)
	if i >= 32 {
		big++
	}
	return []float64{math.Copysign(0, -1), 0, math.NaN()}[i%3], big
}

// checkMerged requires b to hold exactly ids 0..133 with mergedRow's
// values: −0 as −0, NaN as NaN, every integer exact.
func checkMerged(t *testing.T, path string, b *vector.Batch) {
	t.Helper()
	ids, fs, bigs := b.Column("id").Decode(), b.Column("f").Decode(), b.Column("big").Decode()
	order := make([]int, b.N)
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(x, y int) int { return int(ids.Ints[x] - ids.Ints[y]) })
	if b.N != 134 {
		t.Fatalf("%s: %d rows, want 134", path, b.N)
	}
	for want, r := range order {
		id := ids.Ints[r]
		f, big := mergedRow(id)
		gotF := fs.Floats[r]
		fOK := math.Float64bits(gotF) == math.Float64bits(f) || (f != f && gotF != gotF)
		if id != int64(want) || !fOK || bigs.Ints[r] != big {
			t.Fatalf("%s: id %d reads (f bits %x, big %d), wrote (f bits %x, big %d)", path, id,
				math.Float64bits(gotF), bigs.Ints[r], math.Float64bits(f), big)
		}
	}
}

// TestWritePathsKeepMergedValues: values a float64 comparison merges,
// written through the Write API, an INSERT … SELECT and an INSERT
// VALUES, read back bit-exact through the engine and the Read API, and
// again after Optimize has rewritten every file into one.
func TestWritePathsKeepMergedValues(t *testing.T) {
	lh := newLH(t)
	lh.CreateDataset("d")
	if err := lh.CreateManagedTable(admin, "d", "v", mergedSchema(), "bq-managed"); err != nil {
		t.Fatal(err)
	}
	ids, fs, bigs := make([]int64, 64), make([]float64, 64), make([]int64, 64)
	for i := range ids {
		ids[i] = int64(i)
		fs[i], bigs[i] = mergedRow(int64(i))
	}
	stream, err := lh.StorageAPI.CreateWriteStream(string(admin), "d.v", storageapi.CommittedMode)
	if err != nil {
		t.Fatal(err)
	}
	rows := vector.MustBatch(mergedSchema(), []*vector.Column{
		vector.NewInt64Column(ids), vector.NewFloat64Column(fs), vector.NewInt64Column(bigs)})
	if _, err := lh.StorageAPI.AppendRows(stream, 0, rows); err != nil {
		t.Fatal(err)
	}
	var values []string
	for id := int64(128); id < 134; id++ {
		_, big := mergedRow(id)
		values = append(values, fmt.Sprintf("(%d, 0.0, %d)", id, big))
	}
	for _, sql := range []string{
		"INSERT INTO d.v SELECT id + 64 AS id, f, big FROM d.v",
		"INSERT INTO d.v VALUES " + strings.Join(values, ", "),
	} {
		if _, err := lh.Query(admin, sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	read := func(when string) {
		t.Helper()
		res, err := lh.Query(admin, "SELECT id, f, big FROM d.v")
		if err != nil {
			t.Fatal(err)
		}
		checkMerged(t, "engine "+when, res.Batch)
		sess, err := lh.StorageAPI.CreateReadSession(storageapi.ReadSessionRequest{Table: "d.v", Principal: admin, SnapshotVersion: -1})
		if err != nil {
			t.Fatal(err)
		}
		b, err := lh.StorageAPI.ReadAll(sess)
		if err != nil {
			t.Fatal(err)
		}
		checkMerged(t, "Read API "+when, b)
	}
	read("after the writes")
	rep, err := lh.Manager.Optimize(string(admin), "d.v", "")
	if err != nil {
		t.Fatal(err)
	}
	if rep.FilesBefore != 3 || rep.FilesAfter != 1 {
		t.Fatalf("Optimize: %d files -> %d, want 3 -> 1", rep.FilesBefore, rep.FilesAfter)
	}
	read("after Optimize")
}
