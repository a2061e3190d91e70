package engine_test

import (
	"fmt"
	"strings"
	"testing"

	"biglake/internal/bigmeta"
	"biglake/internal/colfmt"
	"biglake/internal/core"
	"biglake/internal/engine"
	"biglake/internal/security"
	"biglake/internal/vector"
)

// TestStatsPruneExactBeyond2To53: 2^53+1 and 2^53 are one float64, so a
// prune that compares integer statistics through float64 takes a file
// whose max is 2^53+1 to hold nothing above 2^53 and drops the row the
// compare kernel selects. Over a managed and a BigLake table, with the
// metadata cache on and off and at both granularities, the strict
// predicate must return the row and the equality and COUNT(*) forms
// must agree, each reading only the file that holds it.
func TestStatsPruneExactBeyond2To53(t *testing.T) {
	const (
		admin = security.Principal("admin@corp")
		big   = int64(1)<<53 + 1 // 9007199254740993
	)
	schema := vector.NewSchema(vector.Field{Name: "x", Type: vector.Int64})
	for _, cache := range []bool{false, true} {
		for _, g := range []bigmeta.PruneGranularity{bigmeta.PrunePartitionsOnly, bigmeta.PruneFiles} {
			opts := engine.DefaultOptions()
			opts.UseMetadataCache, opts.PruneGranularity = cache, g
			lh, err := core.New(core.Options{Admin: admin, Engine: &opts})
			if err != nil {
				t.Fatal(err)
			}
			if err := lh.CreateDataset("ds"); err != nil {
				t.Fatal(err)
			}
			if err := lh.CreateManagedTable(admin, "ds", "m", schema, "bq-managed"); err != nil {
				t.Fatal(err)
			}
			if err := lh.CreateBucket("lake"); err != nil {
				t.Fatal(err)
			}
			if _, err := lh.CreateConnection("c", "lake"); err != nil {
				t.Fatal(err)
			}
			if err := lh.CreateBigLakeTable(admin, core.BigLakeTableSpec{
				Dataset: "ds", Name: "b", Schema: schema, Bucket: "lake", Prefix: "b/",
				Connection: "c", MetadataCaching: true,
			}); err != nil {
				t.Fatal(err)
			}
			for i, v := range []int64{big, 1} {
				// One file per value, on both tables.
				if _, err := lh.Query(admin, fmt.Sprintf("INSERT INTO ds.m VALUES (%d)", v)); err != nil {
					t.Fatal(err)
				}
				file, err := colfmt.WriteFile(vector.MustBatch(schema, []*vector.Column{vector.NewInt64Column([]int64{v})}), colfmt.WriterOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if err := lh.Upload("lake", fmt.Sprintf("b/f%d.blk", i), file, ""); err != nil {
					t.Fatal(err)
				}
			}
			for _, table := range []string{"ds.m", "ds.b"} {
				name := fmt.Sprintf("%s cache=%v granularity=%d", table, cache, g)
				for _, sql := range []string{
					fmt.Sprintf("SELECT x FROM %s WHERE x > %d", table, big-1),
					fmt.Sprintf("SELECT x FROM %s WHERE x >= %d", table, big),
					fmt.Sprintf("SELECT x FROM %s WHERE x = %d", table, big),
				} {
					res, err := lh.Query(admin, sql)
					if err != nil {
						t.Fatalf("%s: %s: %v", name, sql, err)
					}
					if res.Batch.N != 1 || res.Batch.Cols[0].Value(0).I != big {
						t.Fatalf("%s: %s: %d rows, want the one row %d", name, sql, res.Batch.N, big)
					}
					if g == bigmeta.PruneFiles && (res.Stats.FilesScanned != 1 || res.Stats.FilesPruned != 1) {
						t.Fatalf("%s: %s: scanned %d files and pruned %d, want 1 and 1", name, sql, res.Stats.FilesScanned, res.Stats.FilesPruned)
					}
				}
				res, err := lh.Query(admin, fmt.Sprintf("SELECT COUNT(*) AS n FROM %s WHERE x > %d", table, big-1))
				if err != nil {
					t.Fatal(err)
				}
				if n := res.Batch.Cols[0].Value(0).I; n != 1 {
					t.Fatalf("%s: COUNT(*) WHERE x > 2^53 = %d, want 1", name, n)
				}
			}
		}
	}
}

// TestStatsPruneExactAcrossRowGroups: a file's statistics fold its row
// groups' ranges, and that fold must be as exact as the prune. Through
// float64 the fold keeps the first of 2^53 and 2^53+1, so a file whose
// groups hold 2^53+1.. then 2^53 would record min 2^53+1 (and `x = 2^53`
// would prune it), and one whose groups hold ..2^53 then 2^53+1 would
// record max 2^53 (and `x > 2^53` would prune it). Each table holds one
// file of each shape and one of small values; every form must return
// the matching rows and read only the files that hold them. The tables
// are a BigLake table of one-row groups and a managed table whose
// INSERTs outgrow the default 8,192-row group; the values are distinct,
// so every chunk is plain-encoded.
func TestStatsPruneExactAcrossRowGroups(t *testing.T) {
	const (
		admin = security.Principal("admin@corp")
		big   = int64(1) << 53 // 9007199254740992
	)
	schema := vector.NewSchema(vector.Field{Name: "x", Type: vector.Int64})
	// files returns the three files' values with k rows in each first
	// row group: 2^53+1..2^53+k then 2^53; 2^53-k+1..2^53 then 2^53+1;
	// 1..k+1.
	files := func(k int64) [3][]int64 {
		var f [3][]int64
		for j := int64(0); j < k; j++ {
			f[0] = append(f[0], big+1+j)
			f[1] = append(f[1], big-k+1+j)
			f[2] = append(f[2], 1+j)
		}
		f[0], f[1], f[2] = append(f[0], big), append(f[1], big+1), append(f[2], k+1)
		return f
	}
	// Rows matched, as perK*k + plus, and files read.
	queries := []struct {
		where      string
		perK, plus int64
		scanned    int64 // of the 3
	}{
		{fmt.Sprintf("x = %d", big), 0, 2, 2},
		{fmt.Sprintf("x <= %d", big), 2, 2, 3},
		{fmt.Sprintf("x > %d", big), 1, 1, 2},
		{fmt.Sprintf("x >= %d", big+1), 1, 1, 2},
	}
	const managedK = 8192 // the writer's default row-group size
	for _, cache := range []bool{false, true} {
		for _, g := range []bigmeta.PruneGranularity{bigmeta.PrunePartitionsOnly, bigmeta.PruneFiles} {
			opts := engine.DefaultOptions()
			opts.UseMetadataCache, opts.PruneGranularity = cache, g
			lh, err := core.New(core.Options{Admin: admin, Engine: &opts})
			if err != nil {
				t.Fatal(err)
			}
			if err := lh.CreateDataset("ds"); err != nil {
				t.Fatal(err)
			}
			if err := lh.CreateManagedTable(admin, "ds", "m", schema, "bq-managed"); err != nil {
				t.Fatal(err)
			}
			if err := lh.CreateBucket("lake"); err != nil {
				t.Fatal(err)
			}
			if _, err := lh.CreateConnection("c", "lake"); err != nil {
				t.Fatal(err)
			}
			if err := lh.CreateBigLakeTable(admin, core.BigLakeTableSpec{
				Dataset: "ds", Name: "b", Schema: schema, Bucket: "lake", Prefix: "b/",
				Connection: "c", MetadataCaching: true,
			}); err != nil {
				t.Fatal(err)
			}
			for _, vals := range files(managedK) {
				tuples := make([]string, len(vals))
				for j, v := range vals {
					tuples[j] = fmt.Sprintf("(%d)", v)
				}
				if _, err := lh.Query(admin, "INSERT INTO ds.m VALUES "+strings.Join(tuples, ", ")); err != nil {
					t.Fatal(err)
				}
			}
			for i, vals := range files(1) {
				batch := vector.MustBatch(schema, []*vector.Column{vector.NewInt64Column(vals)})
				file, err := colfmt.WriteFile(batch, colfmt.WriterOptions{RowGroupRows: 1})
				if err != nil {
					t.Fatal(err)
				}
				if err := lh.Upload("lake", fmt.Sprintf("b/f%d.blk", i), file, ""); err != nil {
					t.Fatal(err)
				}
			}
			for _, tc := range []struct {
				table string
				k     int64
			}{{"ds.m", managedK}, {"ds.b", 1}} {
				name := fmt.Sprintf("%s cache=%v granularity=%d", tc.table, cache, g)
				for _, q := range queries {
					want := q.perK*tc.k + q.plus
					res, err := lh.Query(admin, fmt.Sprintf("SELECT x FROM %s WHERE %s", tc.table, q.where))
					if err != nil {
						t.Fatalf("%s: WHERE %s: %v", name, q.where, err)
					}
					if int64(res.Batch.N) != want {
						t.Fatalf("%s: WHERE %s: %d rows, want %d", name, q.where, res.Batch.N, want)
					}
					if g == bigmeta.PruneFiles && (res.Stats.FilesScanned != q.scanned || res.Stats.FilesPruned != 3-q.scanned) {
						t.Fatalf("%s: WHERE %s: scanned %d files and pruned %d, want %d and %d", name, q.where, res.Stats.FilesScanned, res.Stats.FilesPruned, q.scanned, 3-q.scanned)
					}
					res, err = lh.Query(admin, fmt.Sprintf("SELECT COUNT(*) AS n FROM %s WHERE %s", tc.table, q.where))
					if err != nil {
						t.Fatal(err)
					}
					if n := res.Batch.Cols[0].Value(0).I; n != want {
						t.Fatalf("%s: COUNT(*) WHERE %s = %d, want %d", name, q.where, n, want)
					}
				}
			}
		}
	}
}
