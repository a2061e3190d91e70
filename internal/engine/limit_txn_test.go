package engine_test

import (
	"fmt"
	"strings"
	"testing"

	"biglake/internal/core"
	"biglake/internal/security"
	"biglake/internal/vector"
)

// TestLimitStopNotUnderTxnOverlay: inside a transaction that has
// written a table, its buffered rows are appended to the scan unfiltered
// and the residual WHERE checks them, so no conjunct is exact and a
// LIMIT reads every file. The same statement outside it stops after the
// first file, and both answers hold only qualifying rows.
func TestLimitStopNotUnderTxnOverlay(t *testing.T) {
	const admin = security.Principal("admin@corp")
	lh, err := core.New(core.Options{Admin: admin})
	if err != nil {
		t.Fatal(err)
	}
	if err := lh.CreateDataset("ds"); err != nil {
		t.Fatal(err)
	}
	schema := vector.NewSchema(vector.Field{Name: "id", Type: vector.Int64}, vector.Field{Name: "c2", Type: vector.Int64})
	if err := lh.CreateManagedTable(admin, "ds", "m", schema, "bq-managed"); err != nil {
		t.Fatal(err)
	}
	for f := 0; f < 4; f++ { // one file per INSERT
		vals := make([]string, 100)
		for r := range vals {
			id := f*100 + r
			vals[r] = fmt.Sprintf("(%d, %d)", id, id%100)
		}
		if _, err := lh.Query(admin, "INSERT INTO ds.m VALUES "+strings.Join(vals, ", ")); err != nil {
			t.Fatal(err)
		}
	}
	const sql = "SELECT id, c2 FROM ds.m WHERE c2 < 50 LIMIT 10"
	check := func(when string, files int64) {
		t.Helper()
		res, err := lh.Query(admin, sql)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.FilesScanned != files || res.Batch.N != 10 {
			t.Errorf("%s: %d rows from %d files, want 10 from %d", when, res.Batch.N, res.Stats.FilesScanned, files)
		}
		for r := 0; r < res.Batch.N; r++ {
			if c2 := res.Batch.Cols[1].Value(r).I; c2 >= 50 {
				t.Errorf("%s: row %d has c2 %d", when, r, c2)
			}
		}
	}
	check("autocommit", 1)
	for _, stmt := range []string{"BEGIN", "INSERT INTO ds.m VALUES (1000, 99)"} {
		if _, err := lh.Query(admin, stmt); err != nil {
			t.Fatal(err)
		}
	}
	check("inside a transaction", 4)
	if _, err := lh.Query(admin, "ROLLBACK"); err != nil {
		t.Fatal(err)
	}
}
