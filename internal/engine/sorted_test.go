package engine_test

import (
	"fmt"
	"strings"
	"testing"

	"biglake/internal/core"
	"biglake/internal/engine"
	"biglake/internal/scan"
	"biglake/internal/security"
	"biglake/internal/vector"
)

// TestDMLRewriteUnsortsResidentColumn: the scan cache records a managed
// file's ascending id column as Sorted, and a point lookup is answered
// from it by window; an UPDATE that breaks the order rewrites the file
// into a generation whose resident id column is not Sorted, and every
// `WHERE id = k` still returns exactly the reference rows.
func TestDMLRewriteUnsortsResidentColumn(t *testing.T) {
	const admin = security.Principal("admin@corp")
	opts := engine.DefaultOptions()
	opts.EnableScanCache = true
	lh, err := core.New(core.Options{Admin: admin, Engine: &opts})
	if err != nil {
		t.Fatal(err)
	}
	if err := lh.CreateDataset("ds"); err != nil {
		t.Fatal(err)
	}
	schema := vector.NewSchema(vector.Field{Name: "id", Type: vector.Int64}, vector.Field{Name: "v", Type: vector.Int64})
	if err := lh.CreateManagedTable(admin, "ds", "t", schema, "bq-managed"); err != nil {
		t.Fatal(err)
	}
	// The reference: id -> the v values of its rows, in file order.
	ref := map[int64][]int64{}
	var sb strings.Builder
	sb.WriteString("INSERT INTO ds.t VALUES ")
	for i := int64(0); i < 200; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d)", i, 10*i)
		ref[i] = append(ref[i], 10*i)
	}
	query := func(sql string) *engine.Result {
		t.Helper()
		res, err := lh.Query(admin, sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		return res
	}
	query(sb.String())

	// residentID reads the resident id column of the table's one file.
	residentID := func() *vector.Column {
		t.Helper()
		tbl, err := lh.Catalog.Table("ds.t")
		if err != nil {
			t.Fatal(err)
		}
		p, err := lh.Engine.Planner().Plan(scan.Request{Table: tbl, Principal: admin, Version: -1, Project: scan.ColumnsOf(schema, "id", "v")})
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Files) != 1 {
			t.Fatalf("%d files, want 1", len(p.Files))
		}
		b, ok := p.Reader.Resident(&p.Source, p.Files[0], p.Columns)
		if !ok {
			t.Fatal("the file is not resident after a read")
		}
		return b.Column("id")
	}
	lookups := func(keys ...int64) {
		t.Helper()
		for _, k := range keys {
			res := query(fmt.Sprintf("SELECT v FROM ds.t WHERE id = %d", k))
			var got []int64
			for i := 0; i < res.Batch.N; i++ {
				got = append(got, res.Batch.Cols[0].Value(i).AsInt())
			}
			if fmt.Sprint(got) != fmt.Sprint(ref[k]) {
				t.Fatalf("WHERE id = %d: v %v, want %v", k, got, ref[k])
			}
		}
	}

	lookups(0, 57, 199, 200, -1)
	if c := residentID(); !c.Sorted || c.Enc != vector.Plain {
		t.Fatalf("ascending id resident as %v, Sorted %v", c.Enc, c.Sorted)
	}

	// id < 100 becomes 1000 - id: 1000 down to 901, then 100..199.
	query("UPDATE ds.t SET id = 1000 - id WHERE id < 100")
	for i := int64(0); i < 100; i++ {
		delete(ref, i)
		ref[1000-i] = []int64{10 * i}
	}
	lookups(0, 57, 100, 150, 199, 901, 950, 1000, 1001)
	if c := residentID(); c.Sorted {
		t.Fatal("the rewritten generation's id column, out of order, is marked Sorted")
	}
}
