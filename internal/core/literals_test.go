package core

import (
	"errors"
	"math"
	"strings"
	"testing"

	"biglake/internal/colfmt"
	"biglake/internal/engine"
	"biglake/internal/storageapi"
	"biglake/internal/vector"
)

// TestNegativeLiterals: a minus before a number is one literal, so
// INSERT VALUES stores negative numbers — −0.0 with its sign and −2^63
// included — and a SELECT and a Read API session read them back.
func TestNegativeLiterals(t *testing.T) {
	lh := newLH(t)
	lh.CreateDataset("d")
	schema := vector.NewSchema(vector.Field{Name: "id", Type: vector.Int64}, vector.Field{Name: "f", Type: vector.Float64})
	if err := lh.CreateManagedTable(admin, "d", "n", schema, "bq-managed"); err != nil {
		t.Fatal(err)
	}
	if _, err := lh.Query(admin, "INSERT INTO d.n VALUES (-1, -0.0), (-9223372036854775808, -2.5), (3, 1.5)"); err != nil {
		t.Fatal(err)
	}
	check := func(path string, b *vector.Batch) {
		t.Helper()
		ids, fs := b.Column("id").Decode(), b.Column("f").Decode()
		got := map[int64]float64{}
		for i := 0; i < b.N; i++ {
			got[ids.Ints[i]] = fs.Floats[i]
		}
		if len(got) != 2 || got[math.MinInt64] != -2.5 {
			t.Fatalf("%s: rows %v, want ids -1 and -2^63", path, got)
		}
		if f, ok := got[-1]; !ok || f != 0 || !math.Signbit(f) {
			t.Fatalf("%s: id -1 has f %v (signbit %v), want -0", path, f, math.Signbit(f))
		}
	}
	res, err := lh.Query(admin, "SELECT id, f FROM d.n WHERE id < 0")
	if err != nil {
		t.Fatal(err)
	}
	check("SELECT", res.Batch)
	res, err = lh.Query(admin, "SELECT id, f FROM d.n WHERE id = -9223372036854775808 OR f = -0.0")
	if err != nil {
		t.Fatal(err)
	}
	check("SELECT equality", res.Batch)
	sess, err := lh.StorageAPI.CreateReadSession(storageapi.ReadSessionRequest{
		Table: "d.n", Principal: admin, SnapshotVersion: -1,
		Predicates: []colfmt.Predicate{{Column: "id", Op: vector.LT, Value: vector.IntValue(0)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := lh.StorageAPI.ReadAll(sess)
	if err != nil {
		t.Fatal(err)
	}
	check("Read API", b)
}

// TestInsertSelectUnknownColumn: an INSERT … SELECT output column the
// table does not have is a semantic error naming it, autocommit and in
// a transaction alike, and nothing is written; a table column the
// SELECT does not produce is still NULL.
func TestInsertSelectUnknownColumn(t *testing.T) {
	lh := newLH(t)
	lh.CreateDataset("d")
	schema := vector.NewSchema(vector.Field{Name: "id", Type: vector.Int64}, vector.Field{Name: "v", Type: vector.Int64})
	if err := lh.CreateManagedTable(admin, "d", "t", schema, "bq-managed"); err != nil {
		t.Fatal(err)
	}
	if _, err := lh.Query(admin, "INSERT INTO d.t VALUES (1, 2)"); err != nil {
		t.Fatal(err)
	}
	bad := "INSERT INTO d.t SELECT id + 10 FROM d.t"
	wantErr := func(when string, err error) {
		t.Helper()
		if !errors.Is(err, engine.ErrSemantic) || !strings.Contains(err.Error(), `"f0"`) {
			t.Fatalf("%s: %s = %v, want an ErrSemantic naming its output column f0", when, bad, err)
		}
	}
	_, err := lh.Query(admin, bad)
	wantErr("autocommit", err)
	for _, sql := range []string{"BEGIN", bad} {
		_, err = lh.Query(admin, sql)
	}
	wantErr("in a transaction", err)
	if _, err := lh.Query(admin, "ROLLBACK"); err != nil {
		t.Fatal(err)
	}
	if _, err := lh.Query(admin, "INSERT INTO d.t SELECT id + 10 AS id FROM d.t"); err != nil {
		t.Fatal(err)
	}
	res, err := lh.Query(admin, "SELECT id, v FROM d.t ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	if res.Batch.N != 2 || res.Batch.Row(0)[0].I != 1 || res.Batch.Row(1)[0].I != 11 || !res.Batch.Row(1)[1].IsNull() {
		t.Fatalf("rows = %v %v, want (1, 2) (11, NULL)", res.Batch.Row(0), res.Batch.Row(1))
	}
}
