package biglake

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"biglake/internal/colfmt"
	"biglake/internal/engine"
	"biglake/internal/mlmodel"
	"biglake/internal/sim"
	"biglake/internal/vector"
)

const (
	admin   = Principal("admin@biglake")
	analyst = Principal("analyst@corp")
)

func newLakehouse(t *testing.T) *Lakehouse {
	t.Helper()
	lh, err := New(Options{Admin: admin})
	if err != nil {
		t.Fatal(err)
	}
	return lh
}

func TestLakehouseEndToEnd(t *testing.T) {
	lh := newLakehouse(t)
	if err := lh.CreateDataset("sales"); err != nil {
		t.Fatal(err)
	}
	schema := NewSchema(
		Field{Name: "id", Type: Int64},
		Field{Name: "region", Type: String},
		Field{Name: "amount", Type: Float64},
	)
	if err := lh.CreateManagedTable(admin, "sales", "orders", schema, "bq-managed"); err != nil {
		t.Fatal(err)
	}
	if _, err := lh.Query(admin, "INSERT INTO sales.orders VALUES (1, 'us', 10.5), (2, 'eu', 20.0), (3, 'us', 5.0)"); err != nil {
		t.Fatal(err)
	}
	res, err := lh.Query(admin, "SELECT region, SUM(amount) AS total FROM sales.orders GROUP BY region ORDER BY total DESC")
	if err != nil {
		t.Fatal(err)
	}
	if res.Batch.N != 2 || res.Batch.Row(0)[0].S != "eu" {
		t.Fatalf("result = %d rows, first %v", res.Batch.N, res.Batch.Row(0))
	}
}

func TestLakehouseGovernanceFlow(t *testing.T) {
	lh := newLakehouse(t)
	lh.CreateDataset("hr")
	schema := NewSchema(Field{Name: "name", Type: String}, Field{Name: "salary", Type: Int64})
	if err := lh.CreateManagedTable(admin, "hr", "people", schema, "bq-managed"); err != nil {
		t.Fatal(err)
	}
	lh.Query(admin, "INSERT INTO hr.people VALUES ('ann', 100), ('bob', 200)")
	lh.Auth.GrantTable(admin, "hr.people", analyst, RoleViewer)
	lh.Auth.SetColumnPolicy(admin, "hr.people", ColumnPolicy{
		Column: "salary", Allowed: map[Principal]bool{admin: true}, Mask: vector.MaskHash,
	})
	res, err := lh.Query(analyst, "SELECT name, salary FROM hr.people ORDER BY name")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(res.Batch.Row(0)[1].S, "hash_") {
		t.Fatalf("salary not masked: %v", res.Batch.Row(0))
	}
}

func TestLakehouseBigLakeTableWithConnection(t *testing.T) {
	lh := newLakehouse(t)
	lh.CreateDataset("lake")
	if err := lh.CreateBucket("customer-data"); err != nil {
		t.Fatal(err)
	}
	if _, err := lh.CreateConnection("lake-conn", "customer-data"); err != nil {
		t.Fatal(err)
	}
	// Write an open-format file directly to the bucket.
	schema := NewSchema(Field{Name: "v", Type: Int64})
	bl := vector.NewBuilder(schema)
	bl.Append(IntValue(7))
	file, err := writeFileHelper(bl.Build())
	if err != nil {
		t.Fatal(err)
	}
	if err := lh.Upload("customer-data", "t/part-0.blk", file, "application/x-blk"); err != nil {
		t.Fatal(err)
	}
	if err := lh.CreateBigLakeTable(admin, BigLakeTableSpec{
		Dataset: "lake", Name: "t", Schema: schema,
		Bucket: "customer-data", Prefix: "t/", Connection: "lake-conn", MetadataCaching: true,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := lh.RefreshMetadataCache("lake.t"); err != nil {
		t.Fatal(err)
	}
	res, err := lh.Query(admin, "SELECT v FROM lake.t")
	if err != nil || res.Batch.N != 1 || res.Batch.Row(0)[0].AsInt() != 7 {
		t.Fatalf("res = %v err = %v", res, err)
	}
}

func TestLakehouseObjectTableAndInference(t *testing.T) {
	lh := newLakehouse(t)
	lh.CreateDataset("media")
	lh.CreateBucket("images")
	rng := sim.NewRNG(3)
	classes := []string{"dark", "bright"}
	for i, class := range []int{0, 1} {
		img := mlmodel.RandomImage(rng, 64, 64, class, 2)
		enc, _ := mlmodel.EncodeImage(img)
		key := []string{"imgs/a.jpg", "imgs/b.jpg"}[i]
		if err := lh.Upload("images", key, enc, "image/jpeg"); err != nil {
			t.Fatal(err)
		}
	}
	if err := lh.CreateObjectTable(admin, "media", "files", "images", "imgs/"); err != nil {
		t.Fatal(err)
	}
	model := NewClassifier("m", 16, 16, classes, 9)
	lh.Inference.RegisterModel(&Model{Name: "media.m", Classifier: model})
	res, err := lh.Query(admin, `SELECT uri, predictions FROM ML.PREDICT(MODEL media.m,
		(SELECT uri, ML.DECODE_IMAGE(uri) AS image FROM media.files))`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Batch.N != 2 {
		t.Fatalf("rows = %d", res.Batch.N)
	}
	// Sampling helper.
	all, _ := lh.Query(admin, "SELECT * FROM media.files")
	sample, err := SampleObjects(all.Batch, 1.0, 1)
	if err != nil || sample.N != 2 {
		t.Fatalf("sample: %v", err)
	}
}

func TestMultiCloudFacade(t *testing.T) {
	dep := NewMultiCloud(admin)
	if _, err := dep.AddRegion("gcp-us", "gcp"); err != nil {
		t.Fatal(err)
	}
	if _, err := dep.AddRegion("azure-eastus", "azure"); err != nil {
		t.Fatal(err)
	}
	if dep.Primary != "gcp-us" {
		t.Fatalf("primary = %q", dep.Primary)
	}
}

func TestSparkleSessionOverLakehouse(t *testing.T) {
	lh := newLakehouse(t)
	lh.CreateDataset("lake")
	lh.CreateBucket("b")
	schema := NewSchema(Field{Name: "v", Type: Int64})
	bl := vector.NewBuilder(schema)
	for i := 0; i < 10; i++ {
		bl.Append(IntValue(int64(i)))
	}
	file, _ := writeFileHelper(bl.Build())
	lh.Upload("b", "t/p.blk", file, "")
	lh.CreateConnection("c", "b")
	lh.CreateBigLakeTable(admin, BigLakeTableSpec{
		Dataset: "lake", Name: "t", Schema: schema, Bucket: "b", Prefix: "t/",
		Connection: "c", MetadataCaching: true,
	})
	sess := NewSparkleSession(lh, SparkleOptions{UseSessionStats: true})
	got, err := sess.ReadBigLake(lh.StorageAPI, admin, "lake.t").
		Filter(Predicate{Column: "v", Op: vector.GE, Value: IntValue(5)}).
		Collect()
	if err != nil || got.N != 5 {
		t.Fatalf("sparkle rows = %v err = %v", got, err)
	}
}

// writeFileHelper builds a columnar file from a batch for tests.
func writeFileHelper(b *vector.Batch) ([]byte, error) {
	return colfmt.WriteFile(b, colfmt.WriterOptions{})
}

// TestIntegerOrderIsExact: integers that differ only past float64
// precision are ordered and compared as integers at every door — ORDER
// BY (with and without LIMIT), MIN and MAX through the query service,
// the engine at every worker count, and a Read API aggregate session.
func TestIntegerOrderIsExact(t *testing.T) {
	lh := newLakehouse(t)
	if err := lh.CreateDataset("d"); err != nil {
		t.Fatal(err)
	}
	if err := lh.CreateManagedTable(admin, "d", "t", NewSchema(Field{Name: "x", Type: Int64}), "bq-managed"); err != nil {
		t.Fatal(err)
	}
	const big = int64(1) << 53
	if _, err := lh.Query(admin, fmt.Sprintf("INSERT INTO d.t VALUES (%d), (%d)", big+1, big)); err != nil {
		t.Fatal(err)
	}
	checks := []struct {
		sql  string
		want []int64
	}{
		{"SELECT x FROM d.t ORDER BY x", []int64{big, big + 1}},
		{"SELECT x FROM d.t ORDER BY x DESC", []int64{big + 1, big}},
		{"SELECT x FROM d.t ORDER BY x LIMIT 1", []int64{big}},
		{"SELECT x FROM d.t ORDER BY x DESC LIMIT 1", []int64{big + 1}},
		{"SELECT MIN(x) AS m FROM d.t", []int64{big}},
		{"SELECT MAX(x) AS m FROM d.t", []int64{big + 1}},
	}
	check := func(door string, b *Batch, want []int64) {
		t.Helper()
		got := make([]int64, b.N)
		for i := range got {
			got[i] = b.Cols[0].Value(i).I
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: got %v, want %v", door, got, want)
		}
	}
	for _, c := range checks {
		res, err := lh.Query(admin, c.sql)
		if err != nil {
			t.Fatal(err)
		}
		check(c.sql, res.Batch, c.want)
		for _, w := range []int{1, 2, 3, 8} {
			opts := engine.DefaultOptions()
			opts.MorselWorkers = w
			res, err := lh.NewEngine(opts).Query(engine.NewContext(admin, fmt.Sprintf("q-exact-w%d", w)), c.sql)
			if err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("%s at %d workers", c.sql, w), res.Batch, c.want)
		}
	}
	sess, err := lh.StorageAPI.CreateReadSession(ReadSessionRequest{
		Table: "d.t", Principal: admin, SnapshotVersion: -1,
		Aggregates: []AggregateRequest{{Column: "x", Kind: vector.AggMin}, {Column: "x", Kind: vector.AggMax}},
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := lh.StorageAPI.ReadAll(sess)
	if err != nil {
		t.Fatal(err)
	}
	if b.N != 1 || b.Cols[0].Value(0).I != big || b.Cols[1].Value(0).I != big+1 {
		t.Fatalf("Read API MIN, MAX = %v, want [%d %d]", b.Row(0), big, big+1)
	}
}
