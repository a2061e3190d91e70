package engine

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"biglake/internal/bigmeta"
	"biglake/internal/catalog"
	"biglake/internal/colfmt"
	"biglake/internal/objstore"
	"biglake/internal/security"
	"biglake/internal/sim"
	"biglake/internal/sqlparse"
	"biglake/internal/vector"
)

const (
	adminP = security.Principal("admin@corp")
	aliceP = security.Principal("alice@corp")
)

type env struct {
	clock *sim.Clock
	store *objstore.Store
	cat   *catalog.Catalog
	auth  *security.Authority
	meta  *bigmeta.Cache
	log   *bigmeta.Log
	eng   *Engine
	cred  objstore.Credential
}

func newEnv(t *testing.T, opts Options) *env {
	t.Helper()
	clock := sim.NewClock()
	store := objstore.New(sim.GCP, clock)
	cred := objstore.Credential{Principal: "sa-lake@corp"}
	if err := store.CreateBucket(cred, "lake"); err != nil {
		t.Fatal(err)
	}
	cat := catalog.New()
	if err := cat.CreateDataset(catalog.Dataset{Name: "ds", Region: "gcp-us", Cloud: "gcp"}); err != nil {
		t.Fatal(err)
	}
	auth := security.NewAuthority("secret", adminP)
	if err := auth.RegisterConnection(adminP, security.Connection{
		Name: "lake-conn", ServiceAccount: cred, Cloud: "gcp",
	}); err != nil {
		t.Fatal(err)
	}
	meta := bigmeta.NewCache(clock)
	log := bigmeta.NewLog(clock)
	eng := New(cat, auth, meta, log, clock, map[string]*objstore.Store{"gcp": store}, opts)
	eng.ManagedCred = cred
	return &env{clock: clock, store: store, cat: cat, auth: auth, meta: meta, log: log, eng: eng, cred: cred}
}

// ordersSchema: order_id, customer_id, region, amount.
func ordersSchema() vector.Schema {
	return vector.NewSchema(
		vector.Field{Name: "order_id", Type: vector.Int64},
		vector.Field{Name: "customer_id", Type: vector.Int64},
		vector.Field{Name: "region", Type: vector.String},
		vector.Field{Name: "amount", Type: vector.Float64},
	)
}

// createOrders writes a partitioned BigLake table ds.orders with
// filesPerRegion files per region, rowsPerFile rows each.
func (ev *env) createOrders(t *testing.T, regions []string, filesPerRegion, rowsPerFile int, caching bool) {
	t.Helper()
	next := int64(0)
	for _, reg := range regions {
		for f := 0; f < filesPerRegion; f++ {
			bl := vector.NewBuilder(ordersSchema())
			for r := 0; r < rowsPerFile; r++ {
				bl.Append(
					vector.IntValue(next),
					vector.IntValue(next%100),
					vector.StringValue(reg),
					vector.FloatValue(float64(next%1000)),
				)
				next++
			}
			file, err := colfmt.WriteFile(bl.Build(), colfmt.WriterOptions{})
			if err != nil {
				t.Fatal(err)
			}
			key := fmt.Sprintf("orders/region=%s/part-%03d.blk", reg, f)
			if _, err := ev.store.Put(ev.cred, "lake", key, file, "application/x-blk"); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := ev.cat.CreateTable(catalog.Table{
		Dataset: "ds", Name: "orders", Type: catalog.BigLake, Schema: ordersSchema(),
		Cloud: "gcp", Bucket: "lake", Prefix: "orders/", Connection: "lake-conn",
		PartitionColumn: "region", MetadataCaching: caching,
	}); err != nil {
		t.Fatal(err)
	}
	ev.auth.GrantTable(adminP, "ds.orders", aliceP, security.RoleViewer)
}

func (ev *env) query(t *testing.T, p security.Principal, sql string) *Result {
	t.Helper()
	res, err := ev.eng.Query(NewContext(p, "q"), sql)
	if err != nil {
		t.Fatalf("Query(%q): %v", sql, err)
	}
	return res
}

func TestSelectAll(t *testing.T) {
	ev := newEnv(t, DefaultOptions())
	ev.createOrders(t, []string{"us", "eu"}, 2, 50, true)
	res := ev.query(t, adminP, "SELECT * FROM ds.orders")
	if res.Batch.N != 200 {
		t.Fatalf("rows = %d", res.Batch.N)
	}
	if res.Batch.Schema.Index("order_id") < 0 || res.Batch.Schema.Index("region") < 0 {
		t.Fatalf("schema = %v", res.Batch.Schema)
	}
}

func TestSelectConstNoFrom(t *testing.T) {
	ev := newEnv(t, DefaultOptions())
	res := ev.query(t, adminP, "SELECT 1 + 2 AS three, 'x' AS s")
	if res.Batch.N != 1 || res.Batch.Column("three").Value(0).AsInt() != 3 || res.Batch.Column("s").Value(0).S != "x" {
		t.Fatalf("res = %+v", res.Batch.Row(0))
	}
}

func TestWhereFilter(t *testing.T) {
	ev := newEnv(t, DefaultOptions())
	ev.createOrders(t, []string{"us", "eu"}, 1, 100, true)
	res := ev.query(t, adminP, "SELECT order_id FROM ds.orders WHERE region = 'eu' AND amount >= 150")
	for i := 0; i < res.Batch.N; i++ {
		id := res.Batch.Column("order_id").Value(i).AsInt()
		if id < 100 { // us rows are 0..99
			t.Fatalf("us row %d leaked", id)
		}
	}
	if res.Batch.N == 0 {
		t.Fatal("no rows matched")
	}
}

func TestPartitionPruningViaCache(t *testing.T) {
	ev := newEnv(t, DefaultOptions())
	ev.createOrders(t, []string{"us", "eu", "jp"}, 4, 10, true)
	res := ev.query(t, adminP, "SELECT COUNT(*) AS n FROM ds.orders WHERE region = 'jp'")
	if res.Batch.Column("n").Value(0).AsInt() != 40 {
		t.Fatalf("count = %v", res.Batch.Row(0))
	}
	if res.Stats.FilesScanned != 4 || res.Stats.FilesPruned != 8 {
		t.Fatalf("scanned %d pruned %d, want 4/8", res.Stats.FilesScanned, res.Stats.FilesPruned)
	}
	if res.Stats.ListCalls != 0 {
		t.Fatal("cached scan must not LIST")
	}
}

func TestNoCachePaysListAndFooters(t *testing.T) {
	ev := newEnv(t, Options{UseMetadataCache: false})
	ev.createOrders(t, []string{"us", "eu"}, 3, 10, false)
	res := ev.query(t, adminP, "SELECT COUNT(*) AS n FROM ds.orders WHERE region = 'eu'")
	if res.Batch.Column("n").Value(0).AsInt() != 30 {
		t.Fatalf("count = %v", res.Batch.Row(0))
	}
	if res.Stats.ListCalls == 0 {
		t.Fatal("uncached scan must LIST")
	}
	if res.Stats.SimElapsed == 0 {
		t.Fatal("uncached scan must cost simulated time")
	}
}

func TestMetadataCachingSpeedsUpQueries(t *testing.T) {
	// E1's shape at unit-test scale: same query, cache on vs off.
	sql := "SELECT SUM(amount) AS s FROM ds.orders WHERE region = 'eu'"

	evOff := newEnv(t, Options{UseMetadataCache: false})
	evOff.createOrders(t, []string{"us", "eu", "jp", "br"}, 5, 50, false)
	off := evOff.query(t, adminP, sql)

	evOn := newEnv(t, DefaultOptions())
	evOn.createOrders(t, []string{"us", "eu", "jp", "br"}, 5, 50, true)
	evOn.query(t, adminP, sql) // first touch builds cache
	on := evOn.query(t, adminP, sql)

	if on.Batch.Column("s").Value(0).AsFloat() != off.Batch.Column("s").Value(0).AsFloat() {
		t.Fatal("cache changed the answer")
	}
	if on.Stats.SimElapsed*2 >= off.Stats.SimElapsed {
		t.Fatalf("cached %v should be >2x faster than uncached %v", on.Stats.SimElapsed, off.Stats.SimElapsed)
	}
}

func TestGroupByAggregates(t *testing.T) {
	ev := newEnv(t, DefaultOptions())
	ev.createOrders(t, []string{"us", "eu"}, 1, 10, true)
	res := ev.query(t, adminP,
		"SELECT region, COUNT(*) AS n, SUM(amount) AS total, MIN(order_id) AS lo, MAX(order_id) AS hi, AVG(amount) AS avg FROM ds.orders GROUP BY region ORDER BY region")
	if res.Batch.N != 2 {
		t.Fatalf("groups = %d", res.Batch.N)
	}
	row0 := res.Batch.Row(0) // eu sorts first
	if row0[0].S != "eu" || row0[1].AsInt() != 10 || row0[3].AsInt() != 10 || row0[4].AsInt() != 19 {
		t.Fatalf("eu row = %v", row0)
	}
	wantSum := 0.0
	for i := 10; i < 20; i++ {
		wantSum += float64(i % 1000)
	}
	if row0[2].AsFloat() != wantSum || row0[5].AsFloat() != wantSum/10 {
		t.Fatalf("sum/avg = %v / %v", row0[2], row0[5])
	}
}

func TestGlobalAggregateOverEmpty(t *testing.T) {
	ev := newEnv(t, DefaultOptions())
	ev.createOrders(t, []string{"us"}, 1, 5, true)
	res := ev.query(t, adminP, "SELECT COUNT(*) AS n, SUM(amount) AS s FROM ds.orders WHERE amount < 0")
	if res.Batch.N != 1 || res.Batch.Column("n").Value(0).AsInt() != 0 {
		t.Fatalf("count = %+v", res.Batch.Row(0))
	}
	if !res.Batch.Column("s").Value(0).IsNull() {
		t.Fatal("SUM over empty should be NULL")
	}
}

func TestOrderByAndLimit(t *testing.T) {
	ev := newEnv(t, DefaultOptions())
	ev.createOrders(t, []string{"us"}, 1, 50, true)
	res := ev.query(t, adminP, "SELECT order_id FROM ds.orders ORDER BY order_id DESC LIMIT 3")
	if res.Batch.N != 3 {
		t.Fatalf("rows = %d", res.Batch.N)
	}
	ids := []int64{}
	for i := 0; i < 3; i++ {
		ids = append(ids, res.Batch.Column("order_id").Value(i).AsInt())
	}
	if ids[0] != 49 || ids[1] != 48 || ids[2] != 47 {
		t.Fatalf("ids = %v", ids)
	}
}

func TestOrderByAlias(t *testing.T) {
	ev := newEnv(t, DefaultOptions())
	ev.createOrders(t, []string{"us", "eu"}, 1, 10, true)
	res := ev.query(t, adminP, "SELECT region, COUNT(*) AS n FROM ds.orders GROUP BY region ORDER BY n DESC, region ASC")
	if res.Batch.N != 2 {
		t.Fatal("rows")
	}
	// Equal counts -> region ASC tiebreak.
	if res.Batch.Column("region").Value(0).S != "eu" {
		t.Fatalf("order = %v", res.Batch.Row(0))
	}
}

func TestJoin(t *testing.T) {
	ev := newEnv(t, DefaultOptions())
	ev.createOrders(t, []string{"us"}, 1, 20, true)

	// customers: id, name — native table via the log.
	custSchema := vector.NewSchema(
		vector.Field{Name: "id", Type: vector.Int64},
		vector.Field{Name: "name", Type: vector.String},
	)
	bl := vector.NewBuilder(custSchema)
	for i := 0; i < 5; i++ {
		bl.Append(vector.IntValue(int64(i)), vector.StringValue(fmt.Sprintf("cust%d", i)))
	}
	file, _ := colfmt.WriteFile(bl.Build(), colfmt.WriterOptions{})
	ev.store.Put(ev.cred, "lake", "managed/customers/f1.blk", file, "")
	ev.cat.CreateTable(catalog.Table{
		Dataset: "ds", Name: "customers", Type: catalog.Native, Schema: custSchema,
		Cloud: "gcp", Bucket: "lake", Prefix: "managed/customers/",
	})
	min, _, _ := vector.MinMax(bl.Build().Cols[0], nil)
	_ = min
	ev.log.Commit("loader", map[string]bigmeta.TableDelta{
		"ds.customers": {Added: []bigmeta.FileEntry{{Bucket: "lake", Key: "managed/customers/f1.blk", Size: int64(len(file)), RowCount: 5}}},
	})

	res := ev.query(t, adminP, `SELECT o.order_id, c.name FROM ds.orders AS o
		JOIN ds.customers AS c ON o.customer_id = c.id WHERE o.amount < 100`)
	if res.Batch.N != 5 { // customer_ids 0..19 but only 0..4 exist
		t.Fatalf("rows = %d", res.Batch.N)
	}
	for i := 0; i < res.Batch.N; i++ {
		row := res.Batch.Row(i)
		if !strings.HasPrefix(row[1].S, "cust") {
			t.Fatalf("row = %v", row)
		}
	}
}

func TestLeftJoinNullFill(t *testing.T) {
	ev := newEnv(t, DefaultOptions())
	ev.createOrders(t, []string{"us"}, 1, 10, true)
	custSchema := vector.NewSchema(
		vector.Field{Name: "id", Type: vector.Int64},
		vector.Field{Name: "name", Type: vector.String},
	)
	bl := vector.NewBuilder(custSchema)
	bl.Append(vector.IntValue(0), vector.StringValue("zero"))
	file, _ := colfmt.WriteFile(bl.Build(), colfmt.WriterOptions{})
	ev.store.Put(ev.cred, "lake", "managed/c2/f1.blk", file, "")
	ev.cat.CreateTable(catalog.Table{
		Dataset: "ds", Name: "c2", Type: catalog.Native, Schema: custSchema,
		Cloud: "gcp", Bucket: "lake", Prefix: "managed/c2/",
	})
	ev.log.Commit("loader", map[string]bigmeta.TableDelta{
		"ds.c2": {Added: []bigmeta.FileEntry{{Bucket: "lake", Key: "managed/c2/f1.blk", RowCount: 1}}},
	})
	res := ev.query(t, adminP, `SELECT o.order_id, c.name FROM ds.orders AS o
		LEFT JOIN ds.c2 AS c ON o.customer_id = c.id`)
	if res.Batch.N != 10 {
		t.Fatalf("left join rows = %d, want 10", res.Batch.N)
	}
	nulls := 0
	for i := 0; i < res.Batch.N; i++ {
		if res.Batch.Row(i)[1].IsNull() {
			nulls++
		}
	}
	if nulls != 9 {
		t.Fatalf("null-filled rows = %d, want 9", nulls)
	}
}

func TestSubqueryInFrom(t *testing.T) {
	ev := newEnv(t, DefaultOptions())
	ev.createOrders(t, []string{"us"}, 1, 30, true)
	res := ev.query(t, adminP,
		"SELECT big FROM (SELECT order_id AS big FROM ds.orders WHERE order_id >= 25) sub ORDER BY big")
	if res.Batch.N != 5 || res.Batch.Column("big").Value(0).AsInt() != 25 {
		t.Fatalf("rows = %d first = %v", res.Batch.N, res.Batch.Row(0))
	}
}

func TestGovernanceEnforcedInEngine(t *testing.T) {
	ev := newEnv(t, DefaultOptions())
	ev.createOrders(t, []string{"us", "eu"}, 1, 10, true)
	ev.auth.AddRowPolicy(adminP, "ds.orders", security.RowPolicy{
		Name:     "us_only",
		Grantees: map[security.Principal]bool{aliceP: true},
		Filter:   []colfmt.Predicate{{Column: "region", Op: vector.EQ, Value: vector.StringValue("us")}},
	})
	ev.auth.SetColumnPolicy(adminP, "ds.orders", security.ColumnPolicy{
		Column: "amount", Allowed: map[security.Principal]bool{adminP: true}, Mask: vector.MaskHash,
	})
	res := ev.query(t, aliceP, "SELECT region, amount FROM ds.orders")
	if res.Batch.N != 10 {
		t.Fatalf("alice sees %d rows, want 10", res.Batch.N)
	}
	for i := 0; i < res.Batch.N; i++ {
		row := res.Batch.Row(i)
		if row[0].S != "us" {
			t.Fatal("row policy leaked")
		}
		if !strings.HasPrefix(row[1].S, "hash_") {
			t.Fatalf("amount not masked: %v", row[1])
		}
	}
	// Stranger denied.
	if _, err := ev.eng.Query(NewContext("evil@x", "q"), "SELECT * FROM ds.orders"); !errors.Is(err, security.ErrDenied) {
		t.Fatalf("stranger: %v", err)
	}
}

func TestObjectTableScan(t *testing.T) {
	ev := newEnv(t, DefaultOptions())
	ev.store.Put(ev.cred, "lake", "imgs/a.jpg", []byte("AAA"), "image/jpeg")
	ev.store.Put(ev.cred, "lake", "imgs/b.png", []byte("BB"), "image/png")
	ev.cat.CreateTable(catalog.Table{
		Dataset: "ds", Name: "files", Type: catalog.Object,
		Cloud: "gcp", Bucket: "lake", Prefix: "imgs/", Connection: "lake-conn",
		MetadataCaching: true,
	})
	res := ev.query(t, adminP, "SELECT uri, size, content_type FROM ds.files WHERE content_type = 'image/jpeg'")
	if res.Batch.N != 1 {
		t.Fatalf("rows = %d", res.Batch.N)
	}
	row := res.Batch.Row(0)
	if row[0].S != "gcp://lake/imgs/a.jpg" || row[1].AsInt() != 3 {
		t.Fatalf("row = %v", row)
	}
}

func TestDynamicPartitionPruning(t *testing.T) {
	// Fact table partitioned by region joined to a filtered dim table
	// carrying one region's key range: with DPP the fact scan must
	// prune files.
	ev := newEnv(t, DefaultOptions())
	ev.createOrders(t, []string{"us", "eu", "jp"}, 2, 10, true)

	dimSchema := vector.NewSchema(
		vector.Field{Name: "cust", Type: vector.Int64},
		vector.Field{Name: "tier", Type: vector.String},
	)
	bl := vector.NewBuilder(dimSchema)
	for i := 0; i < 3; i++ {
		bl.Append(vector.IntValue(int64(i)), vector.StringValue("gold"))
	}
	for i := 3; i < 100; i++ {
		bl.Append(vector.IntValue(int64(i)), vector.StringValue("basic"))
	}
	file, _ := colfmt.WriteFile(bl.Build(), colfmt.WriterOptions{})
	ev.store.Put(ev.cred, "lake", "managed/dim/f1.blk", file, "")
	ev.cat.CreateTable(catalog.Table{
		Dataset: "ds", Name: "dim", Type: catalog.Native, Schema: dimSchema,
		Cloud: "gcp", Bucket: "lake", Prefix: "managed/dim/",
	})
	ev.log.Commit("loader", map[string]bigmeta.TableDelta{
		"ds.dim": {Added: []bigmeta.FileEntry{{Bucket: "lake", Key: "managed/dim/f1.blk", RowCount: 100}}},
	})

	sql := `SELECT COUNT(*) AS n FROM ds.orders AS o JOIN ds.dim AS d ON o.order_id = d.cust WHERE d.tier = 'gold'`
	withDPP := ev.query(t, adminP, sql)

	ev.eng.Opts.EnableDPP = false
	withoutDPP := ev.query(t, adminP, sql)
	ev.eng.Opts.EnableDPP = true

	if withDPP.Batch.Column("n").Value(0).AsInt() != withoutDPP.Batch.Column("n").Value(0).AsInt() {
		t.Fatal("DPP changed the answer")
	}
	if withDPP.Stats.FilesScanned >= withoutDPP.Stats.FilesScanned {
		t.Fatalf("DPP scanned %d files, no-DPP scanned %d — want fewer with DPP",
			withDPP.Stats.FilesScanned, withoutDPP.Stats.FilesScanned)
	}
}

func TestTVFDispatch(t *testing.T) {
	ev := newEnv(t, DefaultOptions())
	ev.createOrders(t, []string{"us"}, 1, 4, true)
	ev.eng.RegisterTVF("ML.PREDICT", func(ctx *QueryContext, model string, input *vector.Batch) (*vector.Batch, error) {
		if model != "ds.m" {
			return nil, fmt.Errorf("bad model %q", model)
		}
		preds := make([]string, input.N)
		for i := range preds {
			preds[i] = "label"
		}
		fields := append([]vector.Field{}, input.Schema.Fields...)
		fields = append(fields, vector.Field{Name: "predictions", Type: vector.String})
		cols := append([]*vector.Column{}, input.Cols...)
		cols = append(cols, vector.NewStringColumn(preds))
		return vector.NewBatch(vector.Schema{Fields: fields}, cols)
	})
	res := ev.query(t, adminP, "SELECT predictions FROM ML.PREDICT(MODEL ds.m, (SELECT order_id FROM ds.orders))")
	if res.Batch.N != 4 || res.Batch.Column("predictions").Value(0).S != "label" {
		t.Fatalf("tvf result = %+v", res.Batch)
	}
	if _, err := ev.eng.Query(NewContext(adminP, "q"), "SELECT * FROM ML.PROCESS_DOCUMENT(MODEL ds.m, TABLE ds.orders)"); !errors.Is(err, ErrNoSuchFunc) {
		t.Fatalf("unregistered tvf: %v", err)
	}
}

func TestScalarFunctionDispatch(t *testing.T) {
	ev := newEnv(t, DefaultOptions())
	ev.createOrders(t, []string{"us"}, 1, 3, true)
	ev.eng.RegisterScalar("UPPER", func(ctx *QueryContext, args []*vector.Column) (*vector.Column, error) {
		in := args[0].Decode()
		out := make([]string, in.Len)
		for i := range out {
			out[i] = strings.ToUpper(in.Strs[i])
		}
		return vector.NewStringColumn(out), nil
	})
	res := ev.query(t, adminP, "SELECT UPPER(region) AS r FROM ds.orders LIMIT 1")
	if res.Batch.Column("r").Value(0).S != "US" {
		t.Fatalf("scalar = %v", res.Batch.Row(0))
	}
	if _, err := ev.eng.Query(NewContext(adminP, "q"), "SELECT NOSUCH(region) FROM ds.orders"); !errors.Is(err, ErrNoSuchFunc) {
		t.Fatalf("unknown func: %v", err)
	}
}

func TestDMLWithoutMutator(t *testing.T) {
	ev := newEnv(t, DefaultOptions())
	ev.createOrders(t, []string{"us"}, 1, 3, true)
	for _, sql := range []string{
		"INSERT INTO ds.orders VALUES (1, 1, 'us', 5.0)",
		"DELETE FROM ds.orders",
		"UPDATE ds.orders SET amount = 0",
		"CREATE TABLE ds.x AS SELECT 1",
	} {
		if _, err := ev.eng.Query(NewContext(adminP, "q"), sql); !errors.Is(err, ErrUnsupported) {
			t.Errorf("%q without mutator: %v", sql, err)
		}
	}
}

func TestSemanticErrors(t *testing.T) {
	ev := newEnv(t, DefaultOptions())
	ev.createOrders(t, []string{"us"}, 1, 3, true)
	for _, sql := range []string{
		"SELECT nope FROM ds.orders",
		"SELECT region FROM ds.orders WHERE amount",            // non-bool where
		"SELECT region, amount FROM ds.orders GROUP BY region", // amount not grouped
		"SELECT o.x FROM ds.orders AS o",
	} {
		if _, err := ev.eng.Query(NewContext(adminP, "q"), sql); err == nil {
			t.Errorf("%q should fail", sql)
		}
	}
	if _, err := ev.eng.Query(NewContext(adminP, "q"), "SELECT * FROM ds.ghost"); !errors.Is(err, catalog.ErrNotFound) {
		t.Fatalf("missing table: %v", err)
	}
}

func TestArithmeticAndConcat(t *testing.T) {
	ev := newEnv(t, DefaultOptions())
	res := ev.query(t, adminP, "SELECT 7 / 2 AS q, 7 - 2 * 3 AS r, 'a' + 'b' AS s, 1.5 + 1 AS f")
	row := res.Batch.Row(0)
	if row[0].AsFloat() != 3.5 || row[1].AsInt() != 1 || row[2].S != "ab" || row[3].AsFloat() != 2.5 {
		t.Fatalf("row = %v", row)
	}
}

func TestDivisionByZeroIsNull(t *testing.T) {
	ev := newEnv(t, DefaultOptions())
	res := ev.query(t, adminP, "SELECT 1 / 0 AS x")
	if !res.Batch.Column("x").Value(0).IsNull() {
		t.Fatal("1/0 should be NULL")
	}
}

func TestAggregateOfExpression(t *testing.T) {
	ev := newEnv(t, DefaultOptions())
	ev.createOrders(t, []string{"us"}, 1, 4, true) // amounts 0,1,2,3
	res := ev.query(t, adminP, "SELECT SUM(amount * 2) AS d FROM ds.orders")
	if res.Batch.Column("d").Value(0).AsFloat() != 12 {
		t.Fatalf("sum = %v", res.Batch.Row(0))
	}
}

func TestExternalTableReadable(t *testing.T) {
	// Legacy external tables: readable, but always on the slow path.
	ev := newEnv(t, DefaultOptions())
	bl := vector.NewBuilder(ordersSchema())
	bl.Append(vector.IntValue(1), vector.IntValue(1), vector.StringValue("us"), vector.FloatValue(9))
	file, _ := colfmt.WriteFile(bl.Build(), colfmt.WriterOptions{})
	ev.store.Put(ev.cred, "lake", "ext/f.blk", file, "")
	ev.cat.CreateTable(catalog.Table{
		Dataset: "ds", Name: "ext", Type: catalog.External, Schema: ordersSchema(),
		Cloud: "gcp", Bucket: "lake", Prefix: "ext/",
	})
	res := ev.query(t, adminP, "SELECT order_id FROM ds.ext")
	if res.Batch.N != 1 {
		t.Fatalf("rows = %d", res.Batch.N)
	}
	if res.Stats.ListCalls == 0 {
		t.Fatal("external tables always list")
	}
}

func TestScanParallelismBoundsSimTime(t *testing.T) {
	// 16 workers reading 32 one-file units should cost about 2 file
	// rounds of simulated time, not 32.
	ev := newEnv(t, DefaultOptions())
	ev.createOrders(t, []string{"us"}, 32, 10, true)
	ev.query(t, adminP, "SELECT COUNT(*) AS n FROM ds.orders") // warm cache
	res := ev.query(t, adminP, "SELECT COUNT(*) AS n FROM ds.orders")
	perFile := sim.GCP.GetFirstByte // dominated by first-byte latency
	if res.Stats.SimElapsed > 8*perFile {
		t.Fatalf("32-file scan took %v, want ~2 rounds of %v", res.Stats.SimElapsed, perFile)
	}
}

func TestQueryStatsTimed(t *testing.T) {
	ev := newEnv(t, DefaultOptions())
	ev.createOrders(t, []string{"us"}, 1, 5, true)
	res := ev.query(t, adminP, "SELECT * FROM ds.orders")
	if res.Stats.SimElapsed < 0 || res.Stats.RowsScanned != 5 {
		t.Fatalf("stats = %+v", res.Stats)
	}
	if res.Stats.BytesScanned == 0 {
		t.Fatal("bytes scanned not recorded")
	}
}

func TestTimestampPredicate(t *testing.T) {
	ev := newEnv(t, DefaultOptions())
	ev.store.Put(ev.cred, "lake", "o/a.jpg", []byte("x"), "image/jpeg")
	ev.clock.Advance(time.Hour)
	ev.store.Put(ev.cred, "lake", "o/b.jpg", []byte("y"), "image/jpeg")
	ev.cat.CreateTable(catalog.Table{
		Dataset: "ds", Name: "objs", Type: catalog.Object,
		Cloud: "gcp", Bucket: "lake", Prefix: "o/", Connection: "lake-conn", MetadataCaching: true,
	})
	cutoff := int64(30 * time.Minute)
	res := ev.query(t, adminP, fmt.Sprintf("SELECT uri FROM ds.objs WHERE create_time > %d", cutoff))
	if res.Batch.N != 1 || !strings.HasSuffix(res.Batch.Column("uri").Value(0).S, "b.jpg") {
		t.Fatalf("rows = %d", res.Batch.N)
	}
}

func TestStatementDispatch(t *testing.T) {
	ev := newEnv(t, DefaultOptions())
	if _, err := ev.eng.Query(NewContext(adminP, "q"), "SELECT FROM"); err == nil {
		t.Fatal("parse error should propagate")
	}
	stmt, _ := sqlparse.Parse("SELECT 1 AS one")
	res, err := ev.eng.Execute(NewContext(adminP, "q"), stmt)
	if err != nil || res.Batch.Column("one").Value(0).AsInt() != 1 {
		t.Fatalf("execute: %v", err)
	}
}

func TestInPredicateEndToEnd(t *testing.T) {
	ev := newEnv(t, DefaultOptions())
	ev.createOrders(t, []string{"us", "eu", "jp"}, 1, 10, true)
	res := ev.query(t, adminP, "SELECT COUNT(*) AS n FROM ds.orders WHERE region IN ('us', 'jp')")
	if res.Batch.Column("n").Value(0).AsInt() != 20 {
		t.Fatalf("IN count = %v", res.Batch.Row(0))
	}
	res = ev.query(t, adminP, "SELECT COUNT(*) AS n FROM ds.orders WHERE region NOT IN ('us', 'jp')")
	if res.Batch.Column("n").Value(0).AsInt() != 10 {
		t.Fatalf("NOT IN count = %v", res.Batch.Row(0))
	}
}

func TestBetweenPredicatePrunes(t *testing.T) {
	ev := newEnv(t, DefaultOptions())
	ev.createOrders(t, []string{"us"}, 10, 10, true)           // ids 0..99 across 10 files
	ev.query(t, adminP, "SELECT COUNT(*) AS n FROM ds.orders") // warm cache
	res := ev.query(t, adminP, "SELECT COUNT(*) AS n FROM ds.orders WHERE order_id BETWEEN 35 AND 44")
	if res.Batch.Column("n").Value(0).AsInt() != 10 {
		t.Fatalf("BETWEEN count = %v", res.Batch.Row(0))
	}
	// BETWEEN desugars to a pushdown range: only the matching file(s)
	// are scanned.
	if res.Stats.FilesScanned > 2 {
		t.Fatalf("BETWEEN scanned %d files, should prune to the id range", res.Stats.FilesScanned)
	}
}

func TestThreeWayJoin(t *testing.T) {
	ev := newEnv(t, DefaultOptions())
	ev.createOrders(t, []string{"us"}, 1, 10, true)
	mk := func(name string, n int, label string) {
		schema := vector.NewSchema(
			vector.Field{Name: "k", Type: vector.Int64},
			vector.Field{Name: "v", Type: vector.String},
		)
		bl := vector.NewBuilder(schema)
		for i := 0; i < n; i++ {
			bl.Append(vector.IntValue(int64(i)), vector.StringValue(fmt.Sprintf("%s%d", label, i)))
		}
		file, _ := colfmt.WriteFile(bl.Build(), colfmt.WriterOptions{})
		ev.store.Put(ev.cred, "lake", "managed/"+name+"/f.blk", file, "")
		ev.cat.CreateTable(catalog.Table{
			Dataset: "ds", Name: name, Type: catalog.Native, Schema: schema,
			Cloud: "gcp", Bucket: "lake", Prefix: "managed/" + name + "/",
		})
		ev.log.Commit("loader", map[string]bigmeta.TableDelta{
			"ds." + name: {Added: []bigmeta.FileEntry{{Bucket: "lake", Key: "managed/" + name + "/f.blk", RowCount: int64(n)}}},
		})
	}
	mk("d1", 5, "a")
	mk("d2", 3, "b")
	res := ev.query(t, adminP, `SELECT o.order_id, x.v, y.v
		FROM ds.orders AS o
		JOIN ds.d1 AS x ON o.customer_id = x.k
		JOIN ds.d2 AS y ON o.customer_id = y.k
		ORDER BY o.order_id`)
	if res.Batch.N != 3 { // customer_ids 0..9, limited by d2 (3 keys)
		t.Fatalf("rows = %d", res.Batch.N)
	}
	row := res.Batch.Row(0)
	if row[1].S != "a0" || row[2].S != "b0" {
		t.Fatalf("row = %v", row)
	}
}

func TestJoinThenGroupBy(t *testing.T) {
	ev := newEnv(t, DefaultOptions())
	ev.createOrders(t, []string{"us", "eu"}, 1, 20, true)
	schema := vector.NewSchema(
		vector.Field{Name: "k", Type: vector.Int64},
		vector.Field{Name: "tier", Type: vector.String},
	)
	bl := vector.NewBuilder(schema)
	for i := 0; i < 100; i++ {
		tier := "basic"
		if i%2 == 0 {
			tier = "gold"
		}
		bl.Append(vector.IntValue(int64(i)), vector.StringValue(tier))
	}
	file, _ := colfmt.WriteFile(bl.Build(), colfmt.WriterOptions{})
	ev.store.Put(ev.cred, "lake", "managed/tiers/f.blk", file, "")
	ev.cat.CreateTable(catalog.Table{
		Dataset: "ds", Name: "tiers", Type: catalog.Native, Schema: schema,
		Cloud: "gcp", Bucket: "lake", Prefix: "managed/tiers/",
	})
	ev.log.Commit("loader", map[string]bigmeta.TableDelta{
		"ds.tiers": {Added: []bigmeta.FileEntry{{Bucket: "lake", Key: "managed/tiers/f.blk", RowCount: 100}}},
	})
	res := ev.query(t, adminP, `SELECT t.tier, COUNT(*) AS n, SUM(o.amount) AS total
		FROM ds.orders AS o JOIN ds.tiers AS t ON o.customer_id = t.k
		GROUP BY t.tier ORDER BY t.tier`)
	if res.Batch.N != 2 {
		t.Fatalf("groups = %d", res.Batch.N)
	}
	if res.Batch.Row(0)[0].S != "basic" || res.Batch.Row(0)[1].AsInt() != 20 {
		t.Fatalf("basic group = %v", res.Batch.Row(0))
	}
}

func TestSubqueryFeedingAggregate(t *testing.T) {
	ev := newEnv(t, DefaultOptions())
	ev.createOrders(t, []string{"us"}, 1, 50, true)
	res := ev.query(t, adminP, `SELECT COUNT(*) AS n, AVG(a) AS avg_amount FROM
		(SELECT amount AS a FROM ds.orders WHERE order_id < 10) sub`)
	if res.Batch.Column("n").Value(0).AsInt() != 10 {
		t.Fatalf("n = %v", res.Batch.Row(0))
	}
	if res.Batch.Column("avg_amount").Value(0).AsFloat() != 4.5 {
		t.Fatalf("avg = %v", res.Batch.Row(0))
	}
}

func TestLimitZero(t *testing.T) {
	ev := newEnv(t, DefaultOptions())
	ev.createOrders(t, []string{"us"}, 1, 5, true)
	res := ev.query(t, adminP, "SELECT * FROM ds.orders LIMIT 0")
	if res.Batch.N != 0 {
		t.Fatalf("LIMIT 0 returned %d rows", res.Batch.N)
	}
}

func TestOrderByMultipleKeysWithNulls(t *testing.T) {
	ev := newEnv(t, DefaultOptions())
	res := ev.query(t, adminP, "SELECT 2 AS a, 1 AS b")
	_ = res
	// Real null ordering is covered through managed tables:
	ev.createOrders(t, []string{"us"}, 1, 4, true)
	res = ev.query(t, adminP, "SELECT region, order_id FROM ds.orders ORDER BY region DESC, order_id DESC LIMIT 2")
	if res.Batch.Row(0)[1].AsInt() != 3 || res.Batch.Row(1)[1].AsInt() != 2 {
		t.Fatalf("multi-key order = %v %v", res.Batch.Row(0), res.Batch.Row(1))
	}
}

func TestMetadataStalenessTriggersRefresh(t *testing.T) {
	ev := newEnv(t, DefaultOptions())
	ev.createOrders(t, []string{"us"}, 1, 10, true)
	// Install a staleness bound on the table.
	tab, _ := ev.cat.Table("ds.orders")
	tab.MetadataStaleness = time.Minute
	ev.cat.UpdateTable(tab)

	res := ev.query(t, adminP, "SELECT COUNT(*) AS n FROM ds.orders")
	if res.Batch.Column("n").Value(0).AsInt() != 10 {
		t.Fatal("initial count")
	}

	// A new file lands in the bucket. Within the staleness window the
	// cache serves the old inventory.
	bl := vector.NewBuilder(ordersSchema())
	bl.Append(vector.IntValue(999), vector.IntValue(1), vector.StringValue("us"), vector.FloatValue(1))
	file, _ := colfmt.WriteFile(bl.Build(), colfmt.WriterOptions{})
	ev.store.Put(ev.cred, "lake", "orders/region=us/late.blk", file, "")
	res = ev.query(t, adminP, "SELECT COUNT(*) AS n FROM ds.orders")
	if res.Batch.Column("n").Value(0).AsInt() != 10 {
		t.Fatalf("within staleness window count = %v, want stale 10", res.Batch.Row(0))
	}

	// Past the staleness bound the engine refreshes and sees the file.
	ev.clock.Advance(2 * time.Minute)
	res = ev.query(t, adminP, "SELECT COUNT(*) AS n FROM ds.orders")
	if res.Batch.Column("n").Value(0).AsInt() != 11 {
		t.Fatalf("post-staleness count = %v, want 11", res.Batch.Row(0))
	}
}
