package blmt

import (
	"errors"
	"strings"
	"testing"
	"time"

	"biglake/internal/bigmeta"
	"biglake/internal/catalog"
	"biglake/internal/engine"
	"biglake/internal/iceberg"
	"biglake/internal/objstore"
	"biglake/internal/obs"
	"biglake/internal/resilience"
	"biglake/internal/security"
	"biglake/internal/sim"
	"biglake/internal/vector"
)

const adminP = security.Principal("admin@corp")

type env struct {
	clock *sim.Clock
	store *objstore.Store
	cat   *catalog.Catalog
	auth  *security.Authority
	log   *bigmeta.Log
	mgr   *Manager
	eng   *engine.Engine
	cred  objstore.Credential
}

func newEnv(t *testing.T) *env {
	t.Helper()
	clock := sim.NewClock()
	store := objstore.New(sim.GCP, clock)
	cred := objstore.Credential{Principal: "sa@corp"}
	if err := store.CreateBucket(cred, "customer-bucket"); err != nil {
		t.Fatal(err)
	}
	cat := catalog.New()
	cat.CreateDataset(catalog.Dataset{Name: "ds", Region: "gcp-us", Cloud: "gcp"})
	auth := security.NewAuthority("secret", adminP)
	auth.RegisterConnection(adminP, security.Connection{Name: "conn", ServiceAccount: cred, Cloud: "gcp"})
	log := bigmeta.NewLog(clock)
	stores := map[string]*objstore.Store{"gcp": store}
	mgr := New(cat, auth, log, clock, stores)
	mgr.DefaultCloud, mgr.DefaultBucket, mgr.DefaultConnection = "gcp", "customer-bucket", "conn"
	meta := bigmeta.NewCache(clock)
	eng := engine.New(cat, auth, meta, log, clock, stores, engine.DefaultOptions())
	eng.ManagedCred = cred
	eng.SetMutator(mgr)
	return &env{clock: clock, store: store, cat: cat, auth: auth, log: log, mgr: mgr, eng: eng, cred: cred}
}

func eventsSchema() vector.Schema {
	return vector.NewSchema(
		vector.Field{Name: "id", Type: vector.Int64},
		vector.Field{Name: "kind", Type: vector.String},
		vector.Field{Name: "value", Type: vector.Float64},
	)
}

func (ev *env) createEvents(t *testing.T) {
	t.Helper()
	if err := ev.cat.CreateTable(catalog.Table{
		Dataset: "ds", Name: "events", Type: catalog.Managed, Schema: eventsSchema(),
		Cloud: "gcp", Bucket: "customer-bucket", Prefix: "blmt/ds/events/", Connection: "conn",
	}); err != nil {
		t.Fatal(err)
	}
}

func (ev *env) sql(t *testing.T, q string) *engine.Result {
	t.Helper()
	res, err := ev.eng.Query(engine.NewContext(adminP, "q"), q)
	if err != nil {
		t.Fatalf("Query(%q): %v", q, err)
	}
	return res
}

func TestInsertAndQuery(t *testing.T) {
	ev := newEnv(t)
	ev.createEvents(t)
	ev.sql(t, "INSERT INTO ds.events VALUES (1, 'click', 0.5), (2, 'view', 1.5)")
	res := ev.sql(t, "SELECT id, kind FROM ds.events ORDER BY id")
	if res.Batch.N != 2 || res.Batch.Row(0)[1].S != "click" {
		t.Fatalf("rows = %d %v", res.Batch.N, res.Batch.Row(0))
	}
	// Data files live on the customer bucket.
	if n := ev.store.ObjectCount("customer-bucket", "blmt/ds/events/data/"); n != 1 {
		t.Fatalf("data files = %d", n)
	}
}

func TestDeleteDML(t *testing.T) {
	ev := newEnv(t)
	ev.createEvents(t)
	ev.sql(t, "INSERT INTO ds.events VALUES (1, 'click', 0.5), (2, 'view', 1.5), (3, 'click', 2.5)")
	res := ev.sql(t, "DELETE FROM ds.events WHERE kind = 'click'")
	if res.Batch.Column("rows_deleted").Value(0).AsInt() != 2 {
		t.Fatalf("deleted = %v", res.Batch.Row(0))
	}
	rest := ev.sql(t, "SELECT id FROM ds.events")
	if rest.Batch.N != 1 || rest.Batch.Column("id").Value(0).AsInt() != 2 {
		t.Fatalf("rest = %d", rest.Batch.N)
	}
}

func TestDeleteNoMatchIsNoop(t *testing.T) {
	ev := newEnv(t)
	ev.createEvents(t)
	ev.sql(t, "INSERT INTO ds.events VALUES (1, 'click', 0.5)")
	before := ev.log.Version()
	res := ev.sql(t, "DELETE FROM ds.events WHERE id = 999")
	if res.Batch.Column("rows_deleted").Value(0).AsInt() != 0 {
		t.Fatal("deleted should be 0")
	}
	if ev.log.Version() != before {
		t.Fatal("no-op delete must not commit")
	}
}

func TestUpdateDML(t *testing.T) {
	ev := newEnv(t)
	ev.createEvents(t)
	ev.sql(t, "INSERT INTO ds.events VALUES (1, 'click', 0.5), (2, 'view', 1.5)")
	res := ev.sql(t, "UPDATE ds.events SET value = value * 10 WHERE kind = 'click'")
	if res.Batch.Column("rows_updated").Value(0).AsInt() != 1 {
		t.Fatalf("updated = %v", res.Batch.Row(0))
	}
	check := ev.sql(t, "SELECT value FROM ds.events ORDER BY id")
	if check.Batch.Column("value").Value(0).AsFloat() != 5.0 {
		t.Fatalf("updated value = %v", check.Batch.Row(0))
	}
	if check.Batch.Column("value").Value(1).AsFloat() != 1.5 {
		t.Fatal("unmatched row changed")
	}
}

func TestCreateTableAs(t *testing.T) {
	ev := newEnv(t)
	ev.createEvents(t)
	ev.sql(t, "INSERT INTO ds.events VALUES (1, 'click', 0.5), (2, 'view', 1.5)")
	ev.sql(t, "CREATE TABLE ds.clicks AS SELECT id, value FROM ds.events WHERE kind = 'click'")
	res := ev.sql(t, "SELECT * FROM ds.clicks")
	if res.Batch.N != 1 || res.Batch.Column("id").Value(0).AsInt() != 1 {
		t.Fatalf("ctas rows = %d", res.Batch.N)
	}
	// Plain CREATE on an existing table fails; OR REPLACE succeeds.
	if _, err := ev.eng.Query(engine.NewContext(adminP, "q"), "CREATE TABLE ds.clicks AS SELECT 1 AS one"); !errors.Is(err, catalog.ErrAlreadyExists) {
		t.Fatalf("dup ctas: %v", err)
	}
	ev.sql(t, "CREATE OR REPLACE TABLE ds.clicks AS SELECT 42 AS answer")
	res = ev.sql(t, "SELECT answer FROM ds.clicks")
	if res.Batch.Column("answer").Value(0).AsInt() != 42 {
		t.Fatal("replace lost")
	}
}

func TestDMLRequiresManagedTable(t *testing.T) {
	ev := newEnv(t)
	ev.cat.CreateTable(catalog.Table{
		Dataset: "ds", Name: "ext", Type: catalog.BigLake, Schema: eventsSchema(),
		Cloud: "gcp", Bucket: "customer-bucket", Prefix: "ext/", Connection: "conn",
	})
	_, err := ev.eng.Query(engine.NewContext(adminP, "q"), "DELETE FROM ds.ext")
	if !errors.Is(err, ErrNotManaged) {
		t.Fatalf("err = %v", err)
	}
}

func TestInsertSchemaMismatch(t *testing.T) {
	ev := newEnv(t)
	ev.createEvents(t)
	// Wrong type for kind.
	_, err := ev.eng.Query(engine.NewContext(adminP, "q"), "INSERT INTO ds.events (id, kind) VALUES (1, 2)")
	if err == nil {
		t.Fatal("type mismatch should fail")
	}
	// Partial column list: missing columns become NULL.
	ev.sql(t, "INSERT INTO ds.events (id, kind) VALUES (7, 'x')")
	res := ev.sql(t, "SELECT value FROM ds.events")
	if !res.Batch.Column("value").Value(0).IsNull() {
		t.Fatal("missing column should be NULL")
	}
}

func TestOptimizeCoalescesSmallFiles(t *testing.T) {
	ev := newEnv(t)
	ev.createEvents(t)
	// Many small inserts -> many small files.
	for i := 0; i < 10; i++ {
		ev.sql(t, "INSERT INTO ds.events VALUES (1, 'k', 1.0)")
	}
	files, _, _ := ev.log.Snapshot("ds.events", -1)
	if len(files) != 10 {
		t.Fatalf("files before = %d", len(files))
	}
	rep, err := ev.mgr.Optimize(string(adminP), "ds.events", "")
	if err != nil {
		t.Fatal(err)
	}
	if rep.FilesAfter >= rep.FilesBefore || rep.FilesAfter != 1 {
		t.Fatalf("report = %+v", rep)
	}
	res := ev.sql(t, "SELECT COUNT(*) AS n FROM ds.events")
	if res.Batch.Column("n").Value(0).AsInt() != 10 {
		t.Fatal("optimize lost rows")
	}
}

func TestOptimizeRecluster(t *testing.T) {
	ev := newEnv(t)
	ev.createEvents(t)
	ev.sql(t, "INSERT INTO ds.events VALUES (3, 'c', 1.0), (1, 'a', 1.0)")
	ev.sql(t, "INSERT INTO ds.events VALUES (2, 'b', 1.0)")
	rep, err := ev.mgr.Optimize(string(adminP), "ds.events", "id")
	if err != nil || !rep.Reclustered {
		t.Fatalf("recluster: %+v %v", rep, err)
	}
	res := ev.sql(t, "SELECT id FROM ds.events")
	// After clustering, rows come back id-sorted even without ORDER BY.
	for i := 0; i < res.Batch.N; i++ {
		if res.Batch.Column("id").Value(i).AsInt() != int64(i+1) {
			t.Fatalf("row %d = %v (not clustered)", i, res.Batch.Row(i))
		}
	}
}

func TestGarbageCollect(t *testing.T) {
	ev := newEnv(t)
	ev.createEvents(t)
	ev.sql(t, "INSERT INTO ds.events VALUES (1, 'a', 1.0)")
	ev.sql(t, "INSERT INTO ds.events VALUES (2, 'b', 1.0)")
	// DELETE rewrites files, leaving the old objects as garbage.
	ev.sql(t, "DELETE FROM ds.events WHERE id = 1")
	objects := ev.store.ObjectCount("customer-bucket", "blmt/ds/events/data/")
	live, _, _ := ev.log.Snapshot("ds.events", -1)
	if objects <= len(live) {
		t.Fatalf("expected garbage: %d objects, %d live", objects, len(live))
	}
	// Too-young garbage is kept.
	n, err := ev.mgr.GarbageCollect("ds.events", time.Hour)
	if err != nil || n != 0 {
		t.Fatalf("young gc: %d %v", n, err)
	}
	ev.clock.Advance(2 * time.Hour)
	n, err = ev.mgr.GarbageCollect("ds.events", time.Hour)
	if err != nil || n == 0 {
		t.Fatalf("gc: %d %v", n, err)
	}
	if got := ev.store.ObjectCount("customer-bucket", "blmt/ds/events/data/"); got != len(live) {
		t.Fatalf("after gc: %d objects, want %d", got, len(live))
	}
	// Queries still work.
	res := ev.sql(t, "SELECT COUNT(*) AS n FROM ds.events")
	if res.Batch.Column("n").Value(0).AsInt() != 1 {
		t.Fatal("gc broke the table")
	}
}

func TestIcebergExportRoundTrip(t *testing.T) {
	ev := newEnv(t)
	ev.createEvents(t)
	ev.sql(t, "INSERT INTO ds.events VALUES (1, 'a', 1.0), (2, 'b', 2.0)")
	ev.sql(t, "INSERT INTO ds.events VALUES (3, 'c', 3.0)")
	metaKey, err := ev.mgr.ExportIceberg("ds.events")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(metaKey, "metadata.json") {
		t.Fatalf("metaKey = %q", metaKey)
	}
	// An external engine reads the snapshot directly from storage.
	files, schema, err := iceberg.ReadTable(ev.store, ev.cred, "customer-bucket", metaKey)
	if err != nil {
		t.Fatal(err)
	}
	fc, rc := iceberg.Stats(files)
	if fc != 2 || rc != 3 {
		t.Fatalf("snapshot stats = %d files %d rows", fc, rc)
	}
	if schema.Index("kind") < 0 {
		t.Fatalf("schema = %v", schema)
	}
	if files[0].LowerBounds["id"] == "" {
		t.Fatal("bounds missing from manifest")
	}
	// version-hint discovery.
	hint, err := iceberg.LatestMetadataKey(ev.store, ev.cred, "customer-bucket", "blmt/ds/events/")
	if err != nil || hint != metaKey {
		t.Fatalf("hint = %q, %v", hint, err)
	}
}

func TestAutoIcebergOnCommit(t *testing.T) {
	ev := newEnv(t)
	ev.createEvents(t)
	ev.mgr.AutoIceberg = true
	ev.sql(t, "INSERT INTO ds.events VALUES (1, 'a', 1.0)")
	if n := ev.store.ObjectCount("customer-bucket", "blmt/ds/events/metadata/"); n == 0 {
		t.Fatal("auto iceberg export did not run")
	}
}

func TestSnapshotTimeTravelAfterDML(t *testing.T) {
	ev := newEnv(t)
	ev.createEvents(t)
	ev.sql(t, "INSERT INTO ds.events VALUES (1, 'a', 1.0), (2, 'b', 2.0)")
	v1 := ev.log.Version()
	ev.sql(t, "DELETE FROM ds.events WHERE id = 1")
	old, _, err := ev.log.Snapshot("ds.events", v1)
	if err != nil {
		t.Fatal(err)
	}
	var oldRows int64
	for _, f := range old {
		oldRows += f.RowCount
	}
	if oldRows != 2 {
		t.Fatalf("snapshot@v1 rows = %d", oldRows)
	}
}

func TestTamperProofHistory(t *testing.T) {
	ev := newEnv(t)
	ev.createEvents(t)
	ev.sql(t, "INSERT INTO ds.events VALUES (1, 'a', 1.0)")
	ev.sql(t, "DELETE FROM ds.events WHERE id = 1")
	hist := ev.log.History("ds.events")
	if len(hist) != 2 {
		t.Fatalf("history = %d", len(hist))
	}
	if hist[0].Principal != string(adminP) {
		t.Fatalf("audit principal = %q", hist[0].Principal)
	}
	// Versions are strictly increasing.
	if hist[1].Version <= hist[0].Version {
		t.Fatal("versions not monotonic")
	}
}

func TestCommitThroughputExceedsIcebergOnObjectStore(t *testing.T) {
	// The §3.5 comparison at test scale: 20 BLMT inserts vs 20
	// store-committed snapshots of an Iceberg-style table.
	ev := newEnv(t)
	ev.createEvents(t)
	start := ev.clock.Now()
	for i := 0; i < 20; i++ {
		ev.sql(t, "INSERT INTO ds.events VALUES (1, 'a', 1.0)")
	}
	blmtTime := ev.clock.Now() - start

	// Iceberg-on-object-store: each commit must CAS the metadata
	// pointer object.
	gen := int64(0)
	start = ev.clock.Now()
	for i := 0; i < 20; i++ {
		info, err := ev.store.PutIfGeneration(ev.cred, "customer-bucket", "iceberg-table/metadata.json", []byte("snap"), "", gen)
		if err != nil {
			t.Fatal(err)
		}
		gen = info.Generation
	}
	storeTime := ev.clock.Now() - start
	if blmtTime*2 >= storeTime {
		t.Fatalf("BLMT commits %v should be well under store-committed %v", blmtTime, storeTime)
	}
}

func TestFailedInsertLeavesNoPartialState(t *testing.T) {
	ev := newEnv(t)
	ev.mgr.Res = resilience.NoRetry() // surface the raw fault
	ev.createEvents(t)
	ev.sql(t, "INSERT INTO ds.events VALUES (1, 'a', 1.0)")
	versionBefore := ev.log.Version()

	ev.store.FailNext(1) // the data-file PUT fails
	if _, err := ev.eng.Query(engine.NewContext(adminP, "q"),
		"INSERT INTO ds.events VALUES (2, 'b', 2.0)"); !errors.Is(err, objstore.ErrTransient) {
		t.Fatalf("err = %v", err)
	}
	if ev.log.Version() != versionBefore {
		t.Fatal("failed insert must not commit")
	}
	res := ev.sql(t, "SELECT COUNT(*) AS n FROM ds.events")
	if res.Batch.Column("n").Value(0).AsInt() != 1 {
		t.Fatal("table corrupted by failed insert")
	}
	// Retry succeeds.
	ev.sql(t, "INSERT INTO ds.events VALUES (2, 'b', 2.0)")
	res = ev.sql(t, "SELECT COUNT(*) AS n FROM ds.events")
	if res.Batch.Column("n").Value(0).AsInt() != 2 {
		t.Fatal("retry failed")
	}
}

func TestFailedDeleteLeavesTableReadable(t *testing.T) {
	ev := newEnv(t)
	ev.mgr.Res = resilience.NoRetry() // surface the raw fault
	ev.createEvents(t)
	ev.sql(t, "INSERT INTO ds.events VALUES (1, 'a', 1.0), (2, 'b', 2.0)")
	ev.store.FailNext(1) // reading the file back fails mid-rewrite
	if _, err := ev.eng.Query(engine.NewContext(adminP, "q"), "DELETE FROM ds.events WHERE id = 1"); !errors.Is(err, objstore.ErrTransient) {
		t.Fatalf("err = %v", err)
	}
	res := ev.sql(t, "SELECT COUNT(*) AS n FROM ds.events")
	if res.Batch.Column("n").Value(0).AsInt() != 2 {
		t.Fatal("failed delete mutated the table")
	}
}

func TestRetriesAbsorbTransientInsertFault(t *testing.T) {
	// Under the default policy the same single PUT fault never reaches
	// the caller: the write retries and commits.
	ev := newEnv(t)
	ev.createEvents(t)
	// The log is wired after the manager was built over it: the manager
	// owns no registry, so the retry still lands in the log's.
	reg := obs.NewRegistry()
	ev.log.UseObs(reg)
	ev.store.FailNext(1)
	ev.sql(t, "INSERT INTO ds.events VALUES (1, 'a', 1.0)")
	res := ev.sql(t, "SELECT COUNT(*) AS n FROM ds.events")
	if res.Batch.Column("n").Value(0).AsInt() != 1 {
		t.Fatal("insert did not survive the transient fault")
	}
	if reg.Get("resilience.retries") == 0 {
		t.Fatal("expected a counted retry")
	}
}

// TestDMLLeavesAliasedScanCacheIntact: with the scan cache on, a query
// whose filters select every row returns the cached decode's own
// arrays (vector.FilterWith hands back its input). The copy-on-write
// rewrites that follow must leave those arrays alone: the result
// already handed out, and the cache entry behind it, stay byte for
// byte what they were.
func TestDMLLeavesAliasedScanCacheIntact(t *testing.T) {
	ev := newEnv(t)
	opts := engine.DefaultOptions()
	opts.EnableScanCache = true
	ev.eng = engine.New(ev.cat, ev.auth, bigmeta.NewCache(ev.clock), ev.log, ev.clock,
		map[string]*objstore.Store{"gcp": ev.store}, opts)
	ev.eng.ManagedCred = ev.cred
	ev.eng.SetMutator(ev.mgr)
	ev.createEvents(t)
	ev.sql(t, "INSERT INTO ds.events VALUES (1, 'click', 0.5), (2, 'view', 1.5), (3, 'click', 2.5)")

	const allPass = "SELECT * FROM ds.events WHERE id >= 0"
	ev.sql(t, allPass) // decodes and caches the file
	held := ev.sql(t, allPass)
	if held.Stats.CacheHits != 1 || held.Batch.N != 3 {
		t.Fatalf("warm run: hits=%d rows=%d", held.Stats.CacheHits, held.Batch.N)
	}
	before := vector.EncodeBatch(held.Batch, true)

	ev.sql(t, "UPDATE ds.events SET value = value * 10 WHERE id >= 0")
	ev.sql(t, "DELETE FROM ds.events WHERE id = 2")
	if string(vector.EncodeBatch(held.Batch, true)) != string(before) {
		t.Fatal("DML wrote through a batch that aliases the scan cache")
	}
	after := ev.sql(t, "SELECT id, value FROM ds.events WHERE id >= 0 ORDER BY id")
	if after.Batch.N != 2 || after.Batch.Row(0)[1].F != 5 || after.Batch.Row(1)[1].F != 25 {
		t.Fatalf("after DML: %v %v", after.Batch.Row(0), after.Batch.Row(1))
	}
}
