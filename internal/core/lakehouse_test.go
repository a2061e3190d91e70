package core

import (
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"biglake/internal/bigmeta"
	"biglake/internal/catalog"
	"biglake/internal/colfmt"
	"biglake/internal/crashpoint"
	"biglake/internal/engine"
	"biglake/internal/integrity"
	"biglake/internal/objstore"
	"biglake/internal/security"
	"biglake/internal/sim"
	"biglake/internal/storageapi"
	"biglake/internal/vector"
	"biglake/internal/wal"
)

const admin = security.Principal("admin@test")

func newLH(t *testing.T) *Lakehouse {
	t.Helper()
	lh, err := New(Options{Admin: admin})
	if err != nil {
		t.Fatal(err)
	}
	return lh
}

func TestNewDefaults(t *testing.T) {
	lh, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if lh.Cloud() != "gcp" || lh.Admin != "admin@biglake" {
		t.Fatalf("defaults: cloud=%q admin=%q", lh.Cloud(), lh.Admin)
	}
	// The default connection exists and managed storage is provisioned.
	if _, err := lh.Auth.Connection(lh.DefaultConnection()); err != nil {
		t.Fatal(err)
	}
	if _, err := lh.Catalog.Dataset("_system"); err != nil {
		t.Fatal(err)
	}
}

func TestNewOnForeignCloud(t *testing.T) {
	lh, err := New(Options{Cloud: "aws", Admin: admin})
	if err != nil {
		t.Fatal(err)
	}
	if lh.Cloud() != "aws" || lh.Store.Profile().Name != "aws" {
		t.Fatalf("cloud = %q profile = %q", lh.Cloud(), lh.Store.Profile().Name)
	}
}

func TestCreateDatasetUsesDeploymentRegion(t *testing.T) {
	lh, err := New(Options{Region: "gcp-eu", Admin: admin})
	if err != nil {
		t.Fatal(err)
	}
	if err := lh.CreateDataset("d"); err != nil {
		t.Fatal(err)
	}
	if err := lh.CreateManagedTable(admin, "d", "t", simpleSchema(), "bq-managed"); err != nil {
		t.Fatal(err)
	}
	if region, err := lh.Catalog.RegionOf("d.t"); err != nil || region != "gcp-eu" {
		t.Fatalf("RegionOf(d.t) = %q, %v; want gcp-eu", region, err)
	}
}

// TestControlPlaneDeploysSiblings: lakehouses deployed on one control
// plane share its catalog, IAM and registry, and one naming rule keeps
// their connections and service accounts apart.
func TestControlPlaneDeploysSiblings(t *testing.T) {
	cp := NewControlPlane(sim.NewClock(), "secret", admin)
	us, err := cp.Deploy(Options{Region: "gcp-us", Admin: admin})
	if err != nil {
		t.Fatal(err)
	}
	aws, err := cp.Deploy(Options{Cloud: "aws", Region: "aws-us-east-1", Admin: admin})
	if err != nil {
		t.Fatal(err)
	}
	if us.DefaultConnection() == aws.DefaultConnection() || us.ServiceAccount().Principal == aws.ServiceAccount().Principal {
		t.Fatalf("siblings share a connection or service account: %q %q", us.DefaultConnection(), aws.DefaultConnection())
	}
	if us.Catalog != aws.Catalog || us.Auth != aws.Auth || us.Engine.Obs != aws.Engine.Obs || us.Engine.Obs != cp.Obs {
		t.Fatal("siblings do not share the control plane")
	}
	if us.Store == aws.Store || us.Log == aws.Log {
		t.Fatal("siblings share a data plane")
	}
	managedT(t, aws)
	if region, err := aws.Catalog.RegionOf("d.t"); err != nil || region != "aws-us-east-1" {
		t.Fatalf("RegionOf(d.t) = %q, %v", region, err)
	}
	if files, _, _ := us.Log.Snapshot("d.t", -1); len(files) != 0 {
		t.Fatal("a sibling's commit landed in another region's log")
	}
	if _, err := aws.Recover(); err != nil {
		t.Fatal(err)
	}
	if got := ids(t, aws); !slices.Equal(got, []int64{1}) {
		t.Fatalf("after the sibling's restart: ids %v", got)
	}
}

func TestCreateConnectionGrantsBucketAccess(t *testing.T) {
	lh := newLH(t)
	if err := lh.CreateBucket("b1"); err != nil {
		t.Fatal(err)
	}
	conn, err := lh.CreateConnection("c1", "b1")
	if err != nil {
		t.Fatal(err)
	}
	if err := lh.Upload("b1", "k", []byte("v"), ""); err != nil {
		t.Fatal(err)
	}
	if _, _, err := lh.Store.Get(conn.ServiceAccount, "b1", "k"); err != nil {
		t.Fatalf("connection SA read: %v", err)
	}
	// A different connection's SA has no access.
	other, _ := lh.CreateConnection("c2")
	if _, _, err := lh.Store.Get(other.ServiceAccount, "b1", "k"); !errors.Is(err, objstore.ErrAccessDenied) {
		t.Fatalf("ungranted SA read: %v", err)
	}
}

func TestCreateTableHelpersSetTypes(t *testing.T) {
	lh := newLH(t)
	lh.CreateDataset("d")
	lh.CreateBucket("b")
	lh.CreateConnection("c", "b")
	schema := simpleSchema()
	if err := lh.CreateBigLakeTable(admin, BigLakeTableSpec{
		Dataset: "d", Name: "bl", Schema: schema, Bucket: "b", Prefix: "bl/",
		Connection: "c", MetadataCaching: true, MetadataStaleness: time.Minute,
	}); err != nil {
		t.Fatal(err)
	}
	if err := lh.CreateManagedTable(admin, "d", "m", schema, "bq-managed"); err != nil {
		t.Fatal(err)
	}
	if err := lh.CreateObjectTable(admin, "d", "o", "b", "objs/"); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]catalog.TableType{
		"d.bl": catalog.BigLake, "d.m": catalog.Managed, "d.o": catalog.Object,
	} {
		tab, err := lh.Catalog.Table(name)
		if err != nil || tab.Type != want {
			t.Fatalf("%s type = %v, %v", name, tab.Type, err)
		}
	}
	tab, _ := lh.Catalog.Table("d.bl")
	if tab.MetadataStaleness != time.Minute {
		t.Fatal("staleness lost")
	}
}

func TestQuerySequencesIDs(t *testing.T) {
	lh := newLH(t)
	if _, err := lh.Query(admin, "SELECT 1 AS one"); err != nil {
		t.Fatal(err)
	}
	if _, err := lh.Query(admin, "SELECT 2 AS two"); err != nil {
		t.Fatal(err)
	}
	if lh.Now() < 0 {
		t.Fatal("clock")
	}
}

// TestQueryDMLReportsElapsed: Lakehouse.Query returns a DML result
// with the statement's final stats, timed like its system.jobs row.
func TestQueryDMLReportsElapsed(t *testing.T) {
	lh := newLH(t)
	if err := lh.CreateDataset("d"); err != nil {
		t.Fatal(err)
	}
	if err := lh.CreateBucket("data"); err != nil {
		t.Fatal(err)
	}
	if err := lh.CreateManagedTable(admin, "d", "t", simpleSchema(), "data"); err != nil {
		t.Fatal(err)
	}
	res, err := lh.Query(admin, "INSERT INTO d.t VALUES (1), (2)")
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SimElapsed <= 0 {
		t.Fatalf("INSERT result SimElapsed = %v, want > 0", res.Stats.SimElapsed)
	}
	jobs := lh.Engine.Sys.Jobs()
	if last := jobs[len(jobs)-1]; last.Kind != "insert" || last.ExecSim != res.Stats.SimElapsed {
		t.Fatalf("last job %s %s exec %v, want the insert timed %v", last.QueryID, last.Kind, last.ExecSim, res.Stats.SimElapsed)
	}
}

func TestRefreshMetadataCacheErrors(t *testing.T) {
	lh := newLH(t)
	if _, err := lh.RefreshMetadataCache("ghost.t"); !errors.Is(err, catalog.ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func simpleSchema() vector.Schema {
	return vector.NewSchema(vector.Field{Name: "id", Type: vector.Int64})
}

// TestQueryInteractiveTransaction drives the shell's transaction
// surface: BEGIN routes the principal's statements into a session
// (buffered writes visible inside, invisible to other principals),
// COMMIT seals and the session closes; a lone COMMIT is an error.
func TestQueryInteractiveTransaction(t *testing.T) {
	lh := newLH(t)
	if err := lh.CreateDataset("d"); err != nil {
		t.Fatal(err)
	}
	if err := lh.CreateBucket("data"); err != nil {
		t.Fatal(err)
	}
	schema := vector.NewSchema(
		vector.Field{Name: "id", Type: vector.Int64},
		vector.Field{Name: "v", Type: vector.Int64},
	)
	if err := lh.CreateManagedTable(admin, "d", "t", schema, "data"); err != nil {
		t.Fatal(err)
	}
	other := security.Principal("other@test")
	if err := lh.Auth.GrantTable(admin, "d.t", other, security.RoleViewer); err != nil {
		t.Fatal(err)
	}

	if _, err := lh.Query(admin, "BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := lh.Query(admin, "INSERT INTO d.t VALUES (1, 10)"); err != nil {
		t.Fatal(err)
	}
	count := func(p security.Principal) int {
		res, err := lh.Query(p, "SELECT id FROM d.t")
		if err != nil {
			t.Fatal(err)
		}
		return res.Batch.N
	}
	if got := count(admin); got != 1 {
		t.Fatalf("inside txn: %d rows, want 1 (read-your-writes)", got)
	}
	if got := count(other); got != 0 {
		t.Fatalf("other principal saw %d uncommitted rows", got)
	}
	res, err := lh.Query(admin, "COMMIT")
	if err != nil {
		t.Fatal(err)
	}
	if res.Batch.Schema.Fields[0].Name != "commit_version" {
		t.Fatalf("commit result schema: %v", res.Batch.Schema.Fields)
	}
	if got := count(other); got != 1 {
		t.Fatalf("after commit: other sees %d rows, want 1", got)
	}
	// The session is closed: the next statement runs autocommit, and a
	// bare COMMIT is a transaction-control error again.
	if _, err := lh.Query(admin, "COMMIT"); err == nil {
		t.Fatal("bare COMMIT outside a session succeeded")
	}
	// ROLLBACK path: buffered delete discarded.
	if _, err := lh.Query(admin, "BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := lh.Query(admin, "DELETE FROM d.t WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	if _, err := lh.Query(admin, "ROLLBACK"); err != nil {
		t.Fatal(err)
	}
	if got := count(admin); got != 1 {
		t.Fatalf("after rollback: %d rows, want 1", got)
	}
}

// TestWriteAPIFlushDeclaresIntent: in the production assembly a Write
// API flush runs the log's commit protocol like every other committer,
// so a flush that dies before its data PUT has already declared its key
// in a journal intent and recovery lists it for orphan GC.
func TestWriteAPIFlushDeclaresIntent(t *testing.T) {
	lh := newLH(t)
	lh.CreateDataset("d")
	if err := lh.CreateManagedTable(admin, "d", "events", simpleSchema(), "bq-managed"); err != nil {
		t.Fatal(err)
	}
	id, err := lh.StorageAPI.CreateWriteStream(string(admin), "d.events", storageapi.CommittedMode)
	if err != nil {
		t.Fatal(err)
	}
	lh.Log.Crash = crashpoint.New()
	lh.Log.Crash.Arm("commit.before_put", 0)
	rows := vector.MustBatch(simpleSchema(), []*vector.Column{vector.NewInt64Column([]int64{1, 2, 3})})
	sig, err := crashpoint.Run(func() error {
		_, e := lh.StorageAPI.AppendRows(id, 0, rows)
		return e
	})
	if err != nil || sig == nil || sig.Label != "commit.before_put" {
		t.Fatalf("crash did not fire before the PUT: sig=%v err=%v", sig, err)
	}

	rep, err := lh.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.UnsealedIntents; len(got) != 1 || got[0] != id+":f0" {
		t.Fatalf("unsealed intents = %v, want the crashed flush %q", got, id+":f0")
	}
	wantKey := "blmt/d/events/data/writeStreams-1-f000000.blk"
	if got := rep.OrphanCandidates; len(got) != 1 || got[0] != wantKey {
		t.Fatalf("orphan candidates = %v, want [%s]", got, wantKey)
	}
	if lh.Log.Version() != 0 {
		t.Fatalf("recovered version %d, want 0 (nothing sealed)", lh.Log.Version())
	}
}

// ids reads column id of d.t through the engine, sorted.
func ids(t *testing.T, lh *Lakehouse) []int64 {
	t.Helper()
	res, err := lh.Query(admin, "SELECT id FROM d.t ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	return columnInts(res.Batch)
}

func columnInts(b *vector.Batch) []int64 {
	out := make([]int64, b.N)
	for i := range out {
		out[i] = b.Column("id").Value(i).I
	}
	return out
}

func int64Rows(vals ...int64) *vector.Batch {
	return vector.MustBatch(simpleSchema(), []*vector.Column{vector.NewInt64Column(vals)})
}

// crash runs op with label armed for its first hit and requires the
// process to die there.
func crash(t *testing.T, lh *Lakehouse, label string, op func() error) {
	t.Helper()
	lh.Log.Crash = crashpoint.New()
	lh.Log.Crash.Arm(label, 0)
	sig, err := crashpoint.Run(op)
	if err != nil || sig == nil || sig.Label != label {
		t.Fatalf("crash at %s did not fire: sig=%v err=%v", label, sig, err)
	}
}

// TestRecoverRewiresEveryService: a process dies mid Write API flush,
// restarts, dies again mid autocommit INSERT, restarts again. After
// each Recover the deployment answers from the sealed state alone, on
// every surface — engine, Read API, Write API, transactions — and still
// counts into one registry.
func TestRecoverRewiresEveryService(t *testing.T) {
	lh := newLH(t)
	managedT(t, lh) // sealed: id 1
	stream, err := lh.StorageAPI.CreateWriteStream(string(admin), "d.t", storageapi.CommittedMode)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lh.StorageAPI.AppendRows(stream, 0, int64Rows(2, 3)); err != nil {
		t.Fatal(err)
	}
	crash(t, lh, "commit.before_put", func() error {
		_, err := lh.StorageAPI.AppendRows(stream, 2, int64Rows(4, 5))
		return err
	})
	if _, err := lh.Recover(); err != nil {
		t.Fatal(err)
	}
	crash(t, lh, "commit.after_put", func() error {
		_, err := lh.Query(admin, "INSERT INTO d.t VALUES (6)")
		return err
	})
	if _, err := lh.Recover(); err != nil {
		t.Fatal(err)
	}

	if got := ids(t, lh); !slices.Equal(got, []int64{1, 2, 3}) {
		t.Fatalf("query after recovery: ids %v, want the sealed [1 2 3]", got)
	}
	sess, err := lh.StorageAPI.CreateReadSession(storageapi.ReadSessionRequest{Table: "d.t", Principal: admin, SnapshotVersion: -1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := lh.StorageAPI.ReadAll(sess)
	if err != nil {
		t.Fatal(err)
	}
	got := columnInts(b)
	if slices.Sort(got); !slices.Equal(got, []int64{1, 2, 3}) {
		t.Fatalf("Read API after recovery: ids %v, want the sealed [1 2 3]", got)
	}
	if next, err := lh.StorageAPI.AppendRows(stream, 0, int64Rows(2, 3)); !errors.Is(err, storageapi.ErrOffsetExists) || next != 2 {
		t.Fatalf("restored stream: resend at 0 = (%d, %v), want ErrOffsetExists at sealed offset 2", next, err)
	}
	if _, err := lh.StorageAPI.AppendRows(stream, 2, int64Rows(4, 5)); err != nil {
		t.Fatalf("restored stream did not resume at its sealed offset: %v", err)
	}
	for _, sql := range []string{"BEGIN", "INSERT INTO d.t VALUES (6)", "COMMIT"} {
		if _, err := lh.Query(admin, sql); err != nil {
			t.Fatalf("%s after recovery: %v", sql, err)
		}
	}
	if got := ids(t, lh); !slices.Equal(got, []int64{1, 2, 3, 4, 5, 6}) {
		t.Fatalf("after resuming: ids %v, want [1 .. 6]", got)
	}

	if lh.Store.Obs() != lh.Engine.Obs || lh.Log.Obs() != lh.Engine.Obs {
		t.Fatal("after recovery the store or the log counts into a registry other than the engine's")
	}
	counters := systemCounters(t, lh)
	for _, prefix := range []string{"objstore.", "bigmeta.", "storageapi.", "engine.", "txn.", "wal."} {
		if !hasPrefix(counters, prefix) {
			t.Errorf("system.metrics has no %s* counter after recovery", prefix)
		}
	}
}

// TestNewEngineSharesDeployment: a second engine writes and reads the
// deployment's tables and counts into its registry, but its scan cache
// is its own.
func TestNewEngineSharesDeployment(t *testing.T) {
	lh := newLH(t)
	managedT(t, lh)
	opts := engine.DefaultOptions()
	opts.EnableScanCache = true
	other := lh.NewEngine(opts)
	if _, err := other.Query(engine.NewContext(admin, "other-ins"), "INSERT INTO d.t VALUES (2)"); err != nil {
		t.Fatal(err)
	}
	if got := ids(t, lh); !slices.Equal(got, []int64{1, 2}) {
		t.Fatalf("lh.Engine sees ids %v after an insert through NewEngine, want [1 2]", got)
	}
	if _, err := lh.Query(admin, "INSERT INTO d.t VALUES (3)"); err != nil {
		t.Fatal(err)
	}
	res, err := other.Query(engine.NewContext(admin, "other-read"), "SELECT id FROM d.t")
	if err != nil {
		t.Fatal(err)
	}
	if res.Batch.N != 3 {
		t.Fatalf("NewEngine sees %d rows after an insert through lh.Engine, want 3", res.Batch.N)
	}
	if other.Obs != lh.Engine.Obs {
		t.Fatal("NewEngine counts into a registry of its own")
	}
	if got := lh.Engine.Obs.Get("engine.queries"); got < 5 {
		t.Fatalf("engine.queries = %d, want both engines' queries counted", got)
	}

	// other's scan filled its cache; an engine of the same options built
	// now starts cold, and other's next scan is a hit.
	third := lh.NewEngine(opts)
	hits := lh.Engine.Obs.Get("engine.scan.cache_hit")
	r3, err := third.Query(engine.NewContext(admin, "third-read"), "SELECT id FROM d.t")
	if err != nil {
		t.Fatal(err)
	}
	if r3.Stats.CacheHits != 0 || lh.Engine.Obs.Get("engine.scan.cache_hit") != hits {
		t.Fatalf("a fresh engine hit another engine's scan cache: %d hits", r3.Stats.CacheHits)
	}
	r2, err := other.Query(engine.NewContext(admin, "other-reread"), "SELECT id FROM d.t")
	if err != nil {
		t.Fatal(err)
	}
	if r2.Stats.CacheHits == 0 {
		t.Fatal("an engine missed its own warm scan cache")
	}
}

// systemCounters reads every counter back through SQL: what
// system.metrics lists is what an operator of this lakehouse can see.
func systemCounters(t *testing.T, lh *Lakehouse) map[string]int64 {
	t.Helper()
	res, err := lh.Query(admin, "SELECT name, value FROM system.metrics WHERE kind = 'counter'")
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]int64, res.Batch.N)
	for i := 0; i < res.Batch.N; i++ {
		out[res.Batch.Column("name").Value(i).S] = res.Batch.Column("value").Value(i).I
	}
	return out
}

func hasPrefix(counters map[string]int64, prefix string) bool {
	for name, v := range counters {
		if v > 0 && strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}

// managedT creates d.t and inserts one row through the BLMT manager.
func managedT(t *testing.T, lh *Lakehouse) {
	t.Helper()
	lh.CreateDataset("d")
	if err := lh.CreateManagedTable(admin, "d", "t", simpleSchema(), "bq-managed"); err != nil {
		t.Fatal(err)
	}
	if _, err := lh.Query(admin, "INSERT INTO d.t VALUES (1)"); err != nil {
		t.Fatal(err)
	}
}

// TestSystemMetricsSeesEveryLayer: core.New hands one registry — the
// engine's — to everything it assembles, so a managed INSERT, a BigLake
// scan over a refreshed metadata cache, a Read API session and a
// journal recovery all show up in system.metrics.
func TestSystemMetricsSeesEveryLayer(t *testing.T) {
	lh := newLH(t)
	managedT(t, lh)
	for _, sql := range []string{"BEGIN", "INSERT INTO d.t VALUES (2)", "COMMIT"} {
		if _, err := lh.Query(admin, sql); err != nil {
			t.Fatal(err)
		}
	}

	if err := lh.CreateBucket("lake"); err != nil {
		t.Fatal(err)
	}
	file, err := colfmt.WriteFile(vector.MustBatch(simpleSchema(), []*vector.Column{vector.NewInt64Column([]int64{1, 2, 3})}), colfmt.WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := lh.Upload("lake", "ext/part-0.blk", file, "application/octet-stream"); err != nil {
		t.Fatal(err)
	}
	if err := lh.CreateBigLakeTable(admin, BigLakeTableSpec{
		Dataset: "d", Name: "ext", Schema: simpleSchema(), Bucket: "lake", Prefix: "ext/", MetadataCaching: true,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := lh.RefreshMetadataCache("d.ext"); err != nil {
		t.Fatal(err)
	}
	if _, err := lh.Query(admin, "SELECT SUM(id) FROM d.ext"); err != nil {
		t.Fatal(err)
	}

	sess, err := lh.StorageAPI.CreateReadSession(storageapi.ReadSessionRequest{Table: "d.t", Principal: admin, SnapshotVersion: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lh.StorageAPI.ReadAll(sess); err != nil {
		t.Fatal(err)
	}

	if _, err := wal.Recover(lh.Journal, lh.Clock); err != nil {
		t.Fatal(err)
	}

	if lh.Store.Obs() != lh.Engine.Obs {
		t.Fatal("the store counts into a registry of its own, not the engine's")
	}
	counters := systemCounters(t, lh)
	for _, prefix := range []string{"objstore.", "bigmeta.", "storageapi.", "engine.", "txn.", "wal."} {
		if !hasPrefix(counters, prefix) {
			t.Errorf("system.metrics has no %s* counter", prefix)
		}
	}
}

// TestSystemMetricsSeesWritePathRetry: a transient store fault under an
// INSERT is absorbed by the BLMT manager's policy, and the retry it
// spent is visible.
func TestSystemMetricsSeesWritePathRetry(t *testing.T) {
	lh := newLH(t)
	managedT(t, lh)
	lh.Store.FailNext(1)
	if _, err := lh.Query(admin, "INSERT INTO d.t VALUES (2)"); err != nil {
		t.Fatal(err)
	}
	if got := systemCounters(t, lh)["resilience.retries"]; got < 1 {
		t.Fatalf("resilience.retries = %d in system.metrics after an absorbed fault, want >= 1", got)
	}
}

// TestSystemMetricsSeesReadAPICorruption: a flipped stored bit the
// Read API's reader catches is counted where the engine's detections
// are.
func TestSystemMetricsSeesReadAPICorruption(t *testing.T) {
	lh := newLH(t)
	managedT(t, lh)
	files, _, err := lh.Log.Snapshot("d.t", -1)
	if err != nil || len(files) != 1 {
		t.Fatalf("snapshot: %d files, err %v", len(files), err)
	}
	// The session reads every column, so the first chunk is among the
	// bytes it fetches.
	if files[0].Layout == nil {
		t.Fatal("committed file has no chunk map")
	}
	ch := files[0].Layout.RowGroups[0].Chunks[0]
	if err := lh.Store.FlipStoredBit(files[0].Bucket, files[0].Key, 8*(ch.Offset+ch.Length/2)); err != nil {
		t.Fatal(err)
	}
	sess, err := lh.StorageAPI.CreateReadSession(storageapi.ReadSessionRequest{Table: "d.t", Principal: admin, SnapshotVersion: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lh.StorageAPI.ReadAll(sess); !errors.Is(err, integrity.ErrCorrupt) {
		t.Fatalf("ReadRows over a bit-flipped file: err = %v, want integrity.ErrCorrupt", err)
	}
	if !hasPrefix(systemCounters(t, lh), "integrity.detected.") {
		t.Fatal("system.metrics has no integrity.detected.* counter after the Read API hit stored damage")
	}
}

// TestSystemMetricsSeesRepairOutcome: a Repair pass reports what it did
// with each quarantined file as a blmt.repair_* counter.
func TestSystemMetricsSeesRepairOutcome(t *testing.T) {
	lh := newLH(t)
	managedT(t, lh)
	files, _, err := lh.Log.Snapshot("d.t", -1)
	if err != nil || len(files) != 1 {
		t.Fatalf("snapshot: %d files, err %v", len(files), err)
	}
	if _, err := lh.Log.Commit(string(admin), map[string]bigmeta.TableDelta{
		"d.t": {Quarantine: []bigmeta.QuarantineMark{{Key: files[0].Key, Reason: "test"}}},
	}); err != nil {
		t.Fatal(err)
	}
	// The file is intact, so the pass re-verifies it and lifts the mark.
	rep, err := lh.Manager.Repair(string(admin), "d.t", nil)
	if err != nil || rep.Reverified != 1 {
		t.Fatalf("repair: %+v, err %v", rep, err)
	}
	if got := systemCounters(t, lh)["blmt.repair_reverified"]; got != 1 {
		t.Fatalf("blmt.repair_reverified = %d in system.metrics, want 1", got)
	}
}
