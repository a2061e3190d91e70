package core

import (
	"errors"
	"testing"
	"time"

	"biglake/internal/catalog"
	"biglake/internal/crashpoint"
	"biglake/internal/objstore"
	"biglake/internal/security"
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
	if _, err := lh.Auth.Connection("default"); err != nil {
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

	j, err := wal.Open(lh.Store, lh.ServiceAccount(), "bq-managed", "")
	if err != nil {
		t.Fatal(err)
	}
	rec, err := wal.Recover(j, lh.Clock, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.Report.UnsealedIntents; len(got) != 1 || got[0] != id+":f0" {
		t.Fatalf("unsealed intents = %v, want the crashed flush %q", got, id+":f0")
	}
	wantKey := "blmt/d/events/data/writeStreams-1-f000000.blk"
	if got := rec.Report.OrphanCandidates; len(got) != 1 || got[0] != wantKey {
		t.Fatalf("orphan candidates = %v, want [%s]", got, wantKey)
	}
	if rec.Log.Version() != 0 {
		t.Fatalf("recovered version %d, want 0 (nothing sealed)", rec.Log.Version())
	}
}
