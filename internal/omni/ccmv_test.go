package omni

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"biglake/internal/engine"
	"biglake/internal/objstore"
	"biglake/internal/vector"
)

// newCCMVEnv seeds the Listing 3 world with a customer_orders source of
// files×50 rows, one file per insert, and defines orders_mv over it in
// the GCP region.
func newCCMVEnv(t *testing.T, files int) (*env, *CCMV) {
	t.Helper()
	ev := newEnv(t)
	ev.seedTables(t, 1, 50)
	for f := 1; f < files; f++ {
		bo := vector.NewBuilder(ordersSchema())
		for i := 0; i < 50; i++ {
			bo.Append(vector.IntValue(int64(f*50+i)), vector.IntValue(int64(i%50)), vector.FloatValue(1))
		}
		if err := ev.aws.Manager.Insert(engine.NewContext(adminP, fmt.Sprintf("file-%d", f)), "aws_dataset.customer_orders", bo.Build()); err != nil {
			t.Fatal(err)
		}
	}
	mv, err := ev.dep.CreateCCMV("orders_mv", "aws_dataset.customer_orders", "gcp-us")
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.dep.GrantReplicaAccess(mv, analystP); err != nil {
		t.Fatal(err)
	}
	return ev, mv
}

func (ev *env) count(t *testing.T, table string) int64 {
	t.Helper()
	res, err := ev.dep.Submit(analystP, "SELECT COUNT(*) AS n FROM "+table)
	if err != nil {
		t.Fatal(err)
	}
	return res.Batch.Column("n").Value(0).AsInt()
}

func TestCCMVFailedRefreshLosesNoRows(t *testing.T) {
	// The target store's PUTs fault in streaks longer than the retry
	// policy's attempts; under these seeds a replica PUT exhausts its
	// retries after others landed. Nothing of the refresh may count as
	// replicated: the next clean refresh copies every source file.
	for _, seed := range []uint64{1, 7, 8, 11, 12, 13, 17, 18} {
		ev, mv := newCCMVEnv(t, 3)
		replica, err := ev.dep.Catalog.Table(mv.Replica)
		if err != nil {
			t.Fatal(err)
		}
		ev.gcp.Store.InjectFaults(objstore.FaultProfile{
			Seed: seed, PerOp: map[objstore.Op]float64{objstore.OpPut: 0.4}, StreakLen: 8,
		})
		_, err = ev.dep.Refresh(mv, true)
		if !errors.Is(err, objstore.ErrTransient) || !strings.HasPrefix(err.Error(), "PUT "+replica.Bucket+"/"+replica.Prefix) {
			t.Fatalf("seed %d: faulted refresh err = %v, want a replica PUT out of retries", seed, err)
		}
		ev.gcp.Store.ClearFaults()
		rep, err := ev.dep.Refresh(mv, true)
		if err != nil {
			t.Fatal(err)
		}
		if rep.FilesCopied != 3 {
			t.Fatalf("seed %d: clean refresh = %+v, want 3 files", seed, rep)
		}
		if n := ev.count(t, mv.Replica); n != 150 {
			t.Fatalf("seed %d: replica rows = %d, want 150", seed, n)
		}
	}
}

func TestCCMVFailedFullRefreshKeepsReplica(t *testing.T) {
	ev, mv := newCCMVEnv(t, 3)
	if _, err := ev.dep.Refresh(mv, true); err != nil {
		t.Fatal(err)
	}
	ev.gcp.Store.InjectFaults(objstore.FaultProfile{PerOp: map[objstore.Op]float64{objstore.OpPut: 1}})
	if _, err := ev.dep.Refresh(mv, false); err == nil {
		t.Fatal("full refresh with every PUT failing succeeded")
	}
	ev.gcp.Store.ClearFaults()
	if n := ev.count(t, mv.Replica); n != 150 {
		t.Fatalf("replica rows after a failed full refresh = %d, want 150", n)
	}
	// The next full refresh seals; the garbage collector then reclaims
	// the retired replicas and the failed attempt's debris alike.
	if rep, err := ev.dep.Refresh(mv, false); err != nil || rep.FilesCopied != 3 || rep.FilesDeleted != 3 {
		t.Fatalf("full refresh = %+v, %v", rep, err)
	}
	replica, err := ev.dep.Catalog.Table(mv.Replica)
	if err != nil {
		t.Fatal(err)
	}
	objects, err := ev.gcp.Store.ListAll(ev.gcp.ServiceAccount(), replica.Bucket, replica.Prefix)
	if err != nil {
		t.Fatal(err)
	}
	if len(objects) != 3 || ev.count(t, mv.Replica) != 150 {
		t.Fatalf("after the full refresh: %d replica objects, want 3", len(objects))
	}
}

func TestCCMVReplicaOrderIsDeterministic(t *testing.T) {
	world := func() (keys []string, ids []int64) {
		ev, mv := newCCMVEnv(t, 6)
		if _, err := ev.dep.Refresh(mv, true); err != nil {
			t.Fatal(err)
		}
		files, _, err := ev.gcp.Log.Snapshot(mv.Replica, -1)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			keys = append(keys, f.Key)
		}
		res, err := ev.dep.Submit(analystP, "SELECT order_id FROM "+mv.Replica)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < res.Batch.N; i++ {
			ids = append(ids, res.Batch.Column("order_id").Value(i).AsInt())
		}
		return keys, ids
	}
	keys, ids := world()
	if len(keys) != 6 || len(ids) != 300 {
		t.Fatalf("replica = %d files, %d rows", len(keys), len(ids))
	}
	for w := 0; w < 3; w++ {
		k, i := world()
		if !slices.Equal(k, keys) {
			t.Fatalf("replica file order differs between same-seed worlds:\n%v\n%v", keys, k)
		}
		if !slices.Equal(i, ids) {
			t.Fatal("SELECT order_id row order differs between same-seed worlds")
		}
	}
}

func TestRegionRecoverKeepsReplica(t *testing.T) {
	ev, mv := newCCMVEnv(t, 3)
	if _, err := ev.dep.Refresh(mv, true); err != nil {
		t.Fatal(err)
	}
	if _, err := ev.gcp.Recover(); err != nil {
		t.Fatal(err)
	}
	if n := ev.count(t, mv.Replica); n != 150 {
		t.Fatalf("replica rows after restart = %d, want 150", n)
	}
	rep, err := ev.dep.Refresh(mv, true)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.UpToDate || rep.FilesCopied != 0 {
		t.Fatalf("refresh after restart = %+v, want up to date", rep)
	}
	// The replicated set survives the restart: a new source file is the
	// only one copied.
	bo := vector.NewBuilder(ordersSchema())
	bo.Append(vector.IntValue(9999), vector.IntValue(1), vector.FloatValue(1))
	if err := ev.aws.Manager.Insert(engine.NewContext(adminP, "late"), "aws_dataset.customer_orders", bo.Build()); err != nil {
		t.Fatal(err)
	}
	if rep, err = ev.dep.Refresh(mv, true); err != nil || rep.FilesCopied != 1 {
		t.Fatalf("refresh after a source insert = %+v, %v", rep, err)
	}
	if n := ev.count(t, mv.Replica); n != 151 {
		t.Fatalf("replica rows = %d, want 151", n)
	}
}

func TestReplicaReadsByChunkMap(t *testing.T) {
	ev, mv := newCCMVEnv(t, 7)
	if _, err := ev.dep.Refresh(mv, true); err != nil {
		t.Fatal(err)
	}
	files, _, err := ev.gcp.Log.Snapshot(mv.Replica, -1)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if f.Generation <= 0 || f.Layout == nil {
			t.Fatalf("replica entry %s: generation %d, layout %v", f.Key, f.Generation, f.Layout != nil)
		}
	}
	getBytes := func(table string) int64 {
		before := ev.dep.Obs.Get("objstore.get.bytes")
		if _, err := ev.dep.Submit(analystP, "SELECT order_id FROM "+table); err != nil {
			t.Fatal(err)
		}
		return ev.dep.Obs.Get("objstore.get.bytes") - before
	}
	src, replica := getBytes("aws_dataset.customer_orders"), getBytes(mv.Replica)
	if src == 0 || replica > src {
		t.Fatalf("one-column read: replica GETs %d B, source %d B", replica, src)
	}
}
