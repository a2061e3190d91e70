package engine

import (
	"errors"
	"testing"

	"biglake/internal/bigmeta"
	"biglake/internal/catalog"
	"biglake/internal/colfmt"
	"biglake/internal/integrity"
	"biglake/internal/objstore"
	"biglake/internal/vector"
)

// poisonWorld builds a one-file Native managed table ds.m whose file
// list (and pinned generation) comes from the transaction log, so the
// scan path runs with no footer peeks in the way. writeVersion rewrites
// the file in place with val repeated rows times and commits the swap.
func poisonWorld(t *testing.T, ev *env) (writeVersion func(val int64) string) {
	t.Helper()
	schema := vector.NewSchema(vector.Field{Name: "x", Type: vector.Int64})
	if err := ev.cat.CreateTable(catalog.Table{
		Dataset: "ds", Name: "m", Type: catalog.Native, Schema: schema,
		Cloud: "gcp", Bucket: "lake", Prefix: "managed/m/",
	}); err != nil {
		t.Fatal(err)
	}
	const key = "managed/m/part-000.blk"
	return func(val int64) string {
		t.Helper()
		bl := vector.NewBuilder(schema)
		for i := 0; i < 10; i++ {
			bl.Append(vector.IntValue(val))
		}
		file, err := colfmt.WriteFile(bl.Build(), colfmt.WriterOptions{})
		if err != nil {
			t.Fatal(err)
		}
		info, err := ev.store.Put(ev.cred, "lake", key, file, "application/x-blk")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ev.log.Commit("loader", map[string]bigmeta.TableDelta{
			"ds.m": {Removed: []string{key}, Added: []bigmeta.FileEntry{{
				Bucket: "lake", Key: key, Size: info.Size,
				Generation: info.Generation, RowCount: 10,
			}}},
		}); err != nil {
			t.Fatal(err)
		}
		return key
	}
}

// TestScanCachePoisoningGuard is the end-to-end regression: when every
// GET response is silently corrupted, the scan must fail with a typed
// integrity error, the failed decode must never populate the scan
// cache, and the resident entry for the object must be evicted — then,
// once the store is healthy again and the quarantine lifted, a clean
// read repopulates the cache with the new version's rows.
func TestScanCachePoisoningGuard(t *testing.T) {
	opts := DefaultOptions()
	opts.EnableScanCache = true
	ev := newEnv(t, opts)
	writeVersion := poisonWorld(t, ev)
	const sql = `SELECT SUM(x) AS s FROM ds.m`

	// Warm the cache with a clean read of version 1.
	key := writeVersion(1)
	if got := ev.query(t, adminP, sql).Batch.Column("s").Value(0).AsInt(); got != 10 {
		t.Fatalf("v1 sum = %d", got)
	}
	if got := ev.eng.Obs.Gauge("engine.scan.cache_entries").Get(); got != 1 {
		t.Fatalf("warm cache entries = %d, want 1", got)
	}

	// Swap in version 2: the snapshot now pins a new generation, so the
	// next read must fetch — through a store that corrupts every
	// response.
	writeVersion(5)
	ev.store.InjectFaults(objstore.FaultProfile{Seed: 7, CorruptRate: 1})
	if _, err := ev.eng.Query(NewContext(adminP, "poison"), sql); err == nil {
		t.Fatal("query over all-corrupt responses succeeded")
	} else if !errors.Is(err, integrity.ErrCorrupt) {
		t.Fatalf("corruption surfaced untyped: %v", err)
	}
	// Neither the rotten decode nor the stale resident entry may stay:
	// the v1 entry was evicted, the poisoned v2 decode never cached.
	if got := ev.eng.Obs.Gauge("engine.scan.cache_entries").Get(); got != 0 {
		t.Fatalf("cache entries after poisoned read = %d, want 0", got)
	}
	snap := ev.eng.Obs.Snapshot()
	if snap.Counters["integrity.detected.scan"] == 0 {
		t.Fatal("integrity.detected.scan never incremented")
	}
	if snap.Counters["integrity.quarantines"] == 0 {
		t.Fatal("persistent corruption did not quarantine the file")
	}
	marks := ev.log.Quarantined("ds.m")
	if len(marks) != 1 || marks[0].Key != key {
		t.Fatalf("quarantine marks = %+v", marks)
	}

	// Heal the store, lift the quarantine: the next read re-fetches,
	// re-verifies, repopulates the cache, and serves version 2.
	ev.store.ClearFaults()
	if _, err := ev.log.Commit(string(adminP), map[string]bigmeta.TableDelta{
		"ds.m": {Unquarantine: []string{key}},
	}); err != nil {
		t.Fatal(err)
	}
	if got := ev.query(t, adminP, sql).Batch.Column("s").Value(0).AsInt(); got != 50 {
		t.Fatalf("post-recovery sum = %d, want 50", got)
	}
	if got := ev.eng.Obs.Gauge("engine.scan.cache_entries").Get(); got != 1 {
		t.Fatalf("cache entries after recovery = %d, want 1", got)
	}
}

// TestQuarantinedFileFailsFastAndSkipOptIn pins the containment
// policy: a quarantined file fails the query with a typed error naming
// table and file, and the explicit SkipQuarantined opt-in degrades to
// skip-and-warn with a strict subset of the rows.
func TestQuarantinedFileFailsFastAndSkipOptIn(t *testing.T) {
	ev := newEnv(t, DefaultOptions())
	ev.createOrders(t, []string{"us", "eu"}, 1, 10, false)
	const sql = `SELECT COUNT(*) AS n FROM ds.orders`
	if got := ev.query(t, adminP, sql).Batch.Column("n").Value(0).AsInt(); got != 20 {
		t.Fatalf("baseline count = %d", got)
	}
	if _, err := ev.log.QuarantineFile(string(adminP), "ds.orders", bigmeta.QuarantineMark{
		Key: "orders/region=eu/part-000.blk", Source: "test", Reason: "synthetic", Time: ev.clock.Now(),
	}); err != nil {
		t.Fatal(err)
	}

	_, err := ev.eng.Query(NewContext(adminP, "q-fail"), sql)
	if err == nil {
		t.Fatal("query over a quarantined file succeeded without opt-in")
	}
	var ie *integrity.Error
	if !errors.As(err, &ie) {
		t.Fatalf("quarantine error untyped: %v", err)
	}
	if ie.Table != "ds.orders" || ie.Key != "orders/region=eu/part-000.blk" {
		t.Fatalf("error does not name table/file: %+v", ie)
	}

	ev.eng.Opts.SkipQuarantined = true
	res := ev.query(t, adminP, sql)
	if got := res.Batch.Column("n").Value(0).AsInt(); got != 10 {
		t.Fatalf("skip-and-warn count = %d, want 10 (eu file skipped)", got)
	}
	if res.Stats.QuarantineSkips != 1 {
		t.Fatalf("QuarantineSkips = %d, want 1", res.Stats.QuarantineSkips)
	}
}

// TestCountStarMakesNoGet: a read that decodes no column takes each
// file's row count from the chunk map Big Metadata holds and makes no
// GET — and the quarantine gate still runs before it, so a quarantined
// file fails the count typed.
func TestCountStarMakesNoGet(t *testing.T) {
	ev := newEnv(t, DefaultOptions())
	ev.createOrders(t, []string{"us", "eu"}, 3, 20, true)
	const sql = `SELECT COUNT(*) AS n FROM ds.orders`
	ev.query(t, adminP, sql) // builds the metadata cache
	gets := ev.store.Obs().Get("objstore.get.count")
	if got := ev.query(t, adminP, sql).Batch.Column("n").Value(0).AsInt(); got != 120 {
		t.Fatalf("count = %d, want 120", got)
	}
	if got := ev.store.Obs().Get("objstore.get.count") - gets; got != 0 {
		t.Fatalf("COUNT(*) over mapped files made %d GETs, want 0", got)
	}
	if _, err := ev.log.QuarantineFile(string(adminP), "ds.orders", bigmeta.QuarantineMark{
		Key: "orders/region=eu/part-001.blk", Source: "test", Reason: "synthetic", Time: ev.clock.Now(),
	}); err != nil {
		t.Fatal(err)
	}
	_, err := ev.eng.Query(NewContext(adminP, "q-fail"), sql)
	var ie *integrity.Error
	if !errors.As(err, &ie) || ie.Source != "engine.quarantine" || ie.Key != "orders/region=eu/part-001.blk" {
		t.Fatalf("COUNT(*) over a quarantined file: err = %v, want engine.quarantine naming the file", err)
	}
}
