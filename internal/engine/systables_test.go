package engine

import (
	"errors"
	"testing"

	"biglake/internal/bigmeta"
	"biglake/internal/catalog"
)

// TestSystemTablesDirect drives SELECTs over the virtual system
// dataset through the normal engine path: registry metrics, history
// snapshots, and SLO rows all resolve without any catalog entry, and
// predicates push down into the synthesized batch. (The engine records
// no job; the system.jobs assertions run behind serve's door, in
// internal/serve.)
func TestSystemTablesDirect(t *testing.T) {
	ev := newEnv(t, DefaultOptions())
	ev.createOrders(t, []string{"us", "eu"}, 2, 50, true)

	// Four statements for engine.queries to count, two of them scans of
	// system.jobs (empty: the engine records no job).
	ev.query(t, adminP, "SELECT order_id FROM ds.orders WHERE order_id = 7")
	ev.query(t, adminP, "SELECT region, COUNT(*) AS n FROM ds.orders GROUP BY region")
	ev.query(t, adminP, "SELECT query_id, sql, class, state, rows_scanned FROM system.jobs WHERE state = 'done'")
	ev.query(t, adminP, "SELECT query_id FROM system.jobs")

	// system.metrics surfaces registry counters; predicate pushdown
	// narrows to one name.
	res := ev.query(t, adminP, "SELECT name, value FROM system.metrics WHERE name = 'engine.queries' AND kind = 'counter'")
	if res.Batch.N != 1 {
		t.Fatalf("system.metrics name filter rows = %d, want 1", res.Batch.N)
	}
	if v := res.Batch.Column("value").Value(0).I; v < 4 {
		t.Errorf("engine.queries counter = %d, want >= 4", v)
	}

	// system.slo has a row per configured class with the defaults.
	res = ev.query(t, adminP, "SELECT class, total, attainment FROM system.slo ORDER BY class")
	if res.Batch.N < 4 {
		t.Fatalf("system.slo rows = %d, want >= 4", res.Batch.N)
	}

	// system.metrics_history fills from forced captures and carries
	// reconcilable deltas.
	ev.eng.Sys.CaptureHistory()
	ev.clock.Advance(200 * 1e6) // 200ms sim
	ev.query(t, adminP, "SELECT order_id FROM ds.orders WHERE order_id = 9")
	ev.eng.Sys.CaptureHistory()
	res = ev.query(t, adminP, "SELECT ts_us, value, delta FROM system.metrics_history WHERE name = 'engine.queries' ORDER BY ts_us")
	if res.Batch.N < 2 {
		t.Fatalf("system.metrics_history rows = %d, want >= 2", res.Batch.N)
	}
	first := res.Batch.Column("value").Value(0).I
	last := res.Batch.Column("value").Value(res.Batch.N - 1).I
	var deltaSum int64
	for i := 1; i < res.Batch.N; i++ {
		deltaSum += res.Batch.Column("delta").Value(i).I
	}
	if deltaSum != last-first {
		t.Errorf("history deltas sum %d, want value difference %d", deltaSum, last-first)
	}

	// Aggregation over a system table goes through the normal kernels.
	res = ev.query(t, adminP, "SELECT kind, COUNT(*) AS n FROM system.metrics GROUP BY kind ORDER BY kind")
	if res.Batch.N == 0 {
		t.Fatal("aggregate over system.metrics returned no rows")
	}
}

// TestSystemJobsNotRecordedByEngine: the engine only executes. A bare
// Query — a statement no door sent, like an experiment's seed load —
// leaves system.jobs as it was.
func TestSystemJobsNotRecordedByEngine(t *testing.T) {
	ev := newEnv(t, DefaultOptions())
	ev.createOrders(t, []string{"us"}, 1, 10, true)
	ev.query(t, adminP, "SELECT order_id FROM ds.orders WHERE order_id = 1")
	ev.query(t, adminP, "SELECT region, COUNT(*) AS n FROM ds.orders GROUP BY region")
	if jobs := ev.eng.Sys.Jobs(); len(jobs) != 0 {
		t.Fatalf("bare engine queries left %d system.jobs rows, want 0: %+v", len(jobs), jobs)
	}
	if res := ev.query(t, adminP, "SELECT query_id FROM system.jobs"); res.Batch.N != 0 {
		t.Fatalf("system.jobs rows = %d, want 0", res.Batch.N)
	}
}

// TestSystemTableUnknown: unclaimed members of the system dataset fail
// with the catalog's not-found sentinel, not a silent empty result.
func TestSystemTableUnknown(t *testing.T) {
	ev := newEnv(t, DefaultOptions())
	_, err := ev.eng.Query(NewContext(adminP, "q-unknown"), "SELECT x FROM system.nope")
	if !errors.Is(err, catalog.ErrNotFound) {
		t.Fatalf("system.nope error = %v, want catalog.ErrNotFound", err)
	}
}

// TestSystemQuarantineTable surfaces bigmeta quarantine marks.
func TestSystemQuarantineTable(t *testing.T) {
	ev := newEnv(t, DefaultOptions())
	ev.createOrders(t, []string{"us"}, 1, 10, true)
	if _, err := ev.log.QuarantineFile(string(adminP), "ds.orders", bigmeta.QuarantineMark{
		Key: "orders/region=us/part-000.blk", Source: "test", Reason: "bitflip",
	}); err != nil {
		t.Fatal(err)
	}
	res := ev.query(t, adminP, "SELECT table_name, file_key, source FROM system.quarantine")
	if res.Batch.N != 1 {
		t.Fatalf("system.quarantine rows = %d, want 1", res.Batch.N)
	}
	if got := res.Batch.Column("table_name").Value(0).S; got != "ds.orders" {
		t.Errorf("quarantine table = %q", got)
	}
}
