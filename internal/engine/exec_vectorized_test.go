package engine

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"biglake/internal/catalog"
	"biglake/internal/colfmt"
	"biglake/internal/vector"
)

// These tests pin worker-count invariance: for every query the
// typed-kernel path must return the same rows in the same order with
// the same types for any morsel worker count. (Agreement with the
// row-at-a-time reference is internal/oracle's job: the same star
// world and battery run there in every matrix cell.) The scan-cache
// tests pin generation keying: an overwrite must never serve stale
// decoded bytes.

// createCustom writes rows as nFiles colfmt files under <name>/ and
// registers the BigLake table.
func (ev *env) createCustom(t *testing.T, name string, schema vector.Schema, rows [][]vector.Value, nFiles int) {
	t.Helper()
	if nFiles < 1 {
		nFiles = 1
	}
	perFile := (len(rows) + nFiles - 1) / nFiles
	if perFile == 0 {
		perFile = 1
	}
	for f := 0; f < nFiles; f++ {
		bl := vector.NewBuilder(schema)
		for r := f * perFile; r < (f+1)*perFile && r < len(rows); r++ {
			bl.Append(rows[r]...)
		}
		file, err := colfmt.WriteFile(bl.Build(), colfmt.WriterOptions{})
		if err != nil {
			t.Fatal(err)
		}
		key := fmt.Sprintf("%s/part-%03d.blk", name, f)
		if _, err := ev.store.Put(ev.cred, "lake", key, file, "application/x-blk"); err != nil {
			t.Fatal(err)
		}
	}
	if err := ev.cat.CreateTable(catalog.Table{
		Dataset: "ds", Name: name, Type: catalog.BigLake, Schema: schema,
		Cloud: "gcp", Bucket: "lake", Prefix: name + "/", Connection: "lake-conn",
	}); err != nil {
		t.Fatal(err)
	}
}

// fingerprint renders a batch with type tags; two batches compare
// equal iff schema, row order, types, and values all match.
func fingerprint(b *vector.Batch) string {
	var sb strings.Builder
	for _, f := range b.Schema.Fields {
		fmt.Fprintf(&sb, "%s:%d;", f.Name, f.Type)
	}
	sb.WriteString("\n")
	for r := 0; r < b.N; r++ {
		for _, v := range b.Row(r) {
			if v.IsNull() {
				sb.WriteString("NULL|")
			} else {
				fmt.Fprintf(&sb, "%d:%s|", v.Type, v.String())
			}
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// starWorld builds a fact and dimension with multi-column keys, NULL
// keys on both sides, a dictionary-heavy group column, and an empty
// table.
func starWorld(t *testing.T, ev *env) { starWorldOf(t, ev, 400, 3) }

// starWorldOf is starWorld with factRows fact rows in factFiles files.
func starWorldOf(t *testing.T, ev *env, factRows, factFiles int) {
	factSchema := vector.NewSchema(
		vector.Field{Name: "k1", Type: vector.Int64},
		vector.Field{Name: "k2", Type: vector.String},
		vector.Field{Name: "v", Type: vector.Int64},
		vector.Field{Name: "price", Type: vector.Float64},
	)
	grps := []string{"red", "green", "blue"}
	var fact [][]vector.Value
	for i := 0; i < factRows; i++ {
		k2 := vector.StringValue(grps[i%3])
		if i%17 == 0 {
			k2 = vector.NullValue // NULL join key: matches nothing
		}
		v := vector.IntValue(int64(i))
		if i%23 == 0 {
			v = vector.NullValue
		}
		fact = append(fact, []vector.Value{
			vector.IntValue(int64(i % 20)), k2, v,
			vector.FloatValue(float64(i%7) / 4),
		})
	}
	ev.createCustom(t, "fct", factSchema, fact, factFiles)

	dimSchema := vector.NewSchema(
		vector.Field{Name: "k1", Type: vector.Int64},
		vector.Field{Name: "k2", Type: vector.String},
		vector.Field{Name: "name", Type: vector.String},
	)
	var dim [][]vector.Value
	for i := 0; i < 30; i++ {
		k2 := vector.StringValue(grps[i%3])
		if i%11 == 0 {
			k2 = vector.NullValue
		}
		dim = append(dim, []vector.Value{
			vector.IntValue(int64(i % 22)), k2,
			vector.StringValue(fmt.Sprintf("dim-%d", i)),
		})
	}
	ev.createCustom(t, "dm", dimSchema, dim, 1)
	ev.createCustom(t, "void", factSchema, nil, 1)
}

// vectorizedBattery is the differential query set: every construct
// the kernels changed — multi-key joins, NULL join keys, LEFT JOIN
// null-extension, dict-encoded GROUP BY, empty inputs, LIMIT and
// top-K ORDER BY.
var vectorizedBattery = []string{
	`SELECT f.v, f.k2, d.name FROM ds.fct AS f JOIN ds.dm AS d ON f.k1 = d.k1 AND f.k2 = d.k2`,
	`SELECT f.v, d.name FROM ds.fct AS f LEFT JOIN ds.dm AS d ON f.k1 = d.k1 AND f.k2 = d.k2`,
	`SELECT f.k1, d.name FROM ds.fct AS f JOIN ds.dm AS d ON f.k2 = d.k2 WHERE f.v < 50`,
	`SELECT f.k2, COUNT(*) AS n, SUM(f.v) AS sv, MIN(f.v) AS mn, MAX(f.k2) AS mx, AVG(f.price) AS ap
		FROM ds.fct AS f GROUP BY f.k2`,
	`SELECT f.k2, SUM(f.price) AS rev FROM ds.fct AS f GROUP BY f.k2 ORDER BY f.k2`,
	`SELECT COUNT(*) AS n, SUM(v) AS s, MIN(price) AS m, AVG(v) AS a FROM ds.fct WHERE v < 0`,
	`SELECT k2, COUNT(*) AS n FROM ds.fct WHERE v < 0 GROUP BY k2`,
	`SELECT f.v, e.v FROM ds.fct AS f JOIN ds.void AS e ON f.k1 = e.k1`,
	`SELECT f.v, e.v FROM ds.fct AS f LEFT JOIN ds.void AS e ON f.k1 = e.k1`,
	`SELECT e.k2, COUNT(*) AS n, SUM(e.v) AS s FROM ds.void AS e GROUP BY e.k2`,
	`SELECT v, price FROM ds.fct ORDER BY price DESC, v LIMIT 7`,
	`SELECT v FROM ds.fct WHERE v >= 10 LIMIT 5`,
	`SELECT f.k2, COUNT(*) AS n FROM ds.fct AS f JOIN ds.dm AS d ON f.k2 = d.k2
		GROUP BY f.k2 ORDER BY n DESC LIMIT 2`,
}

func TestVectorizedWorkerCountInvariance(t *testing.T) {
	ev := newEnv(t, DefaultOptions())
	starWorld(t, ev)
	for _, sql := range vectorizedBattery {
		var want string
		for _, w := range []int{1, 2, 3, 5, 8} {
			ev.eng.Opts.MorselWorkers = w
			got := fingerprint(ev.query(t, adminP, sql).Batch)
			if w == 1 {
				want = got
				continue
			}
			if got != want {
				t.Errorf("workers=%d changed the result for %q", w, sql)
			}
		}
	}
}

// TestVectorizedWorkerCountInvarianceWarm is the worker sweep over
// cached scans: each fact file holds more than a morsel of rows, with a
// Dict string column (k2) and a nullable one (v), so a warm scan's
// selects and its merge run as parallel tasks at two or more workers.
// Every statement, cold and then warm, answers as at one worker, and
// the fan-out path is taken exactly when there is more than one worker.
func TestVectorizedWorkerCountInvarianceWarm(t *testing.T) {
	want := map[string]string{}
	for _, w := range []int{1, 2, 3, 5, 8} {
		opts := DefaultOptions()
		opts.EnableScanCache = true
		opts.MorselWorkers = w
		ev := newEnv(t, opts)
		starWorldOf(t, ev, 3*(vector.MorselRows+400), 3)
		for _, sql := range vectorizedBattery {
			for _, pass := range []string{"cold", "warm"} {
				res := ev.query(t, adminP, sql)
				if pass == "warm" && res.Stats.CacheMisses != 0 {
					t.Fatalf("workers=%d: warm %q missed the cache %d times", w, sql, res.Stats.CacheMisses)
				}
				got := fingerprint(res.Batch)
				if w == 1 && pass == "cold" {
					want[sql] = got
				} else if got != want[sql] {
					t.Errorf("workers=%d: %s run changed the result for %q", w, pass, sql)
				}
			}
		}
		selects := ev.eng.Obs.Counter("engine.scan.select_fanouts").Get()
		merges := ev.eng.Obs.Counter("engine.scan.merge_fanouts").Get()
		if fanned := selects > 0 && merges > 0; fanned != (w > 1) {
			t.Errorf("workers=%d: %d selects and %d merges fanned out", w, selects, merges)
		}
	}
}

// TestOrderByNaNSameAtEveryWorkerCount: a NaN sort key ties with every
// value, so the order is not total and a top-K's rows depend on which
// rows met which; ORDER BY … LIMIT over several morsels of floats with
// NaNs answers the same rows in the same order at every worker count
// and on every repeat.
func TestOrderByNaNSameAtEveryWorkerCount(t *testing.T) {
	ev := newEnv(t, DefaultOptions())
	schema := vector.NewSchema(vector.Field{Name: "i", Type: vector.Int64}, vector.Field{Name: "f", Type: vector.Float64})
	n := 3*vector.MorselRows + 500
	rows := make([][]vector.Value, n)
	for r := range rows {
		f := float64(r%61) / 4
		if r%7 == 3 {
			f = math.NaN()
		}
		rows[r] = []vector.Value{vector.IntValue(int64(r)), vector.FloatValue(f)}
	}
	ev.createCustom(t, "nans", schema, rows, 3)
	for _, sql := range []string{
		`SELECT i, f FROM ds.nans ORDER BY f DESC LIMIT 5`,
		`SELECT i, f FROM ds.nans ORDER BY f LIMIT 50`,
		`SELECT i, f FROM ds.nans ORDER BY f, i DESC LIMIT 20`,
	} {
		var want string
		for _, w := range []int{1, 2, 3, 8} {
			ev.eng.Opts.MorselWorkers = w
			for rep := 0; rep < 3; rep++ {
				got := fingerprint(ev.query(t, adminP, sql).Batch)
				if w == 1 && rep == 0 {
					want = got
				} else if got != want {
					t.Fatalf("workers=%d repeat %d changed the rows of %q:\n%s\nwant\n%s", w, rep, sql, got, want)
				}
			}
		}
	}
}

func TestScanCacheHitsOnRepeat(t *testing.T) {
	opts := DefaultOptions()
	opts.EnableScanCache = true
	ev := newEnv(t, opts)
	ev.createOrders(t, []string{"us", "eu"}, 2, 25, false)
	const sql = `SELECT region, COUNT(*) AS n, SUM(amount) AS s FROM ds.orders GROUP BY region ORDER BY region`
	first := ev.query(t, adminP, sql)
	if first.Stats.CacheMisses == 0 || first.Stats.CacheHits != 0 {
		t.Fatalf("cold run: hits=%d misses=%d", first.Stats.CacheHits, first.Stats.CacheMisses)
	}
	second := ev.query(t, adminP, sql)
	if second.Stats.CacheHits != first.Stats.CacheMisses || second.Stats.CacheMisses != 0 {
		t.Fatalf("warm run: hits=%d misses=%d, want %d/0", second.Stats.CacheHits, second.Stats.CacheMisses, first.Stats.CacheMisses)
	}
	if fingerprint(first.Batch) != fingerprint(second.Batch) {
		t.Fatal("cached result differs from cold result")
	}
	// Logical scan accounting is identical whether served from cache.
	if first.Stats.RowsScanned != second.Stats.RowsScanned || first.Stats.FilesScanned != second.Stats.FilesScanned {
		t.Fatalf("stats drifted: %+v vs %+v", first.Stats, second.Stats)
	}
}

func TestScanCacheGenerationInvalidation(t *testing.T) {
	opts := DefaultOptions()
	opts.EnableScanCache = true
	ev := newEnv(t, opts)
	schema := vector.NewSchema(vector.Field{Name: "x", Type: vector.Int64})
	write := func(val int64) {
		bl := vector.NewBuilder(schema)
		for i := 0; i < 10; i++ {
			bl.Append(vector.IntValue(val))
		}
		file, err := colfmt.WriteFile(bl.Build(), colfmt.WriterOptions{})
		if err != nil {
			t.Fatal(err)
		}
		// Same key: the object store bumps the generation.
		if _, err := ev.store.Put(ev.cred, "lake", "gen/part-000.blk", file, "application/x-blk"); err != nil {
			t.Fatal(err)
		}
	}
	write(1)
	if err := ev.cat.CreateTable(catalog.Table{
		Dataset: "ds", Name: "gen", Type: catalog.BigLake, Schema: schema,
		Cloud: "gcp", Bucket: "lake", Prefix: "gen/", Connection: "lake-conn",
	}); err != nil {
		t.Fatal(err)
	}
	const sql = `SELECT SUM(x) AS s FROM ds.gen`
	if got := ev.query(t, adminP, sql).Batch.Column("s").Value(0).AsInt(); got != 10 {
		t.Fatalf("v1 sum = %d", got)
	}
	// Warm the cache, then overwrite the object in place.
	ev.query(t, adminP, sql)
	write(5)
	res := ev.query(t, adminP, sql)
	if got := res.Batch.Column("s").Value(0).AsInt(); got != 50 {
		t.Fatalf("post-overwrite sum = %d, stale cache entry served", got)
	}
	if res.Stats.CacheHits != 0 {
		t.Fatalf("overwritten generation must miss, got %d hits", res.Stats.CacheHits)
	}
	// The old generation's entry is dead weight but harmless; a repeat
	// of the new generation now hits.
	if again := ev.query(t, adminP, sql); again.Stats.CacheHits == 0 {
		t.Fatal("new generation did not cache")
	}
}

func TestScanCacheEviction(t *testing.T) {
	opts := DefaultOptions()
	opts.EnableScanCache = true
	// The budget counts resident columns, not files: amount is 20 rows of
	// 8 bytes a file, so two of the twelve files' worth fit.
	opts.ScanCacheBytes = 2*160 + 100
	ev := newEnv(t, opts)
	ev.createOrders(t, []string{"us", "eu", "jp"}, 4, 20, false)
	const sql = `SELECT COUNT(*) AS n, SUM(amount) AS total FROM ds.orders`
	first := ev.query(t, adminP, sql)
	if first.Batch.Column("n").Value(0).AsInt() != 240 {
		t.Fatalf("count = %v", first.Batch.Row(0))
	}
	if kept := ev.eng.Obs.Gauge("engine.scan.cache_entries").Get(); kept != 2 {
		t.Fatalf("budget for two files' amount column kept %d of 12 entries", kept)
	}
	if used := ev.eng.Obs.Gauge("engine.scan.cache_bytes").Get(); used != 320 {
		t.Fatalf("resident bytes = %d, want 320 (two amount columns)", used)
	}
	second := ev.query(t, adminP, sql)
	if second.Batch.Column("n").Value(0).AsInt() != 240 || second.Batch.Row(0)[1] != first.Batch.Row(0)[1] {
		t.Fatalf("post-eviction answer = %v, want %v", second.Batch.Row(0), first.Batch.Row(0))
	}
	if second.Stats.CacheHits+second.Stats.CacheMisses != 12 || second.Stats.CacheMisses < 10 {
		t.Fatalf("lookups = %d hits + %d misses, want 12 with at least 10 misses", second.Stats.CacheHits, second.Stats.CacheMisses)
	}
}

func TestFooterReadsCountOnlySurvivors(t *testing.T) {
	// Partition-pruned files must not be counted as footer reads: 3
	// regions x 4 files, a region filter prunes 8 of 12 before any
	// footer peek.
	ev := newEnv(t, DefaultOptions())
	ev.createOrders(t, []string{"us", "eu", "jp"}, 4, 10, false)
	res := ev.query(t, adminP, `SELECT COUNT(*) AS n FROM ds.orders WHERE region = 'jp'`)
	if res.Batch.Column("n").Value(0).AsInt() != 40 {
		t.Fatalf("count = %v", res.Batch.Row(0))
	}
	if res.Stats.FooterReads != 4 {
		t.Fatalf("footer reads = %d, want 4 (only non-pruned files)", res.Stats.FooterReads)
	}
}

// TestScanCacheBatchSurvivesAllPassAliasing: a filter that selects
// every row returns its input, so with the scan cache on an all-pass
// query's result shares arrays with the cached decode — which stands
// for every later query of that object generation and must never
// change. Run the statements that follow an aliased batch furthest —
// the WHERE and SET closures of UPDATE and DELETE, here applied to the
// cached batch itself — and require the cache entry to stay byte for
// byte what it was.
func TestScanCacheBatchSurvivesAllPassAliasing(t *testing.T) {
	opts := DefaultOptions()
	opts.EnableScanCache = true
	ev := newEnv(t, opts)
	createFactsAndDim(t, ev)

	const allPass = "SELECT * FROM ds.dim WHERE dk >= 0"
	first := ev.query(t, adminP, allPass)
	if first.Batch.N != 10 {
		t.Fatalf("rows = %d, want 10", first.Batch.N)
	}
	if first.Stats.CacheMisses != 1 {
		t.Fatalf("first run: cache misses = %d, want 1 (the dim file decoded into the scan cache)", first.Stats.CacheMisses)
	}
	// The miss decoded the file into the cache and, every row passing,
	// answered with that decode: first.Batch holds the cache's arrays.
	cached := first.Batch
	second := ev.query(t, adminP, allPass)
	if second.Stats.CacheHits != 1 {
		t.Fatalf("second run: cache hits = %d, want 1", second.Stats.CacheHits)
	}
	if &second.Batch.Column("dk").Ints[0] != &cached.Column("dk").Ints[0] {
		t.Fatal("premise: an all-pass query over one cached file should return the cached arrays, not a copy")
	}
	before := vector.EncodeBatch(cached, true)
	want := fingerprint(second.Batch)

	m := newFakeMutator()
	m.tables["ds.dim"] = cached
	ev.eng.SetMutator(m)
	for _, sql := range []string{
		"UPDATE ds.dim SET dx = dx + 41, dk = 7 WHERE dk >= 0",
		"UPDATE ds.dim SET dx = 3 WHERE dk = 104",
		"DELETE FROM ds.dim WHERE dk < 0", // nothing matches: the kept rows are the input
		"DELETE FROM ds.dim WHERE dx = 1",
	} {
		m.tables["ds.dim"] = cached
		ev.query(t, adminP, sql)
		if !bytes.Equal(vector.EncodeBatch(cached, true), before) {
			t.Fatalf("%s changed the cached batch", sql)
		}
	}
	if got := fingerprint(ev.query(t, adminP, allPass).Batch); got != want {
		t.Fatal("all-pass query answers differently after the DML ran over its cached batch")
	}
	if fingerprint(second.Batch) != want {
		t.Fatal("a result that aliases the cache changed under the DML")
	}
}
