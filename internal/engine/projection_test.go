package engine

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"biglake/internal/catalog"
	"biglake/internal/colfmt"
	"biglake/internal/security"
	"biglake/internal/vector"
)

// createEvents writes ds.events — (id, v, tag) stored, day in the path:
// 3 days x 2 files x 10 rows, id = 100*day + 10*file + row, v = id % 7 —
// and a small ds.days (dday, name, v) to join it to.
func createEvents(t *testing.T, ev *env) {
	t.Helper()
	stored := vector.NewSchema(
		vector.Field{Name: "id", Type: vector.Int64},
		vector.Field{Name: "v", Type: vector.Int64},
		vector.Field{Name: "tag", Type: vector.String},
	)
	for day := int64(1); day <= 3; day++ {
		for f := int64(0); f < 2; f++ {
			bl := vector.NewBuilder(stored)
			for r := int64(0); r < 10; r++ {
				id := 100*day + 10*f + r
				bl.Append(vector.IntValue(id), vector.IntValue(id%7), vector.StringValue(fmt.Sprintf("t%d", r%3)))
			}
			data, err := colfmt.WriteFile(bl.Build(), colfmt.WriterOptions{RowGroupRows: 4})
			if err != nil {
				t.Fatal(err)
			}
			key := fmt.Sprintf("events/day=%d/part-%d.blk", day, f)
			if _, err := ev.store.Put(ev.cred, "lake", key, data, "application/x-blk"); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := ev.cat.CreateTable(catalog.Table{
		Dataset: "ds", Name: "events", Type: catalog.BigLake, Cloud: "gcp", Bucket: "lake", Prefix: "events/",
		Connection: "lake-conn", PartitionColumn: "day", MetadataCaching: true,
		Schema: vector.NewSchema(append(append([]vector.Field(nil), stored.Fields...), vector.Field{Name: "day", Type: vector.Int64})...),
	}); err != nil {
		t.Fatal(err)
	}
	var days [][]vector.Value
	for d := int64(1); d <= 3; d++ {
		days = append(days, []vector.Value{vector.IntValue(d), vector.StringValue(fmt.Sprintf("day-%d", d)), vector.IntValue(d)})
	}
	ev.createCustom(t, "days", vector.NewSchema(
		vector.Field{Name: "dday", Type: vector.Int64},
		vector.Field{Name: "name", Type: vector.String},
		vector.Field{Name: "v", Type: vector.Int64},
	), days, 1)
}

// columnsRead runs sql and returns its result with how many columns its
// scans read and skipped.
func (ev *env) columnsRead(t *testing.T, p security.Principal, sql string) (*Result, int64, int64) {
	t.Helper()
	read, skipped := ev.eng.Obs.Get("engine.scan.columns_read"), ev.eng.Obs.Get("engine.scan.columns_skipped")
	res := ev.query(t, p, sql)
	return res, ev.eng.Obs.Get("engine.scan.columns_read") - read, ev.eng.Obs.Get("engine.scan.columns_skipped") - skipped
}

func rowsText(b *vector.Batch) string {
	var sb strings.Builder
	for _, f := range b.Schema.Fields {
		sb.WriteString(f.Name + " ")
	}
	for r := 0; r < b.N; r++ {
		sb.WriteString("|")
		for _, v := range b.Row(r) {
			sb.WriteString(" " + v.String())
		}
	}
	return sb.String()
}

// TestProjectionColumnSets: each statement shape reads exactly the
// columns it names — the count, the partition column, an ORDER BY key
// outside the select list, an output alias, a join's unqualified
// columns, `*` — with the same answer whether the scan cache is on,
// cold or warm, and at any worker count.
func TestProjectionColumnSets(t *testing.T) {
	cases := []struct {
		sql  string
		read int64 // columns read, over every table scanned
		want string
	}{
		{"SELECT COUNT(*) AS n FROM ds.events", 0, "n | 60"},
		{"SELECT COUNT(*) AS n FROM ds.events WHERE day = 2", 1, "n | 20"},
		{"SELECT day, COUNT(*) AS n FROM ds.events GROUP BY day ORDER BY day", 1, "day n | 1 20| 2 20| 3 20"},
		{"SELECT id FROM ds.events ORDER BY v DESC, id LIMIT 3", 2, "id | 104| 111| 118"},
		{"SELECT id AS k, v + 1 AS w FROM ds.events WHERE day = 1 ORDER BY w DESC, k LIMIT 2", 3, "k w | 104 7| 111 7"},
		{"SELECT * FROM ds.events WHERE id = 205", 4, "id v tag day | 205 2 t2 2"},
		{"SELECT tag, name, COUNT(*) AS n FROM ds.events AS e JOIN ds.days AS d ON e.day = d.dday WHERE e.v = 3 AND id < 200 GROUP BY tag, name ORDER BY tag, name",
			4 + 2, "tag name n | t1 day-1 1| t2 day-1 2"},
		{"SELECT SUM(q.v) AS s FROM (SELECT v FROM ds.events WHERE day = 3) AS q", 2, "s | 58"},
	}
	var base []string
	for _, cache := range []bool{false, true} {
		for _, workers := range []int{1, 4} {
			opts := DefaultOptions()
			opts.EnableScanCache, opts.MorselWorkers = cache, workers
			ev := newEnv(t, opts)
			createEvents(t, ev)
			for round := 0; round < 2; round++ { // the second round is all cache hits
				for i, c := range cases {
					res, read, skipped := ev.columnsRead(t, adminP, c.sql)
					if got := rowsText(res.Batch); got != c.want {
						t.Errorf("cache=%v workers=%d round %d: %s\n got %s\nwant %s", cache, workers, round, c.sql, got, c.want)
					}
					if read != c.read {
						t.Errorf("cache=%v: %s: read %d columns (skipped %d), want %d", cache, c.sql, read, skipped, c.read)
					}
					if fp := fingerprint(res.Batch); base == nil || len(base) <= i {
						base = append(base, fp)
					} else if fp != base[i] {
						t.Errorf("cache=%v workers=%d round %d: %s diverged from the first configuration", cache, workers, round, c.sql)
					}
					if cache && round == 1 && res.Stats.CacheMisses != 0 {
						t.Errorf("%s: %d cache misses on the repeat", c.sql, res.Stats.CacheMisses)
					}
				}
			}
		}
	}
}

// TestProjectionKeepsAmbiguity: a column both join sides have stays
// ambiguous when named unqualified — projection reads it on both sides
// rather than quietly picking one.
func TestProjectionKeepsAmbiguity(t *testing.T) {
	ev := newEnv(t, DefaultOptions())
	createEvents(t, ev)
	_, err := ev.eng.Query(NewContext(adminP, "q"), "SELECT id FROM ds.events AS e JOIN ds.days AS d ON e.day = d.dday WHERE v = 3")
	if !errors.Is(err, ErrSemantic) || !strings.Contains(err.Error(), "ambiguous") {
		t.Fatalf("err = %v, want an ambiguous-column error", err)
	}
}

// TestProjectionSpanShowsColumns: EXPLAIN ANALYZE shows the projection
// on the scan span.
func TestProjectionSpanShowsColumns(t *testing.T) {
	ev := newEnv(t, DefaultOptions())
	createEvents(t, ev)
	_, prof, err := ev.eng.ExplainAnalyze(NewContext(adminP, "q"), "SELECT SUM(v) AS s FROM ds.events WHERE day = 1")
	if err != nil {
		t.Fatal(err)
	}
	if text := prof.Text(); !strings.Contains(text, "columns=2") || !strings.Contains(text, "columns_total=4") {
		t.Fatalf("scan span does not show the projection:\n%s", text)
	}
}

// TestProjectionUnderGovernance: the scan decodes what the principal's
// row policies filter on even when the statement does not name it, a
// policy column the reader is denied still filters (the order bug: the
// column used to be dropped before the filter ran), a masked column is
// decoded only when selected, and a principal no policy grants sees
// nothing.
func TestProjectionUnderGovernance(t *testing.T) {
	const bobP = security.Principal("bob@corp")
	for _, cache := range []bool{false, true} {
		opts := DefaultOptions()
		opts.EnableScanCache = cache
		ev := newEnv(t, opts)
		ev.createOrders(t, []string{"us", "eu"}, 1, 10, true)
		ev.auth.GrantTable(adminP, "ds.orders", bobP, security.RoleViewer)
		ev.auth.AddRowPolicy(adminP, "ds.orders", security.RowPolicy{
			Name: "us_only", Grantees: map[security.Principal]bool{aliceP: true},
			Filter: []colfmt.Predicate{{Column: "region", Op: vector.EQ, Value: vector.StringValue("us")}},
		})
		ev.auth.SetColumnPolicy(adminP, "ds.orders", security.ColumnPolicy{
			Column: "amount", Allowed: map[security.Principal]bool{adminP: true}, Mask: vector.MaskHash,
		})

		// Policy column not in the select list: filtered on, not returned.
		res, read, _ := ev.columnsRead(t, aliceP, "SELECT order_id FROM ds.orders ORDER BY order_id")
		if res.Batch.N != 10 || res.Batch.Schema.Len() != 1 || res.Batch.Row(9)[0].I != 9 || read != 2 {
			t.Fatalf("cache=%v: policy column unselected: %d rows, schema %v, %d columns read", cache, res.Batch.N, res.Batch.Schema, read)
		}
		// Masked column not selected: not decoded, not returned. Selected: masked.
		res, read, _ = ev.columnsRead(t, aliceP, "SELECT customer_id FROM ds.orders")
		if res.Batch.N != 10 || res.Batch.Column("amount") != nil || read != 2 {
			t.Fatalf("cache=%v: masked column unselected: schema %v, %d columns read", cache, res.Batch.Schema, read)
		}
		res, read, _ = ev.columnsRead(t, aliceP, "SELECT order_id, amount FROM ds.orders")
		if res.Batch.N != 10 || read != 3 || !strings.HasPrefix(res.Batch.Row(0)[1].S, "hash_") {
			t.Fatalf("cache=%v: masked column selected: %v, %d columns read", cache, res.Batch.Row(0), read)
		}
		// Granted by no policy: no rows, whatever is selected.
		for _, sql := range []string{"SELECT order_id FROM ds.orders", "SELECT * FROM ds.orders"} {
			if res := ev.query(t, bobP, sql); res.Batch.N != 0 {
				t.Fatalf("cache=%v: bob, granted by no policy, sees %d rows of %q", cache, res.Batch.N, sql)
			}
		}
		if res := ev.query(t, bobP, "SELECT COUNT(*) AS n FROM ds.orders"); res.Batch.Row(0)[0].I != 0 {
			t.Fatalf("cache=%v: bob counts %v rows", cache, res.Batch.Row(0))
		}

		// The policy column itself denied to the reader.
		ev.auth.SetColumnPolicy(adminP, "ds.orders", security.ColumnPolicy{
			Column: "region", Allowed: map[security.Principal]bool{adminP: true}, Mask: vector.MaskNone,
		})
		res = ev.query(t, aliceP, "SELECT order_id FROM ds.orders ORDER BY order_id")
		if res.Batch.N != 10 || res.Batch.Row(9)[0].I != 9 {
			t.Fatalf("cache=%v: policy column denied: %d rows", cache, res.Batch.N)
		}
		res = ev.query(t, aliceP, "SELECT * FROM ds.orders")
		if res.Batch.N != 10 || res.Batch.Column("region") != nil || res.Batch.Schema.Len() != 3 {
			t.Fatalf("cache=%v: policy column denied, SELECT *: %d rows, schema %v", cache, res.Batch.N, res.Batch.Schema)
		}
		if _, err := ev.eng.Query(NewContext(aliceP, "q"), "SELECT region FROM ds.orders"); err == nil {
			t.Fatalf("cache=%v: selecting the denied column succeeded", cache)
		}
	}
}

// TestProjectionKeepsMaskedPredicatesOutOfPushdown: a reader who sees a column
// masked filters on what they see. Pushed down, the predicate would run
// on the stored values — in the decode, in the cached batch's scan mask
// and, for a partition column, in file pruning — and drop the row whose
// stored value is 'alpha', which reads 'Xlpha' and passes.
func TestProjectionKeepsMaskedPredicatesOutOfPushdown(t *testing.T) {
	schema := vector.NewSchema(
		vector.Field{Name: "id", Type: vector.Int64},
		vector.Field{Name: "s", Type: vector.String},
		vector.Field{Name: "part", Type: vector.String},
	)
	for _, cache := range []bool{false, true} {
		opts := DefaultOptions()
		opts.EnableScanCache = cache
		ev := newEnv(t, opts)
		for i, part := range []string{"alpha", "gamma"} {
			bl := vector.NewBuilder(vector.Schema{Fields: schema.Fields[:2]})
			bl.Append(vector.IntValue(int64(2*i)), vector.StringValue("alpha"))
			bl.Append(vector.IntValue(int64(2*i+1)), vector.StringValue("omega"))
			file, err := colfmt.WriteFile(bl.Build(), colfmt.WriterOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ev.store.Put(ev.cred, "lake", "t/part="+part+"/f.blk", file, ""); err != nil {
				t.Fatal(err)
			}
		}
		if err := ev.cat.CreateTable(catalog.Table{
			Dataset: "ds", Name: "t", Type: catalog.BigLake, Schema: schema,
			Cloud: "gcp", Bucket: "lake", Prefix: "t/", Connection: "lake-conn",
			PartitionColumn: "part", MetadataCaching: true,
		}); err != nil {
			t.Fatal(err)
		}
		ev.auth.GrantTable(adminP, "ds.t", aliceP, security.RoleViewer)
		for _, col := range []string{"s", "part"} {
			ev.auth.SetColumnPolicy(adminP, "ds.t", security.ColumnPolicy{
				Column: col, Allowed: map[security.Principal]bool{adminP: true}, Mask: vector.MaskLastFour,
			})
		}
		for _, c := range []struct {
			who  security.Principal
			sql  string
			want int
		}{
			{adminP, "SELECT id FROM ds.t WHERE s != 'alpha'", 2},
			{aliceP, "SELECT id FROM ds.t WHERE s != 'alpha'", 4},
			{aliceP, "SELECT id FROM ds.t WHERE s = 'Xlpha'", 2},
			{aliceP, "SELECT id FROM ds.t WHERE s = 'alpha'", 0},
			{adminP, "SELECT id FROM ds.t WHERE part != 'alpha'", 2},
			{aliceP, "SELECT id FROM ds.t WHERE part != 'alpha'", 4},
			{aliceP, "SELECT id FROM ds.t WHERE part = 'alpha' AND id < 10", 0},
		} {
			// Twice: the second run of a cached cell reads resident columns.
			for run := 0; run < 2; run++ {
				if res := ev.query(t, c.who, c.sql); res.Batch.N != c.want {
					t.Errorf("cache=%v run %d: %s as %s: %d rows, want %d", cache, run, c.sql, c.who, res.Batch.N, c.want)
				}
			}
		}
	}
}
