package engine

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"biglake/internal/bigmeta"
	"biglake/internal/catalog"
	"biglake/internal/colfmt"
	"biglake/internal/obs"
	"biglake/internal/scan"
	"biglake/internal/security"
	"biglake/internal/sqlparse"
	"biglake/internal/vector"
)

// limSchema is the table the LIMIT tests read: id ascends across the
// files, c2 = id % 100.
var limSchema = vector.NewSchema(
	vector.Field{Name: "id", Type: vector.Int64},
	vector.Field{Name: "c2", Type: vector.Int64},
	vector.Field{Name: "f", Type: vector.Float64},
)

// createLim writes ds.lim, files of rows rows each, as a BigLake table
// Big Metadata describes, and builds its metadata with a COUNT(*) (no
// data GET), so a later query's GETs are its data reads alone.
func (ev *env) createLim(t *testing.T, files, rows int) {
	t.Helper()
	for f := 0; f < files; f++ {
		bl := vector.NewBuilder(limSchema)
		for r := 0; r < rows; r++ {
			id := int64(f*rows + r)
			bl.Append(vector.IntValue(id), vector.IntValue(id%100), vector.FloatValue(float64(id)/4))
		}
		file, err := colfmt.WriteFile(bl.Build(), colfmt.WriterOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ev.store.Put(ev.cred, "lake", fmt.Sprintf("lim/part-%03d.blk", f), file, "application/x-blk"); err != nil {
			t.Fatal(err)
		}
	}
	if err := ev.cat.CreateTable(catalog.Table{
		Dataset: "ds", Name: "lim", Type: catalog.BigLake, Schema: limSchema,
		Cloud: "gcp", Bucket: "lake", Prefix: "lim/", Connection: "lake-conn", MetadataCaching: true,
	}); err != nil {
		t.Fatal(err)
	}
	ev.query(t, adminP, "SELECT COUNT(*) AS n FROM ds.lim")
}

func (ev *env) gets() int64 { return ev.store.Obs().Counter("objstore.get.count").Get() }

// readSpans returns the scan's "read <key>" spans by key.
func readSpans(n *obs.ProfileNode, out map[string]*obs.ProfileNode) map[string]*obs.ProfileNode {
	if key, ok := strings.CutPrefix(n.Name, "read "); ok {
		out[key] = n
	}
	for _, c := range n.Children {
		readSpans(c, out)
	}
	return out
}

// TestLimitStopsScan: a LIMIT whose WHERE the scan enforces exactly
// stops fetching once a prefix of the plan's files holds its rows. Over
// a cold 4-file table, a LIMIT the first file covers reads that file —
// its GETs and no others — and one that needs three files reads them in
// a wave of one, then a wave of two. Each answer is the unlimited
// statement's first n rows.
func TestLimitStopsScan(t *testing.T) {
	cases := []struct {
		where string
		limit int
		waves [][]string // the files each wave reads
	}{
		{"c2 < 50", 10, [][]string{{"lim/part-000.blk"}}},
		{"c2 < 2", 5, [][]string{{"lim/part-000.blk"}, {"lim/part-001.blk", "lim/part-002.blk"}}},
	}
	for _, tc := range cases {
		sql := fmt.Sprintf("SELECT id, c2 FROM ds.lim WHERE %s LIMIT %d", tc.where, tc.limit)
		ev := newEnv(t, DefaultOptions())
		ev.createLim(t, 4, 100)
		stops, before := ev.eng.Obs.Counter("engine.limit_stops").Get(), ev.gets()
		res, prof, err := ev.eng.ExplainAnalyze(NewContext(adminP, "q-limit"), sql)
		if err != nil {
			t.Fatal(err)
		}
		gets := ev.gets() - before
		var read int
		for _, w := range tc.waves {
			read += len(w)
		}
		if res.Stats.FilesScanned != int64(read) {
			t.Errorf("%s: FilesScanned %d, want %d", sql, res.Stats.FilesScanned, read)
		}
		if d := ev.eng.Obs.Counter("engine.limit_stops").Get() - stops; d != 1 {
			t.Errorf("%s: engine.limit_stops moved %d, want 1", sql, d)
		}
		for k, want := range map[string]string{"files": "4", "files_read": fmt.Sprint(read), "limit_stop": "1"} {
			if got := profileAttr(prof.Root, "scan ds.lim", k); got != want {
				t.Errorf("%s: scan span %s=%q, want %q\n%s", sql, k, got, want, prof.Text())
			}
		}
		if profileAttr(prof.Root, "filter", "rows") != "" {
			t.Errorf("%s: a filter span ran over an exact WHERE\n%s", sql, prof.Text())
		}
		// The waves: the files of one start together, after the last.
		spans := readSpans(prof.Root, map[string]*obs.ProfileNode{})
		if len(spans) != read {
			t.Errorf("%s: read spans %v, want %d", sql, spans, read)
		}
		prevEnd := int64(-1)
		for i, w := range tc.waves {
			start := spans[w[0]]
			if start == nil {
				t.Fatalf("%s: no read span for %s\n%s", sql, w[0], prof.Text())
			}
			end := int64(0)
			for _, key := range w {
				s := spans[key]
				if s == nil || s.SimStart != start.SimStart {
					t.Fatalf("%s: wave %d: %s does not start with %s\n%s", sql, i, key, w[0], prof.Text())
				}
				end = max(end, int64(s.SimStart+s.SimTime))
			}
			if int64(start.SimStart) < prevEnd {
				t.Errorf("%s: wave %d starts before wave %d ends", sql, i, i-1)
			}
			prevEnd = end
		}

		// The answer is the unlimited statement's first rows, and the
		// GETs are those of the files read, fetched alone.
		fresh := newEnv(t, DefaultOptions())
		fresh.createLim(t, 4, 100)
		all := fresh.query(t, adminP, fmt.Sprintf("SELECT id, c2 FROM ds.lim WHERE %s", tc.where)).Batch
		if got, want := fingerprint(res.Batch), fingerprint(vector.SliceBatch(all, 0, tc.limit)); got != want {
			t.Errorf("%s:\n got  %s\n want %s", sql, got, want)
		}
		alone := newEnv(t, DefaultOptions())
		alone.createLim(t, 4, 100)
		before = alone.gets()
		alone.query(t, adminP, fmt.Sprintf("SELECT id, c2 FROM ds.lim WHERE %s AND id < %d", tc.where, 100*read))
		if want := alone.gets() - before; gets != want {
			t.Errorf("%s: %d GETs, want the %d of its %d files", sql, gets, want, read)
		}
	}
}

// TestLimitStopExclusions: the stop engages only when the scan's
// selection is the answer. Under a row policy, a predicate on a masked
// column, a WHERE with a conjunct the scan does not enforce exactly, an
// aggregate or an ORDER BY, every planned file is read.
func TestLimitStopExclusions(t *testing.T) {
	cases := []struct {
		name, sql string
		who       string
		setup     func(ev *env)
	}{
		{name: "row policy", sql: "SELECT id, c2 FROM ds.lim WHERE c2 < 50 LIMIT 10", who: "alice", setup: func(ev *env) {
			ev.auth.AddRowPolicy(adminP, "ds.lim", rowPolicy("c2 < 90"))
		}},
		{name: "masked-column predicate", sql: "SELECT id FROM ds.lim WHERE f < 10.0 LIMIT 10", who: "alice", setup: func(ev *env) {
			ev.auth.SetColumnPolicy(adminP, "ds.lim", columnMask("f"))
		}},
		{name: "non-exact WHERE", sql: "SELECT id, c2 FROM ds.lim WHERE c2 + 0 < 50 LIMIT 10"},
		{name: "aggregate", sql: "SELECT SUM(c2) AS s FROM ds.lim WHERE c2 < 50 LIMIT 10"},
		{name: "order by", sql: "SELECT id, c2 FROM ds.lim WHERE c2 < 50 ORDER BY id LIMIT 10"},
	}
	for _, tc := range cases {
		ev := newEnv(t, DefaultOptions())
		ev.createLim(t, 4, 100)
		who := adminP
		if tc.who != "" {
			who = aliceP
			if err := ev.auth.GrantTable(adminP, "ds.lim", aliceP, security.RoleViewer); err != nil {
				t.Fatal(err)
			}
		}
		if tc.setup != nil {
			tc.setup(ev)
		}
		stops := ev.eng.Obs.Counter("engine.limit_stops").Get()
		res := ev.query(t, who, tc.sql)
		if res.Stats.FilesScanned != 4 || ev.eng.Obs.Counter("engine.limit_stops").Get() != stops {
			t.Errorf("%s: %s read %d of 4 files", tc.name, tc.sql, res.Stats.FilesScanned)
		}
	}
}

// TestEncodedCompareIsIntegerExact: the scan's RLE and Dict kernels
// compare an integer column with an integer literal as integers, as the
// plain kernel does. Through float64, 2^53 and 2^53+1 are one value: an
// RLE chunk of 8,192 copies of 2^53+1 compared `> 2^53` would select
// none of them, and a Dict chunk of both values `= 2^53+1` both.
func TestEncodedCompareIsIntegerExact(t *testing.T) {
	ev := newEnv(t, DefaultOptions())
	const big = int64(1) << 53
	schema := vector.NewSchema(vector.Field{Name: "x", Type: vector.Int64})
	rle, dict := make([][]vector.Value, 8192), make([][]vector.Value, 8192)
	for i := range rle {
		rle[i] = []vector.Value{vector.IntValue(big + 1)}
		dict[i] = []vector.Value{vector.IntValue(big + int64(i%2))}
	}
	ev.createCustom(t, "r", schema, rle, 1)
	ev.createCustom(t, "d", schema, dict, 1)
	for _, tc := range []struct {
		sql  string
		rows int
	}{
		{fmt.Sprintf("SELECT x FROM ds.r WHERE x > %d", big), 8192},
		{fmt.Sprintf("SELECT x FROM ds.r WHERE x >= %d", big+1), 8192},
		{fmt.Sprintf("SELECT x FROM ds.r WHERE x < %d", big+1), 0},
		{fmt.Sprintf("SELECT x FROM ds.d WHERE x = %d", big+1), 4096},
		{fmt.Sprintf("SELECT x FROM ds.d WHERE x < %d", big+1), 4096},
	} {
		res := ev.query(t, adminP, tc.sql)
		if res.Batch.N != tc.rows {
			t.Errorf("%s: %d rows, want %d", tc.sql, res.Batch.N, tc.rows)
		}
	}
}

// TestExactPushdownRule: a conjunct the scan may not enforce exactly
// stays in the residual WHERE, and the answer is right. On a LEFT
// JOIN's NULL-extended side the residual drops the extended rows; a
// literal of another type and a NaN literal are not exact either. An
// integer past 2^53 is: every encoding compares it as an integer.
func TestExactPushdownRule(t *testing.T) {
	ev := newEnv(t, DefaultOptions())
	kv := vector.NewSchema(vector.Field{Name: "k", Type: vector.Int64}, vector.Field{Name: "x", Type: vector.Int64})
	ev.createCustom(t, "a", kv, [][]vector.Value{
		{vector.IntValue(1), vector.IntValue(5)}, {vector.IntValue(2), vector.IntValue(5)}, {vector.IntValue(3), vector.IntValue(6)},
	}, 1)
	ev.createCustom(t, "b", kv, [][]vector.Value{
		{vector.IntValue(1), vector.IntValue(5)}, {vector.IntValue(3), vector.IntValue(7)},
	}, 1)
	const big = int64(1)<<53 + 1
	rle := make([][]vector.Value, 8192)
	for i := range rle {
		rle[i] = []vector.Value{vector.IntValue(big), vector.FloatValue(1.5)}
	}
	ev.createCustom(t, "r", vector.NewSchema(vector.Field{Name: "x", Type: vector.Int64}, vector.Field{Name: "f", Type: vector.Float64}), rle, 1)

	cases := []struct {
		sql      string
		rows     int
		residual bool
	}{
		// No NULL-extended row survives a WHERE on the extended side.
		{"SELECT a.k, b.x FROM ds.a AS a LEFT JOIN ds.b AS b ON a.k = b.k WHERE b.x = 5", 1, true},
		// The preserved side's conjunct is exact.
		{"SELECT a.k, b.x FROM ds.a AS a LEFT JOIN ds.b AS b ON a.k = b.k WHERE a.x = 5", 2, false},
		{"SELECT a.k, b.x FROM ds.a AS a JOIN ds.b AS b ON a.k = b.k WHERE b.x = 7", 1, false},
		// A literal of another type.
		{"SELECT x FROM ds.r WHERE f = 1", 0, true},
		{"SELECT x FROM ds.r WHERE f = 1.5", 8192, false},
		// 2^53 and 2^53+1 are one float64, but two integers.
		{fmt.Sprintf("SELECT x FROM ds.r WHERE x = %d", big-1), 0, false},
		{fmt.Sprintf("SELECT x FROM ds.r WHERE x = %d", big), 8192, false},
		{"SELECT x FROM ds.r WHERE x > 0", 8192, false},
	}
	for _, tc := range cases {
		res, prof, err := ev.eng.ExplainAnalyze(NewContext(adminP, "q-exact"), tc.sql)
		if err != nil {
			t.Fatalf("%s: %v", tc.sql, err)
		}
		if res.Batch.N != tc.rows {
			t.Errorf("%s: %d rows, want %d", tc.sql, res.Batch.N, tc.rows)
		}
		if got := profileAttr(prof.Root, "filter", "in_rows") != ""; got != tc.residual {
			t.Errorf("%s: residual filter ran = %v, want %v\n%s", tc.sql, got, tc.residual, prof.Text())
		}
	}

	// The rule itself, on one plan of ds.r: what the parser cannot
	// write (NaN), and integers on either side of ±2^53.
	tbl, err := ev.cat.Table("ds.r")
	if err != nil {
		t.Fatal(err)
	}
	p := &scan.Plan{Source: scan.Source{Table: tbl}}
	for _, tc := range []struct {
		pred colfmt.Predicate
		want bool
	}{
		{colfmt.Predicate{Column: "f", Op: vector.EQ, Value: vector.FloatValue(math.NaN())}, false},
		{colfmt.Predicate{Column: "f", Op: vector.LE, Value: vector.FloatValue(math.Inf(1))}, true},
		{colfmt.Predicate{Column: "f", Op: vector.EQ, Value: vector.IntValue(1)}, false},
		{colfmt.Predicate{Column: "x", Op: vector.LT, Value: vector.IntValue(1<<53 - 1)}, true},
		{colfmt.Predicate{Column: "x", Op: vector.LT, Value: vector.IntValue(1 << 53)}, true},
		{colfmt.Predicate{Column: "x", Op: vector.GT, Value: vector.IntValue(-1<<53 + 1)}, true},
		{colfmt.Predicate{Column: "x", Op: vector.GT, Value: vector.IntValue(-1 << 53)}, true},
		{colfmt.Predicate{Column: "x", Op: vector.EQ, Value: vector.FloatValue(1)}, false},
		{colfmt.Predicate{Column: "nope", Op: vector.EQ, Value: vector.IntValue(1)}, false},
	} {
		if got := exact(p, tc.pred); got != tc.want {
			t.Errorf("exact(%v %v %v) = %v, want %v", tc.pred.Column, tc.pred.Op, tc.pred.Value, got, tc.want)
		}
	}
	// A hive partition column is consumed by pruning, never stored:
	// the table's declared one, or a key a planned file's path holds.
	part := tbl
	part.PartitionColumn = "x"
	x1 := colfmt.Predicate{Column: "x", Op: vector.EQ, Value: vector.IntValue(1)}
	if exact(&scan.Plan{Source: scan.Source{Table: part}}, x1) {
		t.Error("a conjunct on the declared partition column is exact")
	}
	if exact(&scan.Plan{Source: scan.Source{Table: tbl}, Files: []bigmeta.FileEntry{{Partition: map[string]string{"x": "1"}}}}, x1) {
		t.Error("a conjunct on a path's partition key is exact")
	}

	// Each conjunct's fate: of three, the one of another type remains;
	// on a NULL-extended side, or over a transaction overlay, all do.
	sel, err := sqlparse.ParseSelect("SELECT x FROM ds.r WHERE x > 0 AND f = 1 AND f < 2.0")
	if err != nil {
		t.Fatal(err)
	}
	conj := conjuncts(sel.Where, nil)
	for _, tc := range []struct {
		nullable, overlay bool
		want              string
	}{
		{false, false, "(f = 1)"},
		{true, false, sel.Where.String()},
		{false, true, sel.Where.String()},
	} {
		pd := pushdownFor(vector.Heap, conj, "ds.r", true, make([]bool, len(conj)), tc.nullable, -1)
		pd.enforce(p, tc.overlay)
		if got := residual(sel.Where, conj, pd.enforced); got == nil || got.String() != tc.want {
			t.Errorf("nullable=%v overlay=%v: residual of %s = %v, want %s", tc.nullable, tc.overlay, sel.Where, got, tc.want)
		}
	}
}

// rowPolicy grants alice the rows of one `column op literal` filter.
func rowPolicy(filter string) security.RowPolicy {
	sel, err := sqlparse.ParseSelect("SELECT 1 WHERE " + filter)
	if err != nil {
		panic(err)
	}
	return security.RowPolicy{Name: "rp", Grantees: map[security.Principal]bool{aliceP: true},
		Filter: pushdownFor(vector.Heap, conjuncts(sel.Where, nil), "", true, nil, false, -1).preds}
}

// columnMask masks column for everyone but the admin.
func columnMask(column string) security.ColumnPolicy {
	return security.ColumnPolicy{Column: column, Allowed: map[security.Principal]bool{adminP: true}, Mask: vector.MaskDefault}
}
