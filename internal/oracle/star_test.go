package oracle

import (
	"fmt"
	"strings"
	"testing"

	"biglake/internal/engine"
	"biglake/internal/obs"
	"biglake/internal/serve"
	"biglake/internal/vector"
)

// The star world is a fixed-case input to the differential harness: a
// fact and a dimension with multi-column join keys, NULL keys on both
// sides, NULL measures, a dictionary-heavy group column, and an empty
// table. It is the world internal/engine's kernel tests run on
// (exec_vectorized_test.go); here the oracle, which shares no code
// with the engine, is the reference.
//
// All three are managed tables, so install fills them through chunked
// engine INSERTs (fct lands as 34 small files) and the post phase
// re-checks the same answers after Optimize coalesces them.
func starTables() []*GenTable {
	factSchema := vector.NewSchema(
		vector.Field{Name: "k1", Type: vector.Int64},
		vector.Field{Name: "k2", Type: vector.String},
		vector.Field{Name: "v", Type: vector.Int64},
		vector.Field{Name: "price", Type: vector.Float64},
	)
	grps := []string{"red", "green", "blue"}
	fct := &GenTable{Full: "ds.fct", Managed: true, Schema: factSchema}
	for i := 0; i < 400; i++ {
		k2 := vector.StringValue(grps[i%3])
		if i%17 == 0 {
			k2 = vector.NullValue // NULL join key: matches nothing
		}
		v := vector.IntValue(int64(i))
		if i%23 == 0 {
			v = vector.NullValue
		}
		fct.Rows = append(fct.Rows, []vector.Value{
			vector.IntValue(int64(i % 20)), k2, v,
			vector.FloatValue(float64(i%7) / 4),
		})
	}
	dm := &GenTable{Full: "ds.dm", Managed: true, Schema: vector.NewSchema(
		vector.Field{Name: "k1", Type: vector.Int64},
		vector.Field{Name: "k2", Type: vector.String},
		vector.Field{Name: "name", Type: vector.String},
	)}
	for i := 0; i < 30; i++ {
		k2 := vector.StringValue(grps[i%3])
		if i%11 == 0 {
			k2 = vector.NullValue
		}
		dm.Rows = append(dm.Rows, []vector.Value{
			vector.IntValue(int64(i % 22)), k2,
			vector.StringValue(fmt.Sprintf("dim-%d", i)),
		})
	}
	void := &GenTable{Full: "ds.void", Managed: true, Schema: factSchema}
	return []*GenTable{fct, dm, void}
}

// starSQL is every construct the vectorized kernels implement —
// multi-key joins, NULL join keys, LEFT JOIN null-extension,
// dict-encoded GROUP BY, empty inputs, LIMIT and top-K ORDER BY.
//
// Every query is compared as an exact row sequence, none as a
// multiset: the oracle defines an order for each — ORDER BY is a stable
// sort over first-encounter group order, GROUP BY alone emits groups
// in first-encounter order, a scan (and so a bare LIMIT) is in table
// order, and a join emits matches in probe order followed by the
// null-extended unmatched left rows. (The generated matrix compares
// such queries as multisets; this fixed battery also pins the order.)
var starSQL = []string{
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
	`SELECT f.k2, COUNT(*) AS n, SUM(f.v) AS s
		FROM ds.fct AS f JOIN ds.dm AS d ON f.k1 = d.k1 AND f.k2 = d.k2
		GROUP BY f.k2 ORDER BY f.k2`,
	`SELECT * FROM ds.fct ORDER BY v, k1, k2 LIMIT 7`,
	`SELECT k2, SUM(v) AS s, COUNT(*) AS n FROM ds.fct GROUP BY k2 ORDER BY k2`,
}

// TestDifferentialStarBattery runs the star battery against the oracle
// in every matrix cell, before and after compaction. Zero divergences,
// and no engine error outside the fault cells.
func TestDifferentialStarBattery(t *testing.T) {
	w, err := newWorld(engine.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rep := &Report{}
	h := &harness{
		w: w, db: NewDB(), seed: 1, rep: rep, logf: t.Logf,
		sessions: map[*engine.Engine]*serve.Session{},
	}
	tables := starTables()
	if err := h.install(tables); err != nil {
		t.Fatal(err)
	}
	// runMatrix accepts a statement both sides reject, so make sure the
	// reference answers every one.
	starBattery := make([]GenQuery, len(starSQL))
	for i, sql := range starSQL {
		starBattery[i] = GenQuery{SQL: sql, Ordered: true}
		if _, err := h.db.ExecSQL(sql); err != nil {
			t.Fatalf("oracle rejects %q: %v", sql, err)
		}
	}
	if d := h.runMatrix("pre", starBattery); d != nil {
		t.Fatal(d.Format())
	}
	for _, tb := range tables {
		if _, err := w.Manager.Optimize(string(diffAdmin), tb.Full, ""); err != nil {
			t.Fatalf("optimize %s: %v", tb.Full, err)
		}
	}
	if d := h.runMatrix("post", starBattery); d != nil {
		t.Fatal(d.Format())
	}
	t.Logf("ok: %d queries x %d cells x 2 phases = %d executions, %d accepted fault errors",
		len(starBattery), len(Matrix()), rep.Executions, rep.FaultErrors)
}

// TestStarFamilyReachesKernels keeps the generated star family honest:
// the reference must answer every statement (runMatrix accepts one both
// sides reject), and between them the statements must reach each join
// strategy, the pass-through and each grouping kernel — the data picks
// the kernel, so a family that stopped reaching one would stop testing
// it without a sound.
func TestStarFamilyReachesKernels(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		w, err := newWorld(engine.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		h := &harness{
			w: w, db: NewDB(), seed: seed, rep: &Report{}, logf: t.Logf,
			sessions: map[*engine.Engine]*serve.Session{},
		}
		tables := NewGen(seed).Tables()
		stars := NewGen(seed ^ 0x57A257A2)
		if err := h.install(append(tables, stars.StarTables()...)); err != nil {
			t.Fatal(err)
		}
		eng := h.engineFor(defaultCell())
		seen := map[string]bool{}
		for i, q := range stars.StarQueries(tables[len(tables)-1]) {
			if _, err := h.db.ExecSQL(q.SQL); err != nil {
				t.Fatalf("seed %d: oracle rejects %q: %v", seed, q.SQL, err)
			}
			_, prof, err := eng.ExplainAnalyze(engine.NewContext(diffAdmin, fmt.Sprintf("star-%d-%d", seed, i)), q.SQL)
			if err != nil {
				t.Fatalf("seed %d: %q: %v", seed, q.SQL, err)
			}
			var walk func(n *obs.ProfileNode)
			walk = func(n *obs.ProfileNode) {
				for _, key := range []string{"strategy", "grouping"} {
					if v := n.Attrs[key]; v != "" {
						seen[key+"="+v] = true
					}
				}
				if v := n.Attrs["passthrough_cols"]; v != "" && v != "0" {
					seen["passthrough"] = true
				}
				for _, c := range n.Children {
					walk(c)
				}
			}
			walk(prof.Root)
			// The density-cap keys are drawn to land on either side of it.
			for stmt, want := range map[string]string{"GROUP BY fx": "dense", "GROUP BY fz": "int64"} {
				if got := aggregateGrouping(prof.Root); strings.Contains(q.SQL, stmt) && got != want {
					t.Errorf("seed %d: %q grouped by %q, want %q", seed, q.SQL, got, want)
				}
			}
		}
		for _, want := range []string{"strategy=n1", "strategy=dense", "strategy=general", "passthrough", "grouping=dict", "grouping=int64", "grouping=dense", "grouping=hash"} {
			if !seen[want] {
				t.Errorf("seed %d: no star-family statement reached %s (reached %v)", seed, want, seen)
			}
		}
	}
}

// aggregateGrouping is the grouping kernel of the first aggregate span
// under n ("" if none).
func aggregateGrouping(n *obs.ProfileNode) string {
	if v := n.Attrs["grouping"]; v != "" {
		return v
	}
	for _, c := range n.Children {
		if v := aggregateGrouping(c); v != "" {
			return v
		}
	}
	return ""
}
