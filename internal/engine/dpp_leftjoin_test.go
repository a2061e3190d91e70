package engine

// Dynamic partition pruning must never prune the preserved side of a
// LEFT JOIN: a left row without a match is still a result row
// (null-extended), so file-pruning the left table by the right
// side's key range would silently drop it. Today the only scan order
// that records such a range requires a WHERE conjunct on the right
// table — which happens to also drop the null-extended rows — but
// correctness must not hang on that accident (an IS NULL predicate
// or outer-aware filter pushdown would break it). These tests pin
// the invariant directly.

import (
	"testing"

	"biglake/internal/catalog"
	"biglake/internal/colfmt"
	"biglake/internal/vector"
)

// createFactsAndDim builds ds.facts (two files with disjoint key
// ranges, so DPP at file granularity could prune one) and ds.dim
// (keys covering only the second file's range, with a filterable
// column so the dimension scans first under DPP).
func createFactsAndDim(t *testing.T, ev *env) {
	t.Helper()
	factsSchema := vector.NewSchema(
		vector.Field{Name: "fk", Type: vector.Int64},
		vector.Field{Name: "fv", Type: vector.String},
	)
	writeFile := func(name string, schema vector.Schema, rows [][]vector.Value) {
		bl := vector.NewBuilder(schema)
		for _, r := range rows {
			bl.Append(r...)
		}
		data, err := colfmt.WriteFile(bl.Build(), colfmt.WriterOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ev.store.Put(ev.cred, "lake", name, data, "application/x-blk"); err != nil {
			t.Fatal(err)
		}
	}
	low := [][]vector.Value{}
	for k := int64(0); k < 10; k++ {
		low = append(low, []vector.Value{vector.IntValue(k), vector.StringValue("low")})
	}
	high := [][]vector.Value{}
	for k := int64(100); k < 110; k++ {
		high = append(high, []vector.Value{vector.IntValue(k), vector.StringValue("high")})
	}
	writeFile("facts/part-000.blk", factsSchema, low)
	writeFile("facts/part-001.blk", factsSchema, high)
	if err := ev.cat.CreateTable(catalog.Table{
		Dataset: "ds", Name: "facts", Type: catalog.BigLake, Schema: factsSchema,
		Cloud: "gcp", Bucket: "lake", Prefix: "facts/", Connection: "lake-conn",
		MetadataCaching: true,
	}); err != nil {
		t.Fatal(err)
	}

	dimSchema := vector.NewSchema(
		vector.Field{Name: "dk", Type: vector.Int64},
		vector.Field{Name: "dx", Type: vector.Int64},
	)
	dim := [][]vector.Value{}
	for k := int64(100); k < 110; k++ {
		dim = append(dim, []vector.Value{vector.IntValue(k), vector.IntValue(1)})
	}
	writeFile("dim/part-000.blk", dimSchema, dim)
	if err := ev.cat.CreateTable(catalog.Table{
		Dataset: "ds", Name: "dim", Type: catalog.BigLake, Schema: dimSchema,
		Cloud: "gcp", Bucket: "lake", Prefix: "dim/", Connection: "lake-conn",
		MetadataCaching: true,
	}); err != nil {
		t.Fatal(err)
	}
}

// TestDPPDoesNotPruneLeftJoinPreservedSide: the dimension's WHERE
// filter makes it scan first; its key range [100,110) must not prune
// the facts file holding keys 0..9.
func TestDPPDoesNotPruneLeftJoinPreservedSide(t *testing.T) {
	ev := newEnv(t, DefaultOptions())
	createFactsAndDim(t, ev)
	sql := "SELECT f.fk, d.dk FROM ds.facts AS f LEFT JOIN ds.dim AS d ON f.fk = d.dk WHERE d.dx >= 0"
	ctx := NewContext(adminP, "dpp-left")
	res, err := ev.eng.Query(ctx, sql)
	if err != nil {
		t.Fatal(err)
	}
	// The WHERE drops null-extended rows, so 10 matched rows remain —
	// but the preserved-side file must have been read, not pruned.
	if res.Batch.N != 10 {
		t.Fatalf("rows = %d, want 10", res.Batch.N)
	}
	if ctx.Stats.FilesPruned != 0 {
		t.Fatalf("FilesPruned = %d: DPP pruned the preserved side of a LEFT JOIN", ctx.Stats.FilesPruned)
	}

	// Same shape as an INNER join: now pruning the facts file IS the
	// optimization, and the row set is identical.
	ctx2 := NewContext(adminP, "dpp-inner")
	res2, err := ev.eng.Query(ctx2, "SELECT f.fk, d.dk FROM ds.facts AS f JOIN ds.dim AS d ON f.fk = d.dk WHERE d.dx >= 0")
	if err != nil {
		t.Fatal(err)
	}
	if res2.Batch.N != 10 {
		t.Fatalf("inner rows = %d, want 10", res2.Batch.N)
	}
	if ctx2.Stats.FilesPruned == 0 {
		t.Fatal("inner join should still DPP-prune the low-key facts file")
	}
}

// TestDPPStillPrunesLeftJoinRightSide: ranges learned from the
// preserved side may prune the joined side — rows there that cannot
// match simply never surface.
func TestDPPStillPrunesLeftJoinRightSide(t *testing.T) {
	ev := newEnv(t, DefaultOptions())
	createFactsAndDim(t, ev)
	// Filter facts so it scans first with keys 0..9; dim holds only
	// 100..109, so its sole file is prunable.
	sql := "SELECT f.fk, d.dk FROM ds.facts AS f LEFT JOIN ds.dim AS d ON f.fk = d.dk WHERE f.fv = 'low'"
	ctx := NewContext(adminP, "dpp-left-right")
	res, err := ev.eng.Query(ctx, sql)
	if err != nil {
		t.Fatal(err)
	}
	if res.Batch.N != 10 {
		t.Fatalf("rows = %d, want 10 null-extended", res.Batch.N)
	}
	dk := res.Batch.Column("dk")
	for r := 0; r < res.Batch.N; r++ {
		if !dk.Value(r).IsNull() {
			t.Fatalf("row %d: dk = %v, want NULL", r, dk.Value(r))
		}
	}
	if ctx.Stats.FilesPruned == 0 {
		t.Fatal("dim file outside the facts key range should be DPP-pruned")
	}
}

// TestDPPCapturesOnlyConsumableRanges: a join-key range costs a pass
// over the scanned side's key column, so it is captured only while a
// table scan that could prune by it is still to come — never after the
// last source, never for a side already scanned, never for the
// preserved side of a LEFT JOIN, never for a subquery (which takes no
// pushdown). Skipping the capture changes no result: every query
// returns what it returns with DPP off.
func TestDPPCapturesOnlyConsumableRanges(t *testing.T) {
	ev := newEnv(t, DefaultOptions())
	createFactsAndDim(t, ev)
	noDPP := DefaultOptions()
	noDPP.EnableDPP = false
	ref := newEnv(t, noDPP)
	createFactsAndDim(t, ref)

	for _, tc := range []struct {
		name, sql string
		captures  int64
		pruned    bool
	}{
		{"single table", "SELECT fk FROM ds.facts WHERE fk >= 100", 0, true},
		// dim scans first (filtered) and its range prunes facts; the
		// range of facts, scanned last, is for nobody.
		{"inner, dim first", "SELECT f.fk, d.dk FROM ds.facts AS f JOIN ds.dim AS d ON f.fk = d.dk WHERE d.dx >= 0", 1, true},
		// No filter: FROM order. facts' range prunes nothing of dim.
		{"inner, unfiltered", "SELECT f.fk, d.dk FROM ds.facts AS f JOIN ds.dim AS d ON f.fk = d.dk", 1, false},
		// The preserved side is never pruned (PR 2's guard), and by the
		// time it has been scanned nothing is left to prune.
		{"left join, dim first", "SELECT f.fk, d.dk FROM ds.facts AS f LEFT JOIN ds.dim AS d ON f.fk = d.dk WHERE d.dx >= 0", 0, false},
		{"left join, facts first", "SELECT f.fk, d.dk FROM ds.facts AS f LEFT JOIN ds.dim AS d ON f.fk = d.dk WHERE f.fv = 'low'", 1, true},
		{"subquery side", "SELECT f.fk, d.dk FROM ds.facts AS f JOIN (SELECT dk FROM ds.dim) AS d ON f.fk = d.dk WHERE f.fv = 'high'", 0, true},
	} {
		ctx := NewContext(adminP, "dpp-capture")
		res, err := ev.eng.Query(ctx, tc.sql)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if ctx.Stats.DPPCaptures != tc.captures {
			t.Errorf("%s: DPPCaptures = %d, want %d", tc.name, ctx.Stats.DPPCaptures, tc.captures)
		}
		if got := ctx.Stats.FilesPruned > 0; got != tc.pruned {
			t.Errorf("%s: FilesPruned = %d, want pruning = %v", tc.name, ctx.Stats.FilesPruned, tc.pruned)
		}
		want := ref.query(t, adminP, tc.sql)
		if fingerprint(res.Batch) != fingerprint(want.Batch) {
			t.Errorf("%s: result differs from the DPP-off engine", tc.name)
		}
	}
}
