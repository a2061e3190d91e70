package engine

import (
	"fmt"
	"testing"

	"biglake/internal/obs"
)

// TestArenaResultOutlivesRecycle is the lifetime regression test for
// the arena path (run under -race by `make gclean`): a result batch
// handed across the Execute boundary must stay valid and unchanged
// while later queries recycle the same pooled arena and scribble over
// its slabs. A missing Detach anywhere on the result path shows up
// here as corrupted values (or a race report).
func TestArenaResultOutlivesRecycle(t *testing.T) {
	ev := newEnv(t, DefaultOptions())
	starWorld(t, ev)

	held := ev.query(t, adminP, starJoinSQL)
	want := fingerprint(held.Batch)
	for _, c := range held.Batch.Cols {
		if c.Pooled {
			t.Fatalf("result column escaped with Pooled set — not detached")
		}
	}

	// Recycle the arena with a different, string-heavy workload. Each
	// query grabs the pooled arena, bump-allocates over the same slabs,
	// and releases it.
	for q := 0; q < 6; q++ {
		ev.query(t, adminP, fmt.Sprintf(
			"SELECT k2, COUNT(*) AS n FROM ds.fct WHERE v >= %d GROUP BY k2 ORDER BY k2", q))
	}

	if got := fingerprint(held.Batch); got != want {
		t.Fatalf("held result changed after arena recycle:\nbefore:\n%s\nafter:\n%s", want, got)
	}
}

// TestArenaLimitResultOutlivesRecycle is the same property for LIMIT
// without ORDER BY: the result is a prefix slice (vector.Slice) of
// arena-backed scan/filter output, so it must carry the Pooled mark
// across the slice or the copy-out at the Execute boundary skips it
// and the next statement overwrites the rows a client is holding.
func TestArenaLimitResultOutlivesRecycle(t *testing.T) {
	ev := newEnv(t, DefaultOptions())
	starWorld(t, ev)

	for _, sql := range []string{
		"SELECT v, price FROM ds.fct WHERE v >= 10 LIMIT 7", // plain columns out of the filter
		"SELECT k2, k1 FROM ds.fct LIMIT 7",                 // dict strings out of the multi-file merge
		"SELECT * FROM ds.fct LIMIT 7",
	} {
		held := ev.query(t, adminP, sql)
		if held.Batch.N != 7 {
			t.Fatalf("%q returned %d rows, want 7", sql, held.Batch.N)
		}
		want := fingerprint(held.Batch)

		// Different shapes and values through the same pooled arena. The
		// dm filter runs last: a later fct scan would merge the same
		// bytes back to the same slab offsets and hide the aliasing.
		for q := 0; q < 4; q++ {
			ev.query(t, adminP, starJoinSQL)
			ev.query(t, adminP, fmt.Sprintf("SELECT price, v, k2, k1 FROM ds.fct WHERE v >= %d", 100+q))
			ev.query(t, adminP, fmt.Sprintf("SELECT k1, k2, name FROM ds.dm WHERE k1 >= %d", 5+q))
		}

		if got := fingerprint(held.Batch); got != want {
			t.Fatalf("held %q result changed after arena recycle:\nbefore:\n%s\nafter:\n%s", sql, want, got)
		}
	}
}

// TestArenaObservability checks the two satellite surfaces: the
// execute span carries arena_bytes in EXPLAIN ANALYZE profiles, and
// the registry gauges mirror the pool (bytes retained, queries served
// by a recycled arena).
func TestArenaObservability(t *testing.T) {
	ev := newEnv(t, DefaultOptions())
	starWorld(t, ev)
	reg := obs.NewRegistry()
	ev.eng.UseObs(reg)

	// First query: fresh arena. Second: recycled.
	ev.query(t, adminP, starJoinSQL)
	_, prof, err := ev.eng.ExplainAnalyze(NewContext(adminP, "q-arena"), starJoinSQL)
	if err != nil {
		t.Fatal(err)
	}

	var arenaAttr string
	var walk func(n *obs.ProfileNode)
	walk = func(n *obs.ProfileNode) {
		if n.Name == "execute" && n.Attrs["arena_bytes"] != "" {
			arenaAttr = n.Attrs["arena_bytes"]
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(prof.Root)
	if arenaAttr == "" || arenaAttr == "0" {
		t.Fatalf("execute span missing arena_bytes attribute (got %q)", arenaAttr)
	}

	if v := reg.Gauge("arena.bytes_in_use").Get(); v <= 0 {
		t.Fatalf("arena.bytes_in_use = %d, want > 0 (pool retains slabs between queries)", v)
	}
	if v := reg.Gauge("arena.recycled").Get(); v < 1 {
		t.Fatalf("arena.recycled = %d, want >= 1 (second query should reuse the arena)", v)
	}
}

// TestGCLeanTxnContextReuse pins the ctx.mem reset in Execute's arena
// cleanup: a QueryContext reused across statements (the transaction
// session pattern) must get a fresh arena per statement, never a
// stale released one.
func TestGCLeanTxnContextReuse(t *testing.T) {
	ev := newEnv(t, DefaultOptions())
	starWorld(t, ev)
	ctx := NewContext(adminP, "q-reuse")
	var prev string
	for i := 0; i < 4; i++ {
		res, err := ev.eng.Query(ctx, starJoinSQL)
		if err != nil {
			t.Fatal(err)
		}
		fp := fingerprint(res.Batch)
		if i > 0 && fp != prev {
			t.Fatalf("statement %d on reused context diverged", i)
		}
		prev = fp
	}
}
