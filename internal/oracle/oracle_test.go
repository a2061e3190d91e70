package oracle

// Differential test entry points. Replay a failure with:
//
//	go test ./internal/oracle -run TestDifferential -seed=<n>
//
// The -trials/-queries flags widen the soak (the benchlake fuzz
// subcommand does the same from the CLI).

import (
	"flag"
	"math"
	"testing"

	"biglake/internal/obs"
	"biglake/internal/vector"
)

func tSchema() vector.Schema {
	return vector.NewSchema(
		vector.Field{Name: "k", Type: vector.Int64},
		vector.Field{Name: "s", Type: vector.String},
		vector.Field{Name: "f", Type: vector.Float64},
	)
}

var (
	seedFlag    = flag.Uint64("seed", 1, "differential fuzzer base seed")
	trialsFlag  = flag.Int("trials", 0, "worlds per run (0 = default)")
	queriesFlag = flag.Int("queries", 0, "queries per world per phase (0 = default)")
	serveFlag   = flag.Bool("serve", false, "also diff every SELECT through the serve session path")
)

// TestDifferential is the main cross-check: every generated query
// must return identical rows from the engine (under every cell of
// the acceleration matrix, pre and post compaction) and the oracle.
func TestDifferential(t *testing.T) {
	opts := Options{
		Seed:    *seedFlag,
		Trials:  *trialsFlag,
		Queries: *queriesFlag,
		Serve:   *serveFlag,
		Log:     t.Logf,
	}
	rep, err := Run(opts)
	if err != nil {
		t.Fatalf("differential run failed: %v", err)
	}
	if rep.Divergence != nil {
		t.Fatal(rep.Divergence.Format())
	}
	if rep.Queries < 200 {
		t.Fatalf("short-mode coverage too thin: %d generated queries (< 200)", rep.Queries)
	}
	if rep.ReadAPIAggSessions == 0 {
		t.Fatal("the Read API aggregate arm ran 0 sessions for generated statements")
	}
	if rep.LimitStops == 0 {
		t.Fatal("no LIMIT stopped a table read before its last file")
	}
	t.Logf("ok: %d trials, %d queries, %d engine executions, %d accepted fault errors, %d generated Read API aggregate sessions, %d LIMIT stops",
		rep.Trials, rep.Queries, rep.Executions, rep.FaultErrors, rep.ReadAPIAggSessions, rep.LimitStops)
}

// TestDifferentialServe routes every matrix SELECT through the serve
// session path (parse -> prepare -> admit -> paged cursor) alongside
// the direct library call: the server layer must never change an
// answer. A smaller campaign than TestDifferential since every SELECT
// runs twice per cell.
func TestDifferentialServe(t *testing.T) {
	rep, err := Run(Options{Seed: *seedFlag, Trials: 1, Queries: 24, Serve: true, Log: t.Logf})
	if err != nil {
		t.Fatalf("serve-mode differential run failed: %v", err)
	}
	if rep.Divergence != nil {
		t.Fatal(rep.Divergence.Format())
	}
	t.Logf("ok: %d queries, %d executions (serve arm included), %d accepted fault errors",
		rep.Queries, rep.Executions, rep.FaultErrors)
}

// TestDifferentialDeterministic asserts the whole campaign is a pure
// function of the seed: same seed, same counts, same outcome.
func TestDifferentialDeterministic(t *testing.T) {
	run := func() Report {
		rep, err := Run(Options{Seed: 42, Trials: 1, Queries: 16})
		if err != nil {
			t.Fatalf("run failed: %v", err)
		}
		return rep
	}
	a, b := run(), run()
	if a.Queries != b.Queries || a.Executions != b.Executions || a.FaultErrors != b.FaultErrors {
		t.Fatalf("non-deterministic: %+v vs %+v", a, b)
	}
	if (a.Divergence == nil) != (b.Divergence == nil) {
		t.Fatalf("non-deterministic divergence: %v vs %v", a.Divergence, b.Divergence)
	}
}

// FuzzDifferential lets `go test -fuzz` drive the seed space.
func FuzzDifferential(f *testing.F) {
	f.Add(uint64(1))
	f.Add(uint64(7))
	f.Add(uint64(1234567))
	f.Fuzz(func(t *testing.T, seed uint64) {
		rep, err := Run(Options{Seed: seed, Trials: 1, Queries: 10})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if rep.Divergence != nil {
			t.Fatal(rep.Divergence.Format())
		}
	})
}

// TestOracleSmoke pins a few hand-checked answers so the oracle
// itself has a baseline independent of the engine.
func TestOracleSmoke(t *testing.T) {
	db := NewDB()
	if _, err := db.ExecSQL("SELECT k FROM ds.missing"); err == nil {
		t.Fatal("unknown table should error")
	}
	mk := func(sqls ...string) {
		for _, s := range sqls {
			if _, err := db.ExecSQL(s); err != nil {
				t.Fatalf("%s: %v", s, err)
			}
		}
	}
	db.Add(&Table{Name: "ds.t", Schema: tSchema()})
	mk(
		"INSERT INTO ds.t VALUES (1, 'a', 2.5), (2, 'b', NULL), (2, 'a', 1.0)",
	)
	rs, err := db.ExecSQL("SELECT k, SUM(f) AS s FROM ds.t GROUP BY k ORDER BY k")
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 2 {
		t.Fatalf("groups = %d", len(rs.Rows))
	}
	if rs.Rows[0][1].F != 2.5 || rs.Rows[1][1].F != 1.0 {
		t.Fatalf("sums = %v / %v", rs.Rows[0][1], rs.Rows[1][1])
	}
	cnt, err := db.ExecSQL("SELECT COUNT(*) AS c FROM ds.t WHERE s = 'a'")
	if err != nil {
		t.Fatal(err)
	}
	if cnt.Rows[0][0].I != 2 {
		t.Fatalf("count = %v", cnt.Rows[0][0])
	}
	del, err := db.ExecSQL("DELETE FROM ds.t WHERE k = 2")
	if err != nil {
		t.Fatal(err)
	}
	if del.Rows[0][0].I != 2 {
		t.Fatalf("deleted = %v", del.Rows[0][0])
	}
}

// TestDifferentialWithProfiling re-runs a small differential matrix
// with span tracing enabled on every engine cell: profiling must not
// perturb results (zero divergences) and must actually record traces.
func TestDifferentialWithProfiling(t *testing.T) {
	tracer := &obs.Tracer{Cap: 32}
	rep, err := Run(Options{Seed: 7, Trials: 1, Queries: 12, Tracer: tracer})
	if err != nil {
		t.Fatalf("profiled run failed: %v", err)
	}
	if rep.Divergence != nil {
		t.Fatalf("profiling changed results:\n%s", rep.Divergence.Format())
	}
	traces := tracer.Traces()
	if len(traces) == 0 {
		t.Fatal("no traces recorded under profiling")
	}
	if len(traces) > 32 {
		t.Fatalf("tracer cap not honored: %d traces retained", len(traces))
	}
	for _, tr := range traces {
		root := tr.Root()
		if root == nil || !root.Ended() {
			t.Fatalf("trace %s has unfinished root", tr.QueryID)
		}
		if data, err := obs.ChromeTrace(tr); err != nil || len(data) == 0 {
			t.Fatalf("trace %s: chrome export failed: %v", tr.QueryID, err)
		}
	}
}

// TestDiffAnswerLimit pins how a LIMIT without ORDER BY is judged
// against its unlimited reference: a statement the battery orders (a
// bare LIMIT is in table order) must return the reference's first rows
// in order; any other returns any min(LIMIT, rows) of them.
func TestDiffAnswerLimit(t *testing.T) {
	rs := func(vs ...int64) *Resultset {
		out := &Resultset{Names: []string{"v"}, Types: []vector.Type{vector.Int64}}
		for _, v := range vs {
			out.Rows = append(out.Rows, []vector.Value{vector.IntValue(v)})
		}
		return out
	}
	want := rs(1, 2, 3, 4)
	for _, tc := range []struct {
		got     *Resultset
		ordered bool
		limit   int64
		ok      bool
	}{
		{rs(1, 2), true, 2, true},
		{rs(2, 1), true, 2, false},     // the prefix, out of order
		{rs(1, 3), true, 2, false},     // qualifying rows, not the prefix
		{rs(3, 1), false, 2, true},     // any two rows of the reference
		{rs(1, 1), false, 2, false},    // one row twice
		{rs(1, 2, 3), false, 2, false}, // more rows than the LIMIT
		{rs(1, 2, 3, 4), true, 9, true},
		{rs(1, 2, 3), false, 9, false}, // fewer than min(LIMIT, rows)
	} {
		if d := diffAnswer(tc.got, want, tc.ordered, tc.limit); (d == "") != tc.ok {
			t.Errorf("diffAnswer(%v, ordered=%v, LIMIT %d) = %q, want ok=%v", tc.got.Rows, tc.ordered, tc.limit, d, tc.ok)
		}
	}
}

// TestDiffResultsFoldsZeroSignInOrder: ORDER BY ranks −0 and 0 equal,
// so two rows that differ only in a zero's sign may come in either
// order; the ordered check folds the sign, and the rows are still
// compared as a multiset bit for bit.
func TestDiffResultsFoldsZeroSignInOrder(t *testing.T) {
	negZero := math.Copysign(0, -1)
	rs := func(fs ...float64) *Resultset {
		out := &Resultset{Names: []string{"f", "s"}, Types: []vector.Type{vector.Float64, vector.String}}
		for _, f := range fs {
			out.Rows = append(out.Rows, []vector.Value{vector.FloatValue(f), vector.StringValue("x")})
		}
		return out
	}
	for _, tc := range []struct {
		got, want *Resultset
		ordered   bool
		ok        bool
	}{
		{rs(negZero, 0), rs(0, negZero), true, true},
		{rs(negZero, 0), rs(0, negZero), false, true},
		{rs(0, 0), rs(negZero, 0), true, false},  // the same order, not the same rows
		{rs(0, 0), rs(negZero, 0), false, false}, // nor as a multiset
		{rs(1, negZero), rs(negZero, 1), true, false},
	} {
		if d := diffResults(tc.got, tc.want, tc.ordered); (d == "") != tc.ok {
			t.Errorf("diffResults(%v, %v, ordered=%v) = %q, want ok=%v", tc.got.Rows, tc.want.Rows, tc.ordered, d, tc.ok)
		}
	}
}
