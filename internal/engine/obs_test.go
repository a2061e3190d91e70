package engine

import (
	"encoding/json"
	"strings"
	"testing"

	"biglake/internal/obs"
	"biglake/internal/vector"
)

// starJoinSQL is the golden EXPLAIN ANALYZE workload: scan two tables,
// hash-join, aggregate, order.
const starJoinSQL = `SELECT f.k2, COUNT(*) AS n, SUM(f.v) AS s
	FROM ds.fct AS f JOIN ds.dm AS d ON f.k1 = d.k1 AND f.k2 = d.k2
	GROUP BY f.k2 ORDER BY f.k2`

// TestExplainAnalyzeStarJoin pins the profile against engine.Stats:
// the span tree's timings and per-operator rows must agree with the
// executor's own accounting.
func TestExplainAnalyzeStarJoin(t *testing.T) {
	ev := newEnv(t, DefaultOptions())
	starWorld(t, ev)

	ctx := NewContext(adminP, "q-explain")
	res, prof, err := ev.eng.ExplainAnalyze(ctx, starJoinSQL)
	if err != nil {
		t.Fatal(err)
	}
	if prof == nil || prof.Root == nil {
		t.Fatal("no profile built")
	}

	// Root simulated time is the query's simulated latency.
	if prof.SimTime != res.Stats.SimElapsed {
		t.Fatalf("profile sim %v != Stats.SimElapsed %v", prof.SimTime, res.Stats.SimElapsed)
	}

	// Per-operator rows: scans sum to RowsScanned, the aggregate
	// produces the result rows.
	var scanRows, scanBytes, aggRows, joinSpans int64
	var walk func(n *obs.ProfileNode)
	walk = func(n *obs.ProfileNode) {
		switch {
		case strings.HasPrefix(n.Name, "scan "):
			scanRows += n.Rows
			scanBytes += n.Bytes
		case n.Name == "aggregate":
			aggRows = n.Rows
		case n.Name == "join":
			joinSpans++
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(prof.Root)
	if scanRows != res.Stats.RowsScanned {
		t.Fatalf("scan span rows %d != Stats.RowsScanned %d", scanRows, res.Stats.RowsScanned)
	}
	if scanBytes != res.Stats.BytesScanned {
		t.Fatalf("scan span bytes %d != Stats.BytesScanned %d", scanBytes, res.Stats.BytesScanned)
	}
	if joinSpans != 1 {
		t.Fatalf("expected 1 join span, got %d", joinSpans)
	}
	if aggRows != int64(res.Batch.N) {
		t.Fatalf("aggregate span rows %d != result rows %d", aggRows, res.Batch.N)
	}

	// Text rendering carries the header and a dominant-cost marker.
	text := prof.Text()
	if !strings.Contains(text, "EXPLAIN ANALYZE") || !strings.Contains(text, "*") {
		t.Fatalf("profile text missing header or dominant marker:\n%s", text)
	}
	// JSON rendering round-trips.
	data, err := prof.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back obs.Profile
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("profile JSON does not round-trip: %v", err)
	}
	if back.Root.Name != "query" {
		t.Fatalf("unexpected root name %q", back.Root.Name)
	}

	// The profile says which kernels ran. No two star-world dimension
	// rows share a (k1, k2), so its join probes N:1 — but fact rows with a
	// NULL k2 match nothing, so no column passes through. In the N:1
	// world every fact row matches one of a 16-key dimension, whose
	// range makes the build table direct-address, and the GROUP BY key
	// reaches the aggregate as dictionary codes gathered through the join.
	for _, want := range [][2]string{{"strategy", "n1"}, {"passthrough_cols", "0"}} {
		if got := profileAttr(prof.Root, "join", want[0]); got != want[1] {
			t.Errorf("star world join %s = %q, want %q\n%s", want[0], got, want[1], text)
		}
	}
	n1World(t, ev, 3*vector.MorselRows/2, 2)
	_, prof, err = ev.eng.ExplainAnalyze(NewContext(adminP, "q-explain-n1"), n1StarSQL)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range [][3]string{
		{"join", "strategy", "dense"},
		{"join", "passthrough_cols", "3"},
		{"join", "build_cols", "1"}, // d.grp; the key d.k is read by nothing after the join
		{"aggregate", "grouping", "dict"},
	} {
		if got := profileAttr(prof.Root, want[0], want[1]); got != want[2] {
			t.Errorf("%s %s = %q, want %q\n%s", want[0], want[1], got, want[2], prof.Text())
		}
	}
}

// profileAttr returns attribute key of the first profile node called
// name ("" if there is none).
func profileAttr(n *obs.ProfileNode, name, key string) string {
	if n.Name == name {
		return n.Attrs[key]
	}
	for _, c := range n.Children {
		if v := profileAttr(c, name, key); v != "" {
			return v
		}
	}
	return ""
}

// TestQuerySpanTree drives a real query through a Tracer and checks
// the span-tree invariants the instrumentation promises.
func TestQuerySpanTree(t *testing.T) {
	ev := newEnv(t, DefaultOptions())
	starWorld(t, ev)
	tracer := &obs.Tracer{}
	ev.eng.Tracer = tracer

	if _, err := ev.eng.Query(NewContext(adminP, "q-span"), starJoinSQL); err != nil {
		t.Fatal(err)
	}
	tr := tracer.Last()
	if tr == nil {
		t.Fatal("no trace recorded")
	}
	root := tr.Root()
	if !root.Ended() {
		t.Fatal("root span not ended")
	}
	names := map[string]int{}
	root.Walk(func(s *obs.Span) {
		names[s.Name()]++
		if !s.Ended() {
			t.Errorf("span %q not ended", s.Name())
		}
		for _, c := range s.Children() {
			if c.Start() < s.Start() {
				t.Errorf("child %q starts before parent %q", c.Name(), s.Name())
			}
			if c.EndTime() > s.EndTime() {
				t.Errorf("child %q (end %v) outlives parent %q (end %v)",
					c.Name(), c.EndTime(), s.Name(), s.EndTime())
			}
		}
	})
	for _, want := range []string{"parse", "execute", "scan ds.fct", "scan ds.dm", "join", "aggregate", "order_by"} {
		if names[want] == 0 {
			t.Errorf("missing span %q (have %v)", want, names)
		}
	}
	// Per-file read spans carry lanes and byte counts.
	reads := tr.Find("read fct/part-000.blk")
	if len(reads) != 1 {
		t.Fatalf("read spans for part-000: %d", len(reads))
	}
	if b, ok := reads[0].IntAttr("bytes"); !ok || b <= 0 {
		t.Fatalf("read span bytes attr = %d, %v", b, ok)
	}

	// Disabled tracing records nothing and Query still works.
	ev.eng.Tracer = nil
	if _, err := ev.eng.Query(NewContext(adminP, "q-notrace"), starJoinSQL); err != nil {
		t.Fatal(err)
	}
	if got := len(tracer.Traces()); got != 1 {
		t.Fatalf("traces after disabling = %d", got)
	}
}

// TestChromeTraceFromQuery exports a real query's trace and checks the
// Chrome trace-event schema (what Perfetto/about://tracing load).
func TestChromeTraceFromQuery(t *testing.T) {
	ev := newEnv(t, DefaultOptions())
	starWorld(t, ev)
	tracer := &obs.Tracer{}
	ev.eng.Tracer = tracer
	if _, err := ev.eng.Query(NewContext(adminP, "q-chrome"), starJoinSQL); err != nil {
		t.Fatal(err)
	}
	data, err := obs.ChromeTrace(tracer.Traces()...)
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("chrome trace is not a JSON array: %v", err)
	}
	if len(events) < 5 {
		t.Fatalf("suspiciously few events: %d", len(events))
	}
	var complete int
	for _, e := range events {
		switch e["ph"] {
		case "X":
			complete++
			for _, k := range []string{"name", "ts", "dur", "pid", "tid"} {
				if _, ok := e[k]; !ok {
					t.Fatalf("complete event missing %q: %v", k, e)
				}
			}
		case "M":
		default:
			t.Fatalf("unexpected phase %v", e["ph"])
		}
	}
	if complete == 0 {
		t.Fatal("no complete (X) events")
	}
}

// TestEngineRegistryCounters checks the engine mirrors its scan stats
// into the registry under dotted names.
func TestEngineRegistryCounters(t *testing.T) {
	ev := newEnv(t, DefaultOptions())
	starWorld(t, ev)
	res := ev.query(t, adminP, `SELECT COUNT(*) AS n FROM ds.fct`)
	_ = res
	if got := ev.eng.Obs.Get("engine.queries"); got != 1 {
		t.Fatalf("engine.queries = %d", got)
	}
	if got := ev.eng.Obs.Get("engine.scan.rows"); got != 400 {
		t.Fatalf("engine.scan.rows = %d", got)
	}
	if got := ev.store.Obs().Get("objstore.get.count"); got == 0 {
		t.Fatal("objstore.get.count not incremented")
	}
	snap := ev.eng.Obs.Snapshot()
	if snap.Histograms["engine.query.sim_elapsed_us"].Count != 1 {
		t.Fatalf("sim_elapsed histogram count = %d", snap.Histograms["engine.query.sim_elapsed_us"].Count)
	}
}
