package serve_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"biglake/internal/security"
	. "biglake/internal/serve"
	"biglake/internal/systables"
	"biglake/internal/vector"
)

// drain runs sql on sess and returns its whole result.
func drain(t *testing.T, sess *Session, sql string) *vector.Batch {
	t.Helper()
	cur, err := sess.Query(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	b, err := cur.All()
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return b
}

func collect(t *testing.T, cur *Cursor) [][]string {
	t.Helper()
	b, err := cur.All()
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]string, b.N)
	for i := 0; i < b.N; i++ {
		row := make([]string, len(b.Cols))
		for j, c := range b.Cols {
			v := c.Value(i)
			switch {
			case v.S != "":
				row[j] = v.S
			default:
				row[j] = fmt.Sprint(v.I)
			}
		}
		out[i] = row
	}
	return out
}

// TestSelfObservation is the satellite regression: a query over
// system.jobs issued through a serve session must (a) see every
// previously closed statement, (b) not see itself (it is recorded at
// cursor close, after its scan), and (c) record itself exactly once,
// visible to the next query. Run under -race this also proves the
// registry/ring locking cannot deadlock against the scan's snapshot.
func TestSelfObservation(t *testing.T) {
	ev := newEnv(t, Config{})
	ev.createTable(t, "t")
	ev.seedRows(t, "t", 8)

	sess := ev.open(t, adminP)
	defer sess.Close()

	cur, err := sess.Query("SELECT id FROM ds.t WHERE id = 3")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cur.All(); err != nil {
		t.Fatal(err)
	}

	jobs := ev.Engine.Sys.Jobs()
	served := 0
	for _, j := range jobs {
		if j.Principal == string(adminP) && j.Kind == "select" {
			served++
		}
	}
	if served != 1 {
		t.Fatalf("jobs after one served select = %d, want 1", served)
	}

	// The system.jobs query itself: its scan must not include its own
	// record, and afterwards it must appear exactly once.
	cur, err = sess.Query("SELECT query_id, state FROM system.jobs WHERE kind = 'select'")
	if err != nil {
		t.Fatal(err)
	}
	rows := collect(t, cur)
	if len(rows) != 1 {
		t.Fatalf("system.jobs sees %d select jobs during its own scan, want 1 (not itself)", len(rows))
	}

	cur, err = sess.Query("SELECT query_id FROM system.jobs WHERE kind = 'select'")
	if err != nil {
		t.Fatal(err)
	}
	rows = collect(t, cur)
	if len(rows) != 2 {
		t.Fatalf("system.jobs select jobs after self-query closed = %d, want 2 (recorded exactly once)", len(rows))
	}

	// Concurrent hammering: sessions querying system.jobs while other
	// sessions record — no deadlock, no race (the -race run proves it).
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s, err := ev.srv.Open(adminP, fmt.Sprintf("w%d", w))
			if err != nil {
				t.Error(err)
				return
			}
			defer s.Close()
			for i := 0; i < 20; i++ {
				sql := "SELECT query_id FROM system.jobs"
				if i%2 == 1 {
					sql = "SELECT id FROM ds.t WHERE id = 1"
				}
				cur, err := s.Query(sql)
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := cur.All(); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestServeShedRecorded: admission rejections land in system.jobs as
// state=shed with a classified cause and never consume a query ID from
// the retry-budget sequence.
func TestServeShedRecorded(t *testing.T) {
	ev := newEnv(t, Config{MaxConcurrent: 1, MaxQueue: 1})
	ev.createTable(t, "t")
	ev.seedRows(t, "t", 4)

	sess := ev.open(t, adminP)
	defer sess.Close()

	// Hold the only slot with an open cursor, queue one, then overflow.
	hold, err := sess.Query("SELECT id FROM ds.t WHERE id = 1")
	if err != nil {
		t.Fatal(err)
	}
	var queued, shed int
	for i := 0; i < 3; i++ {
		p, err := sess.Parse("SELECT id FROM ds.t WHERE id = 2")
		if err != nil {
			t.Fatal(err)
		}
		p.ExecuteAt(ev.Clock.Now(), func(_ time.Duration, run func() (*Cursor, error), err error) {
			if err != nil {
				shed++
				return
			}
			queued++
			if run != nil {
				if cur, rerr := run(); rerr == nil {
					cur.Close()
				}
			}
		})
	}
	hold.Close()
	if shed == 0 {
		t.Fatal("no submissions shed with MaxQueue 1")
	}
	var shedRecs int
	for _, j := range ev.Engine.Sys.Jobs() {
		if j.State == systables.StateShed {
			shedRecs++
			if j.ErrorClass != "overload_queue_full" {
				t.Errorf("shed error class = %q", j.ErrorClass)
			}
			if j.Class != "point" {
				t.Errorf("shed class = %q, want point", j.Class)
			}
		}
	}
	if shedRecs != shed {
		t.Fatalf("shed records = %d, want %d", shedRecs, shed)
	}
}

// TestServeSessionsAndSLOTables: system.sessions enumerates open
// sessions through SQL and serve's Config.SLOs override lands in
// system.slo.
func TestServeSessionsAndSLOTables(t *testing.T) {
	ev := newEnv(t, Config{SLOs: []systables.SLOTarget{
		{Class: "point", Objective: 5 * time.Millisecond, Target: 0.5},
	}})
	ev.createTable(t, "t")
	ev.seedRows(t, "t", 4)

	s1 := ev.open(t, adminP)
	defer s1.Close()
	s2 := ev.open(t, adminP)

	cur, err := s1.Query("SELECT session_id, principal FROM system.sessions ORDER BY session_id")
	if err != nil {
		t.Fatal(err)
	}
	rows := collect(t, cur)
	if len(rows) != 2 {
		t.Fatalf("system.sessions rows = %d, want 2", len(rows))
	}
	s2.Close()

	cur, err = s1.Query("SELECT session_id FROM system.sessions")
	if err != nil {
		t.Fatal(err)
	}
	if rows := collect(t, cur); len(rows) != 1 {
		t.Fatalf("system.sessions after close = %d rows, want 1", len(rows))
	}

	// The configured objective replaced the default.
	cur, err = s1.Query("SELECT class, objective_us FROM system.slo WHERE class = 'point'")
	if err != nil {
		t.Fatal(err)
	}
	b, err := cur.All()
	if err != nil {
		t.Fatal(err)
	}
	if b.N != 1 || b.Column("objective_us").Value(0).I != 5000 {
		t.Fatalf("point objective row = %+v", b)
	}
}

// TestServeRecordsOnce: a served statement is recorded exactly once —
// by the cursor, not additionally by engine.Execute.
func TestServeRecordsOnce(t *testing.T) {
	ev := newEnv(t, Config{})
	ev.createTable(t, "t")
	ev.seedRows(t, "t", 4)
	base := len(ev.Engine.Sys.Jobs())

	sess := ev.open(t, adminP)
	defer sess.Close()
	cur, err := sess.Query("SELECT id FROM ds.t WHERE id = 2")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(ev.Engine.Sys.Jobs()); got != base {
		t.Fatalf("job recorded before cursor close: %d vs base %d", got, base)
	}
	if _, err := cur.All(); err != nil { // All closes
		t.Fatal(err)
	}
	jobs := ev.Engine.Sys.Jobs()
	if got := len(jobs); got != base+1 {
		t.Fatalf("jobs after close = %d, want %d", got, base+1)
	}
	last := jobs[len(jobs)-1]
	if last.State != systables.StateDone || last.RowsReturned != 1 || last.BytesReturned == 0 {
		t.Fatalf("final record = %+v", last)
	}
	if last.SQL == "" || last.QueryID == "" {
		t.Fatalf("record missing identity: %+v", last)
	}
	// Closing again must not double-record.
	cur.Close()
	if got := len(ev.Engine.Sys.Jobs()); got != base+1 {
		t.Fatalf("double close double-recorded: %d", got)
	}
}

// TestSystemJobsThroughSession drives SELECTs over system.jobs through
// a serve session, the door that records them: each closed statement is
// one row with its class, SQL text and scan counts, the jobs query
// records itself once, the SLO tracker counts the rows per class, and
// aggregation over the ring goes through the normal kernels.
func TestSystemJobsThroughSession(t *testing.T) {
	ev := newEnv(t, Config{})
	ev.createTable(t, "t")
	ev.seedRows(t, "t", 200)
	sess := ev.open(t, adminP)
	defer sess.Close()

	// Two user queries to populate the jobs ring: one point, one olap.
	drain(t, sess, "SELECT id FROM ds.t WHERE id = 7")
	drain(t, sess, "SELECT v, COUNT(*) AS n FROM ds.t GROUP BY v")

	b := drain(t, sess, "SELECT query_id, sql, class, state, rows_scanned FROM system.jobs WHERE state = 'done'")
	if b.N != 2 {
		t.Fatalf("system.jobs rows = %d, want 2", b.N)
	}
	classes := b.Column("class")
	if got := classes.Value(0).S; got != "point" {
		t.Errorf("first job class = %q, want point", got)
	}
	if got := classes.Value(1).S; got != "olap" {
		t.Errorf("second job class = %q, want olap", got)
	}
	if sqlText := b.Column("sql").Value(0).S; sqlText == "" {
		t.Errorf("job record lost its SQL text")
	}
	if rows := b.Column("rows_scanned").Value(1).I; rows != 200 {
		t.Errorf("olap job rows_scanned = %d, want 200", rows)
	}

	// The jobs query above recorded itself: ring grows by exactly one.
	if b = drain(t, sess, "SELECT query_id FROM system.jobs"); b.N != 3 {
		t.Fatalf("system.jobs rows after self-query = %d, want 3", b.N)
	}

	// system.slo totals the recorded rows per class.
	b = drain(t, sess, "SELECT class, total, attainment FROM system.slo ORDER BY class")
	byClass := map[string]int64{}
	for i := 0; i < b.N; i++ {
		byClass[b.Column("class").Value(i).S] = b.Column("total").Value(i).I
	}
	if byClass["point"] < 2 || byClass["olap"] < 1 {
		t.Errorf("slo totals = %v, want point >= 2 and olap >= 1", byClass)
	}

	// Aggregation over a system table goes through the normal kernels.
	if b = drain(t, sess, "SELECT state, COUNT(*) AS n FROM system.jobs GROUP BY state ORDER BY state"); b.N == 0 {
		t.Fatal("aggregate over system.jobs returned no rows")
	}
}

// TestSystemTablesNoGovernance: telemetry is readable by any
// principal — no catalog entry, no grant, no row policy applies.
func TestSystemTablesNoGovernance(t *testing.T) {
	ev := newEnv(t, Config{})
	ev.createTable(t, "t")
	ev.seedRows(t, "t", 10)
	admin := ev.open(t, adminP)
	defer admin.Close()
	drain(t, admin, "SELECT id FROM ds.t WHERE id = 1")

	alice := ev.open(t, security.Principal("alice@corp"))
	defer alice.Close()
	if b := drain(t, alice, "SELECT query_id, principal FROM system.jobs"); b.N == 0 {
		t.Fatal("non-admin sees empty system.jobs")
	}
}

// TestSystemJobsDisabled: with recording off the ring stays frozen and
// scans still work.
func TestSystemJobsDisabled(t *testing.T) {
	ev := newEnv(t, Config{})
	ev.createTable(t, "t")
	ev.seedRows(t, "t", 10)
	ev.Engine.Sys.SetEnabled(false)
	sess := ev.open(t, adminP)
	defer sess.Close()
	drain(t, sess, "SELECT id FROM ds.t WHERE id = 1")
	if b := drain(t, sess, "SELECT query_id FROM system.jobs"); b.N != 0 {
		t.Fatalf("jobs recorded while disabled: %d", b.N)
	}
}

// TestServedDMLTimed: a served INSERT's row is timed from its own
// statement — its exec_sim_us is the execution its result reports, not
// the zero a DML result carried before its end was stamped.
func TestServedDMLTimed(t *testing.T) {
	ev := newEnv(t, Config{})
	ev.createTable(t, "t")
	res, err := ev.srv.Exec(adminP, "ins-1", "INSERT INTO ds.t VALUES (1, 10), (2, 20)")
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SimElapsed <= 0 {
		t.Fatalf("INSERT result SimElapsed = %v, want > 0", res.Stats.SimElapsed)
	}
	sess := ev.open(t, adminP)
	defer sess.Close()
	b := drain(t, sess, "SELECT kind, exec_sim_us FROM system.jobs WHERE query_id = 'ins-1'")
	if b.N != 1 || b.Column("kind").Value(0).S != "insert" {
		t.Fatalf("ins-1 rows = %d, want one insert row", b.N)
	}
	if got, want := b.Column("exec_sim_us").Value(0).I, res.Stats.SimElapsed.Microseconds(); got <= 0 || got != want {
		t.Fatalf("INSERT row exec_sim_us = %d, want its result's %d (> 0)", got, want)
	}
}
