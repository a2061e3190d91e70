package serve_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"biglake/internal/engine"
	"biglake/internal/resilience"
	. "biglake/internal/serve"
	"biglake/internal/wal"
)

// gcConverged runs orphan GC until it deletes nothing, returning how
// many objects the first pass reclaimed; a second pass must always
// come back empty.
func gcConverged(t *testing.T, ev *env) int {
	t.Helper()
	rep, err := wal.GCOrphans(ev.Store, ev.ServiceAccount(), "bq-managed", []string{"blmt/"}, ev.Log)
	if err != nil {
		t.Fatal(err)
	}
	again, err := wal.GCOrphans(ev.Store, ev.ServiceAccount(), "bq-managed", []string{"blmt/"}, ev.Log)
	if err != nil {
		t.Fatal(err)
	}
	if len(again.Deleted) != 0 {
		t.Fatalf("GC did not converge: second pass deleted %v", again.Deleted)
	}
	return len(rep.Deleted)
}

// TestCancelMidResultStream kills a query between pages: the stream
// fails with the typed cancellation error, the admission hold is
// released, and nothing leaks.
func TestCancelMidResultStream(t *testing.T) {
	ev := newEnv(t, Config{PageRows: 2})
	ev.createTable(t, "t")
	ev.seedRows(t, "t", 10)
	sess := ev.open(t, adminP)
	defer sess.Close()

	cur, err := sess.Query("SELECT id, v FROM ds.t ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cur.Next(); err != nil {
		t.Fatal(err)
	}
	cur.Cancel()
	if _, err := cur.Next(); !errors.Is(err, resilience.ErrCanceled) {
		t.Fatalf("post-cancel Next: %v, want ErrCanceled", err)
	}
	// The failed Next released the admission hold.
	if running, mem, queued := ev.admState(); running != 0 || mem != 0 || queued != 0 {
		t.Fatalf("leaked admission state: running=%d mem=%d queued=%d", running, mem, queued)
	}
	if got := ev.Engine.Obs.Get("serve.canceled"); got != 1 {
		t.Fatalf("serve.canceled = %d", got)
	}
	// A canceled SELECT wrote nothing: zero orphans.
	if n := gcConverged(t, ev); n != 0 {
		t.Fatalf("mid-stream cancel left %d orphans", n)
	}
	// The session stays usable.
	cur2, err := sess.Query("SELECT id FROM ds.t")
	if err != nil {
		t.Fatalf("query after cancel: %v", err)
	}
	if got, err := cur2.All(); err != nil || got.N != 10 {
		t.Fatalf("after cancel: n=%v err=%v", got, err)
	}
}

// TestSessionCancelKillsInflightStream covers Session.Cancel: every
// in-flight query on the session dies at its next page fetch.
func TestSessionCancelKillsInflightStream(t *testing.T) {
	ev := newEnv(t, Config{PageRows: 2})
	ev.createTable(t, "t")
	ev.seedRows(t, "t", 8)
	sess := ev.open(t, adminP)
	defer sess.Close()

	cur, err := sess.Query("SELECT id FROM ds.t")
	if err != nil {
		t.Fatal(err)
	}
	sess.Cancel()
	if _, err := cur.Next(); !errors.Is(err, resilience.ErrCanceled) {
		t.Fatalf("Next after session cancel: %v", err)
	}
	if running, _, _ := ev.admState(); running != 0 {
		t.Fatalf("running = %d after cancel", running)
	}
}

// TestKillMidCommit aborts transactions at several points inside the
// commit protocol by bounding COMMIT with deadlines that expire
// between its journal/data/seal writes. Every abort must leave: a
// closed txn session, a released admission budget, an unchanged
// table, and an object store that orphan GC fully reclaims (second
// pass empty).
func TestKillMidCommit(t *testing.T) {
	deadlines := []time.Duration{
		1 * time.Microsecond, // before any durable write
		30 * time.Millisecond,
		60 * time.Millisecond,
		90 * time.Millisecond,
		120 * time.Millisecond,
	}
	aborts := 0
	for _, d := range deadlines {
		t.Run(d.String(), func(t *testing.T) {
			ev := newEnv(t, Config{})
			ev.createTable(t, "a")
			ev.createTable(t, "b")
			ev.seedRows(t, "a", 3)
			ev.seedRows(t, "b", 3)
			sess := ev.open(t, adminP)
			defer sess.Close()

			mustRun := func(q string) {
				t.Helper()
				cur, err := sess.Query(q)
				if err != nil {
					t.Fatalf("%s: %v", q, err)
				}
				cur.Close()
			}
			mustRun("BEGIN")
			mustRun("INSERT INTO ds.a VALUES (100, 1), (101, 2)")
			mustRun("INSERT INTO ds.b VALUES (200, 3)")

			p, err := sess.Parse("COMMIT")
			if err != nil {
				t.Fatal(err)
			}
			p.SetDeadline(d)
			cur, err := p.Execute()
			if err == nil {
				// Deadline outlasted the whole commit: fine, but then the
				// commit must be complete and visible.
				cur.Close()
				assertCount(t, ev, "a", 5)
				if n := gcConverged(t, ev); n != 0 {
					t.Fatalf("successful commit left %d orphans", n)
				}
				return
			}
			aborts++
			if resilience.Classify(err) != resilience.Deadline {
				t.Fatalf("kill error class = %v (%v), want deadline", resilience.Classify(err), err)
			}
			// Admission budget released by the error path.
			if running, mem, _ := ev.admState(); running != 0 || mem != 0 {
				t.Fatalf("leaked admission: running=%d mem=%d", running, mem)
			}
			// The txn session is closed and the principal can BEGIN anew.
			if sess.TxnOpen() {
				t.Fatal("txn still open after mid-commit kill")
			}
			mustRun("BEGIN")
			mustRun("ROLLBACK")
			// The table is unchanged...
			assertCount(t, ev, "a", 3)
			assertCount(t, ev, "b", 3)
			// ...and whatever debris the partial commit wrote is fully
			// reclaimed: GC converges with nothing left behind.
			gcConverged(t, ev)
			assertCount(t, ev, "a", 3)
			assertCount(t, ev, "b", 3)
		})
	}
	if aborts < 2 {
		t.Fatalf("only %d/%d deadlines aborted mid-commit; sweep needs retuning", aborts, len(deadlines))
	}
}

func assertCount(t *testing.T, ev *env, table string, want int) {
	t.Helper()
	res, err := ev.Engine.Query(engine.NewContext(adminP, fmt.Sprintf("count-%s-%d", table, ev.Clock.Now())),
		"SELECT id FROM ds."+table)
	if err != nil {
		t.Fatal(err)
	}
	if res.Batch.N != want {
		t.Fatalf("ds.%s rows = %d, want %d", table, res.Batch.N, want)
	}
}

// TestConcurrentCancelDuringCommit cancels from another goroutine
// while COMMIT runs. Whatever point the cancellation lands at, the
// invariants hold: either the commit completed atomically or it
// aborted with zero surviving orphans.
func TestConcurrentCancelDuringCommit(t *testing.T) {
	ev := newEnv(t, Config{})
	ev.createTable(t, "a")
	ev.seedRows(t, "a", 3)
	sess := ev.open(t, adminP)
	defer sess.Close()

	mustRun := func(q string) {
		t.Helper()
		cur, err := sess.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		cur.Close()
	}
	mustRun("BEGIN")
	mustRun("INSERT INTO ds.a VALUES (100, 1)")

	p, err := sess.Parse("COMMIT")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		cur, err := p.Execute()
		if err == nil {
			cur.Close()
		}
		done <- err
	}()
	sess.Cancel() // races the commit on purpose
	err = <-done

	if sess.TxnOpen() {
		t.Fatal("txn open after commit/cancel race")
	}
	if running, mem, _ := ev.admState(); running != 0 || mem != 0 {
		t.Fatalf("leaked admission: running=%d mem=%d", running, mem)
	}
	gcConverged(t, ev)
	if err == nil {
		assertCount(t, ev, "a", 4)
	} else {
		if resilience.Classify(err) != resilience.Deadline {
			t.Fatalf("cancel surfaced as %v (%v)", resilience.Classify(err), err)
		}
		assertCount(t, ev, "a", 3)
	}
}
