package oracle

// Interleaved-transaction oracle entry points. Replay a failure with:
//
//	go test ./internal/oracle -run TestTxnCrashSweep -seed=<n>
//
// (the -seed flag is shared with TestDifferential/TestCrashSweep.)

import (
	"strings"
	"testing"

	"biglake/internal/crashpoint"
)

// TestTxnInterleavedOracle runs several seeded interleaved schedules
// — sessions, autocommit statements and Optimize passes — crash-free:
// whatever subset of transactions commits, the state of every table at
// every log version must equal a serial execution of exactly the
// committed history in commit order, compactions changing nothing.
func TestTxnInterleavedOracle(t *testing.T) {
	seeds := []uint64{*seedFlag, 1, 2, 3, 11, 42, 1337}
	for _, seed := range seeds {
		if err := RunTxnOracle(seed, 4); err != nil {
			t.Fatalf("seed %d: %v\n  replay: go test ./internal/oracle -run TestTxnInterleavedOracle -seed=%d", seed, err, seed)
		}
	}
}

// TestTxnCrashSweep kills the "process" at every labeled step any
// transaction, autocommit statement or Optimize pass of the seeded
// schedule passes through (intent, data PUTs, seal), recovers from the journal + object store alone,
// re-drives the full schedule (sealed transactions no-op through
// their idempotency IDs), and requires a serializable, orphan-free
// converged state every time.
func TestTxnCrashSweep(t *testing.T) {
	rep, err := RunTxnCrashSweep(TxnSweepOptions{Seed: *seedFlag, Log: t.Logf})
	if err != nil {
		t.Fatalf("txn crash sweep failed to run: %v", err)
	}
	if rep.Failure != nil {
		t.Fatal(rep.Failure.Format())
	}
	if rep.Points == 0 {
		t.Fatal("sweep exercised no crash points")
	}
	if rep.Committed < 3 {
		t.Fatalf("record pass committed only %d transactions — schedule lost its write coverage", rep.Committed)
	}
	if rep.Optimized < 1 {
		t.Fatal("record pass sealed no Optimize swap — schedule lost its compaction coverage")
	}
	t.Logf("ok: %d txn crash points across %d labels, %d committed, %d compactions (replay seed=%d)",
		rep.Points, len(rep.Labels), rep.Committed, rep.Optimized, *seedFlag)
}

// TestTxnSweepFailureNamesItsReplay: a txn-sweep failure prints the
// command that replays it — TestTxnCrashSweep, not the crash sweep's
// test. A point the schedule never reaches is a failure of that sweep.
func TestTxnSweepFailureNamesItsReplay(t *testing.T) {
	const seed = 5
	fail := txnSweepOne(seed, GenTxnSchedule(seed, 3), crashpoint.Hit{Label: "no.such.step", N: 1})
	if fail == nil {
		t.Fatal("an unreachable crash point did not fail the sweep")
	}
	got := fail.Format()
	if want := "replay: go test ./internal/oracle -run TestTxnCrashSweep -seed=5"; !strings.Contains(got, want) {
		t.Fatalf("Format() =\n%s\nwant it to contain %q", got, want)
	}
	if !strings.HasPrefix(got, "TestTxnCrashSweep failure: seed=5 crash=no.such.step#1\n") {
		t.Fatalf("Format() =\n%s\nwant the txn sweep's header", got)
	}
}

// TestTxnScheduleDeterministic pins the generator: the same seed must
// yield the identical schedule (the crash sweep depends on re-driving
// an exact replay).
func TestTxnScheduleDeterministic(t *testing.T) {
	a, b := GenTxnSchedule(99, 4), GenTxnSchedule(99, 4)
	if len(a.steps) != len(b.steps) {
		t.Fatalf("step counts differ: %d vs %d", len(a.steps), len(b.steps))
	}
	for i := range a.steps {
		if a.steps[i] != b.steps[i] {
			t.Fatalf("step %d differs: %+v vs %+v", i, a.steps[i], b.steps[i])
		}
	}
	// Different seeds must actually vary the shape.
	c := GenTxnSchedule(100, 4)
	same := len(a.steps) == len(c.steps)
	if same {
		for i := range a.steps {
			if a.steps[i] != c.steps[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("seeds 99 and 100 generated identical schedules")
	}
}
