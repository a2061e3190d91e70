package oracle

import (
	"flag"
	"testing"
)

var integSeed = flag.Uint64("integ-seed", 11, "integrity sweep base seed")

// TestIntegritySweep is the corruption-sweep gate: seeded silent
// corruption of GET responses across {scan cache, chaos, compaction}
// cells must never produce a wrong answer, every injected corruption
// campaign must be visible in the detected counters, and stored
// damage must end in quarantine, degrade under the explicit opt-in,
// and come back bit-identical after repair from a replica.
func TestIntegritySweep(t *testing.T) {
	rep, err := RunIntegritySweep(IntegrityOptions{
		Seed: *integSeed,
		Log:  t.Logf,
	})
	if err != nil {
		t.Fatalf("sweep: %v (report: %+v)", err, rep)
	}
	if rep.WrongAnswers != 0 {
		t.Fatalf("%d silent wrong answers: %s", rep.WrongAnswers, rep.WrongDetail)
	}
	if rep.Injected == 0 {
		t.Fatalf("corruption injector never fired (executions=%d)", rep.Executions)
	}
	if rep.Detected == 0 {
		t.Fatalf("injected %d corruptions, detected none — checksums are not being checked", rep.Injected)
	}
	// The engine's alternate-source re-fetch should have healed at
	// least some in-flight corruption: with response-level corruption
	// the second fetch is usually clean.
	if rep.IntegrityErrors+int(rep.Recovered) == 0 {
		t.Fatalf("no integrity errors and no recoveries with %d injected corruptions", rep.Injected)
	}
	// Both extra arms ran: external-engine reads in every phase, and
	// rewrites that committed between them.
	if rep.ReadAPIReads == 0 || rep.DMLApplied == 0 {
		t.Fatalf("read api arm made %d reads, dml arm applied %d statements", rep.ReadAPIReads, rep.DMLApplied)
	}
	// Stored-damage leg assertions.
	if rep.StoredQuarantine == 0 || !rep.SkippedRows || rep.Repaired == 0 || !rep.RepairVerified {
		t.Fatalf("stored-damage leg incomplete: %+v", rep)
	}
	t.Logf("sweep: %d executions (%d read api, %d dml applied), %d typed integrity failures, %d other errors, injected=%d detected=%d recovered=%d quarantines=%d repaired=%d",
		rep.Executions, rep.ReadAPIReads, rep.DMLApplied, rep.IntegrityErrors, rep.OtherErrors, rep.Injected, rep.Detected, rep.Recovered, rep.Quarantines, rep.Repaired)
}
