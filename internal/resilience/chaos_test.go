// Chaos soak: the whole stack (engine scans, metadata cache, storage
// read API) run a TPC-H workload against an object store injecting
// probabilistic transient faults and tail-latency slowdowns. The
// resilience layer must absorb nearly all of it; what it cannot absorb
// must surface as a cleanly classified error, and the injected chaos
// must never poison engine or cache state.
package resilience_test

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"biglake/internal/engine"
	"biglake/internal/exp"
	"biglake/internal/objstore"
	"biglake/internal/resilience"
	"biglake/internal/storageapi"
	"biglake/internal/workload"
)

const (
	soakRounds    = 20
	soakFaultRate = 0.03 // ISSUE acceptance point: 3% per-op fault rate
)

func newSoakEnv(t *testing.T) (*exp.Env, []workload.Query) {
	t.Helper()
	env, err := exp.NewEnv(engine.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.LoadTPCH(env.WEnv, workload.DefaultTPCH(1)); err != nil {
		t.Fatal(err)
	}
	return env, workload.TPCHQueries("bench")
}

// fingerprint summarizes a result batch for before/after comparison.
func fingerprint(res *engine.Result) string {
	if res.Batch.N == 0 {
		return "empty"
	}
	return fmt.Sprintf("n=%d first=%v last=%v", res.Batch.N, res.Batch.Row(0), res.Batch.Row(res.Batch.N-1))
}

func TestChaosSoakTPCH(t *testing.T) {
	env, queries := newSoakEnv(t)

	// Fault-free baseline results to compare against after the soak.
	baseline := map[string]string{}
	for _, q := range queries {
		res, err := env.Engine.Query(engine.NewContext(exp.Admin, "base-"+q.ID), q.SQL)
		if err != nil {
			t.Fatalf("baseline %s: %v", q.ID, err)
		}
		baseline[q.ID] = fingerprint(res)
	}

	goroutinesBefore := runtime.NumGoroutine()

	env.Store.InjectFaults(objstore.FaultProfile{
		Seed:         20260806,
		Rate:         soakFaultRate,
		StreakLen:    2,
		SlowdownRate: 0.02,
		Slowdown:     300 * time.Millisecond, // past HedgeAfter: exercises hedging
	})

	total, succeeded := 0, 0
	for round := 0; round < soakRounds; round++ {
		for _, q := range queries {
			total++
			ctx := engine.NewContext(exp.Admin, fmt.Sprintf("soak-%d-%s", round, q.ID))
			res, err := env.Engine.Query(ctx, q.SQL)
			if err == nil {
				succeeded++
				if got := fingerprint(res); got != baseline[q.ID] {
					t.Fatalf("round %d %s: wrong answer under faults:\n got %s\nwant %s", round, q.ID, got, baseline[q.ID])
				}
				continue
			}
			// A failure must be cleanly classified — a raw unclassified
			// error means a fault leaked around the resilience layer.
			if !errors.Is(err, objstore.ErrTransient) &&
				!errors.Is(err, resilience.ErrBudgetExhausted) &&
				!errors.Is(err, resilience.ErrDeadlineExceeded) {
				t.Fatalf("round %d %s: unclassified failure: %v", round, q.ID, err)
			}
		}
		// Exercise the Storage API read path under the same chaos.
		sess, err := env.Server.CreateReadSession(storageapi.ReadSessionRequest{
			Table: "bench.lineitem", Principal: exp.Admin,
		})
		if err == nil {
			if _, err := env.Server.ReadAll(sess); err != nil && !errors.Is(err, objstore.ErrTransient) &&
				!errors.Is(err, resilience.ErrBudgetExhausted) {
				t.Fatalf("round %d: unclassified read-api failure: %v", round, err)
			}
		} else if !errors.Is(err, objstore.ErrTransient) && !errors.Is(err, resilience.ErrBudgetExhausted) {
			t.Fatalf("round %d: unclassified session failure: %v", round, err)
		}
	}

	rate := float64(succeeded) / float64(total)
	t.Logf("soak: %d/%d queries succeeded (%.1f%%) at %.0f%% fault rate", succeeded, total, 100*rate, 100*soakFaultRate)
	if rate < 0.99 {
		t.Fatalf("success rate %.3f under chaos, want >= 0.99", rate)
	}

	// The injected chaos must have actually exercised the machinery.
	if env.Obs.Get("objstore.faults.injected") == 0 {
		t.Fatal("no faults injected; soak proved nothing")
	}
	if env.Obs.Get("resilience.retries") == 0 {
		t.Fatal("no retries counted")
	}

	// No state poisoning: with faults cleared, every query returns the
	// baseline answer.
	env.Store.ClearFaults()
	for _, q := range queries {
		res, err := env.Engine.Query(engine.NewContext(exp.Admin, "post-"+q.ID), q.SQL)
		if err != nil {
			t.Fatalf("post-soak %s: %v", q.ID, err)
		}
		if got := fingerprint(res); got != baseline[q.ID] {
			t.Fatalf("post-soak %s: state poisoned:\n got %s\nwant %s", q.ID, got, baseline[q.ID])
		}
	}

	// No goroutine leaks from the scan fan-out under injected failures.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > goroutinesBefore+2 && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutinesBefore+2 {
		t.Fatalf("goroutines grew %d -> %d during soak", goroutinesBefore, n)
	}
}

// TestChaosDeterministicAcrossRuns: the same workload under the same
// fault seed injects byte-identical fault sequences — goroutine
// interleaving in the parallel scan fan-out must not change what
// faults.
func TestChaosDeterministicAcrossRuns(t *testing.T) {
	var logs [2][]string
	for run := 0; run < 2; run++ {
		env, queries := newSoakEnv(t)
		env.Store.InjectFaults(objstore.FaultProfile{
			Seed: 7, Rate: 0.05, SlowdownRate: 0.05, Slowdown: 200 * time.Millisecond,
		})
		for round := 0; round < 5; round++ {
			for _, q := range queries {
				// Errors are fine here; only the fault sequence matters.
				env.Engine.Query(engine.NewContext(exp.Admin, fmt.Sprintf("d-%d-%s", round, q.ID)), q.SQL)
			}
		}
		logs[run] = env.Store.Obs().Events("objstore.faults")
	}
	if len(logs[0]) == 0 {
		t.Fatal("no faults injected")
	}
	if len(logs[0]) != len(logs[1]) {
		t.Fatalf("fault counts differ: %d vs %d", len(logs[0]), len(logs[1]))
	}
	for i := range logs[0] {
		if logs[0][i] != logs[1][i] {
			t.Fatalf("fault %d differs: %v vs %v", i, logs[0][i], logs[1][i])
		}
	}
}
