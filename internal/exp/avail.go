package exp

import (
	"errors"
	"fmt"
	"time"

	"biglake/internal/engine"
	"biglake/internal/objstore"
	"biglake/internal/resilience"
	"biglake/internal/workload"
)

// E13: availability under injected object-store faults. The TPC-H
// workload runs at increasing per-operation transient-fault rates,
// once with the resilience layer disabled (NoRetry — every fault
// surfaces to the query) and once with the default retry/hedging
// policy. The paper's lakehouse availability story rests on the engine
// absorbing storage-layer flakiness; this experiment quantifies how
// much absorption the unified policy buys and what it costs in
// retries.

// E13Row is one (fault rate, arm) measurement.
type E13Row struct {
	FaultRate float64
	Arm       string // "no-retry" or "resilient"
	Queries   int
	Succeeded int
	// SuccessRate is Succeeded/Queries.
	SuccessRate float64
	// Retries/Hedges are the policy counters spent across the arm.
	Retries int64
	Hedges  int64
	// FaultsInjected counts store-level injected faults seen by the arm.
	FaultsInjected int64
}

// E13Result is the availability-under-faults table.
type E13Result struct {
	Rows []E13Row
}

// e13Rates are the injected per-op transient-fault rates swept.
var e13Rates = []float64{0, 0.01, 0.03, 0.05}

// RunE13 sweeps fault rates over `rounds` repetitions of the TPC-H
// query set per arm.
func RunE13(scale, rounds int) (E13Result, error) {
	if rounds < 1 {
		rounds = 1
	}
	var out E13Result
	for _, rate := range e13Rates {
		for _, arm := range []string{"no-retry", "resilient"} {
			row, err := runE13Arm(scale, rounds, rate, arm)
			if err != nil {
				return E13Result{}, err
			}
			out.Rows = append(out.Rows, row)
		}
	}
	return out, nil
}

func runE13Arm(scale, rounds int, rate float64, arm string) (E13Row, error) {
	env, err := NewEnv(engine.DefaultOptions())
	if err != nil {
		return E13Row{}, err
	}
	if err := workload.LoadTPCH(env.WEnv, workload.DefaultTPCH(scale)); err != nil {
		return E13Row{}, err
	}
	if arm == "no-retry" {
		env.Engine.Res = resilience.NoRetry()
	}
	queries := workload.TPCHQueries("bench")

	// Warm the metadata cache fault-free so both arms start identically.
	for _, q := range queries {
		if _, err := env.Engine.Query(engine.NewContext(Admin, "warm-"+q.ID), q.SQL); err != nil {
			return E13Row{}, err
		}
	}

	env.Store.InjectFaults(objstore.FaultProfile{
		Seed:         1337,
		Rate:         rate,
		StreakLen:    2,
		SlowdownRate: rate / 2,
		Slowdown:     300 * time.Millisecond,
	})
	// env.Obs may be shared across arms (the CLI's hook installs one
	// registry for the whole experiment), so the arm reports deltas:
	// each counter starts at minus its value now and gains its value at
	// the end.
	row := E13Row{
		FaultRate: rate, Arm: arm,
		Retries:        -env.Obs.Get("resilience.retries"),
		Hedges:         -env.Obs.Get("resilience.hedges"),
		FaultsInjected: -env.Obs.Get("objstore.faults.injected"),
	}
	for round := 0; round < rounds; round++ {
		for _, q := range queries {
			row.Queries++
			ctx := engine.NewContext(Admin, fmt.Sprintf("e13-%d-%s", round, q.ID))
			if _, err := env.Engine.Query(ctx, q.SQL); err == nil {
				row.Succeeded++
			} else if !errors.Is(err, objstore.ErrTransient) &&
				!errors.Is(err, resilience.ErrBudgetExhausted) &&
				!errors.Is(err, resilience.ErrDeadlineExceeded) {
				return E13Row{}, fmt.Errorf("e13 %s rate %.2f: unclassified failure: %w", arm, rate, err)
			}
		}
	}
	row.SuccessRate = float64(row.Succeeded) / float64(row.Queries)
	row.Retries += env.Obs.Get("resilience.retries")
	row.Hedges += env.Obs.Get("resilience.hedges")
	row.FaultsInjected += env.Obs.Get("objstore.faults.injected")
	return row, nil
}
