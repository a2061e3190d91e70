package exp

import (
	"fmt"
	"strings"
	"time"

	"biglake/internal/engine"
	"biglake/internal/obs"
)

// --- E16: observability — attributing the E15 star join's wall time
// to operator stages with trace spans, and the scan cache's sim-I/O
// savings with the metrics registry ---

// E16Stage is one executor stage's wall time.
type E16Stage struct {
	Name string
	Wall time.Duration
}

// E16Result attributes where the E15 query's time goes. The stage
// table is read straight off the per-operator trace spans, so it is
// the EXPLAIN ANALYZE view of the same run; the cache section pairs
// per-scan-span simulated I/O with the registry's GET counter.
type E16Result struct {
	FactRows int

	// Wall-time attribution by operator stage
	// (scan/join/aggregate/order_by).
	StagesTotal time.Duration
	Stages      []E16Stage

	// Scan-cache effect: cold (miss) vs warm (hit) run on one engine.
	// ScanSim is the summed simulated time of the scan spans; Gets is
	// the objstore.get.count registry delta for the run.
	ColdScanSim time.Duration
	WarmScanSim time.Duration
	ColdGets    int64
	WarmGets    int64
	CacheHits   int64
	CacheMisses int64
}

// e16StageNames orders the stage table; "scan" aggregates every
// "scan <table>" span.
var e16StageNames = []string{"scan", "filter", "join", "aggregate", "project", "order_by"}

// stageWall sums per-stage wall time over a query trace. Operator
// spans are direct children of "execute", so inclusive wall durations
// do not double-count across stages.
func stageWall(t *obs.Trace) map[string]time.Duration {
	out := map[string]time.Duration{}
	t.Root().Walk(func(s *obs.Span) {
		name := s.Name()
		switch {
		case strings.HasPrefix(name, "scan "):
			out["scan"] += s.WallDuration()
		case name == "filter" || name == "join" || name == "aggregate" ||
			name == "project" || name == "order_by":
			out[name] += s.WallDuration()
		}
	})
	return out
}

// scanSim sums the simulated time spent inside scan spans of a trace.
func scanSim(t *obs.Trace) time.Duration {
	var total time.Duration
	t.Root().Walk(func(s *obs.Span) {
		if strings.HasPrefix(s.Name(), "scan ") {
			total += s.SimDuration()
		}
	})
	return total
}

// RunE16 re-runs the E15 star join with tracing enabled and explains
// it: which operator stages the wall time goes to, and how much
// simulated I/O the scan cache removes.
func RunE16(factRows int) (E16Result, error) {
	const dimRows = 1024
	const factFiles = 8
	env, err := NewEnv(engine.DefaultOptions())
	if err != nil {
		return E16Result{}, err
	}
	if err := loadE15(env, factRows, dimRows, factFiles); err != nil {
		return E16Result{}, err
	}

	mkEngine := func(opts engine.Options) (*engine.Engine, *obs.Tracer) {
		// The environment's tracer when one is installed (the CLI's
		// -trace flag), so its span file covers the measured runs;
		// queries are sequential, so Last() stays per-arm.
		eng := env.LH.NewEngine(opts)
		if eng.Tracer == nil {
			eng.Tracer = &obs.Tracer{Cap: 8}
		}
		return eng, eng.Tracer
	}
	// traced runs one query and returns its span tree; a warm-up run
	// first keeps one-time metadata work out of the measured trace.
	traced := func(eng *engine.Engine, tr *obs.Tracer, id string, warm bool) (*obs.Trace, error) {
		if warm {
			if _, err := eng.Query(engine.NewContext(Admin, id+"-warm"), e15Query); err != nil {
				return nil, fmt.Errorf("e16 %s: %w", id, err)
			}
		}
		if _, err := eng.Query(engine.NewContext(Admin, id), e15Query); err != nil {
			return nil, fmt.Errorf("e16 %s: %w", id, err)
		}
		t := tr.Last()
		if t == nil {
			return nil, fmt.Errorf("e16 %s: no trace recorded", id)
		}
		return t, nil
	}

	out := E16Result{FactRows: factRows}
	base := engine.DefaultOptions()

	vecEng, vecTr := mkEngine(base)
	vecTrace, err := traced(vecEng, vecTr, "e16-vectorized", true)
	if err != nil {
		return E16Result{}, err
	}

	vecStages := stageWall(vecTrace)
	for _, name := range e16StageNames {
		v := vecStages[name]
		if v == 0 {
			continue
		}
		out.Stages = append(out.Stages, E16Stage{Name: name, Wall: v})
		out.StagesTotal += v
	}

	// Scan-cache attribution: cold then warm on one cache-enabled
	// engine. No warm-up — the cold run IS the miss measurement. GET
	// deltas come off the store's registry (shared with env.Obs).
	cacheOpts := base
	cacheOpts.EnableScanCache = true
	cacheEng, cacheTr := mkEngine(cacheOpts)
	gets := func() int64 { return env.Store.Obs().Get("objstore.get.count") }

	pre := gets()
	coldTrace, err := traced(cacheEng, cacheTr, "e16-cache-cold", false)
	if err != nil {
		return E16Result{}, err
	}
	out.ColdGets = gets() - pre
	pre = gets()
	warmTrace, err := traced(cacheEng, cacheTr, "e16-cache-warm", false)
	if err != nil {
		return E16Result{}, err
	}
	out.WarmGets = gets() - pre
	out.ColdScanSim, out.WarmScanSim = scanSim(coldTrace), scanSim(warmTrace)
	out.CacheHits = cacheEng.Obs.Get("engine.scan.cache_hit")
	out.CacheMisses = cacheEng.Obs.Get("engine.scan.cache_miss")
	if out.CacheHits == 0 {
		return E16Result{}, fmt.Errorf("e16: warm run hit nothing (misses=%d)", out.CacheMisses)
	}
	if out.WarmScanSim > out.ColdScanSim {
		return E16Result{}, fmt.Errorf("e16: warm scan sim %v exceeds cold %v", out.WarmScanSim, out.ColdScanSim)
	}
	return out, nil
}
