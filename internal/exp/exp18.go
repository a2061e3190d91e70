package exp

// E18: multi-tenant query service under load. A serve.Server fronted
// by memory-budgeted admission control and a weighted fair queue is
// driven by the deterministic loadtest harness at offered loads of
// 0.5x–4x its admitted capacity, with seeded chaos faults on the
// object store. The sweep reports the overload curve (goodput,
// latency percentiles, typed shed counts) and two fairness sub-runs:
// equal-weight tenants must split goodput near-evenly, and a 4:1
// weight skew must shift contended capacity toward the heavy
// tenants. The load model is open-loop: arrivals do not wait for
// completions, so past saturation the only way to keep goodput flat
// is to shed excess with cheap typed rejections — which is exactly
// what the admission queue bounds (MaxQueue, MaxQueueWait) enforce.

import (
	"fmt"
	"time"

	"biglake/internal/catalog"
	"biglake/internal/engine"
	"biglake/internal/objstore"
	"biglake/internal/security"
	"biglake/internal/serve"
	"biglake/internal/serve/loadtest"
	"biglake/internal/sim"
	"biglake/internal/vector"
)

// e18FactRows is the row count of the shared OLAP fact table; point
// lookups draw ids from [0, e18FactRows).
const e18FactRows = 1024

// E18Config shapes one E18 run. DefaultE18Config gives the benchmark
// shape; tests shrink it for fast deterministic runs.
type E18Config struct {
	// Seed drives arrivals, the query mix, and the chaos profile.
	Seed uint64
	// Tenants is the sweep's synthetic tenant population.
	Tenants int
	// QueriesPerTenant fixes each tenant's offered arrivals.
	QueriesPerTenant int
	// MaxConcurrent / MaxQueue / MaxQueueWait are the server's
	// admission knobs under test.
	MaxConcurrent int
	MaxQueue      int
	MaxQueueWait  time.Duration
	// LoadMultiples are the offered-load points, as multiples of the
	// admitted service capacity (MaxConcurrent / measured service
	// time).
	LoadMultiples []float64
	// FairTenants/FairQueries shape the two fairness sub-runs.
	FairTenants int
	FairQueries int
	// Chaos injects seeded object-store faults during the sweep.
	Chaos bool
	// CalibrationQueries sizes the service-time measurement run.
	CalibrationQueries int
}

// DefaultE18Config returns the benchmark configuration; scale
// multiplies the tenant population (scale 1 = 1000 tenants).
func DefaultE18Config(scale int) E18Config {
	if scale < 1 {
		scale = 1
	}
	return E18Config{
		Seed:               18,
		Tenants:            1000 * scale,
		QueriesPerTenant:   4,
		MaxConcurrent:      8,
		MaxQueue:           32,
		MaxQueueWait:       250 * time.Millisecond,
		LoadMultiples:      []float64{0.5, 1, 2, 4},
		FairTenants:        16,
		FairQueries:        40,
		Chaos:              true,
		CalibrationQueries: 32,
	}
}

// E18Row is one offered-load measurement.
type E18Row struct {
	// Load is the offered load as a multiple of admitted capacity.
	Load float64
	// Interarrival is the per-tenant arrival gap realizing that load.
	Interarrival time.Duration
	Offered      int
	Completed    int
	// Failed counts admitted queries killed by chaos faults or
	// deadlines after retries were exhausted.
	Failed int
	// RejQueueFull/RejQueueWait are the harness's typed shed counts.
	RejQueueFull int
	RejQueueWait int
	// ObsQueueFull/ObsQueueWait are the same events as counted by the
	// serve layer's obs registry — they must match the harness.
	ObsQueueFull int64
	ObsQueueWait int64
	// GoodputQPS is completed queries per simulated second.
	GoodputQPS float64
	// P50/P99/P999 are arrival-to-completion latencies.
	P50, P99, P999 time.Duration
	Makespan       time.Duration
	// FairRatio is max/min per-tenant completions (equal weights).
	FairRatio float64
}

// E18Result is the overload-curve table plus the fairness sub-runs.
type E18Result struct {
	// ServiceEst is the calibrated warm per-query service time the
	// load points are scaled against.
	ServiceEst time.Duration
	Rows       []E18Row
	// PeakGoodput is the best goodput across the sweep.
	PeakGoodput float64
	// GoodputAtMaxLoad is goodput at the highest offered load; the
	// graceful-degradation criterion is GoodputMaxRatio >= 0.8.
	GoodputAtMaxLoad float64
	GoodputMaxRatio  float64
	// EqualFairRatio is max/min per-tenant goodput across 16
	// equal-weight tenants under 2x overload (want <= 2).
	EqualFairRatio float64
	// WeightedRatio is (avg completions of weight-4 tenants) / (avg of
	// weight-1 tenants) under 4x overload (want > 1).
	WeightedRatio float64
}

// e18World is one environment with the full serve stack: its
// lakehouse's journaled log, BLMT mutator and txn manager behind an
// admission-fronted server.
type e18World struct {
	env *Env
	srv *serve.Server
}

func newE18World(cfg E18Config, scfg serve.Config, tenants int, lcfg loadtest.Config) (*e18World, error) {
	env, err := NewEnv(engine.DefaultOptions())
	if err != nil {
		return nil, err
	}
	schema := vector.NewSchema(
		vector.Field{Name: "id", Type: vector.Int64},
		vector.Field{Name: "v", Type: vector.Int64},
	)
	for _, name := range []string{"fact", "ops"} {
		if err := env.Cat.CreateTable(catalog.Table{
			Dataset: "bench", Name: name, Type: catalog.Managed, Schema: schema,
			Cloud: "gcp", Bucket: "bench", Prefix: "blmt/bench/" + name + "/", Connection: "conn",
		}); err != nil {
			return nil, err
		}
	}
	// Seed the fact table in chunks so it spans several files and the
	// OLAP class does real multi-file scans.
	const chunk = 256
	for lo := 0; lo < e18FactRows; lo += chunk {
		var vals string
		for id := lo; id < lo+chunk; id++ {
			if id > lo {
				vals += ", "
			}
			vals += fmt.Sprintf("(%d, %d)", id, id%7)
		}
		if _, err := env.query(fmt.Sprintf("e18-seed-%d", lo), "INSERT INTO bench.fact VALUES "+vals); err != nil {
			return nil, err
		}
	}
	for i := 0; i < tenants; i++ {
		p := lcfg.Principal(i)
		for _, tbl := range []string{"bench.fact", "bench.ops"} {
			if err := env.Auth.GrantTable(Admin, tbl, p, security.RoleEditor); err != nil {
				return nil, err
			}
		}
	}
	return &e18World{env: env, srv: serve.New(env.Engine, env.LH.Txns, scfg)}, nil
}

// e18Gen is the tenant traffic mix: 10% DML appends, 30% OLAP
// aggregations over the fact table, 60% point lookups.
func e18Gen(rng *sim.RNG, tenant, seq int) loadtest.Query {
	switch rng.Intn(10) {
	case 0:
		return loadtest.Query{Kind: "dml",
			SQL: fmt.Sprintf("INSERT INTO bench.ops VALUES (%d, %d)", 1_000_000+tenant*10_000+seq, seq)}
	case 1, 2, 3:
		return loadtest.Query{Kind: "olap",
			SQL: "SELECT v, COUNT(*) AS n FROM bench.fact GROUP BY v ORDER BY v"}
	default:
		return loadtest.Query{Kind: "point",
			SQL: fmt.Sprintf("SELECT id, v FROM bench.fact WHERE id = %d", rng.Intn(e18FactRows))}
	}
}

// calibrate measures the warm per-query service time by running the
// generator mix through one admin session with no contention,
// flooring each sample the way the harness does.
func (w *e18World) calibrate(cfg E18Config) (time.Duration, error) {
	sess, err := w.srv.Open(Admin, "e18-calibrate")
	if err != nil {
		return 0, err
	}
	defer sess.Close()
	rng := sim.NewRNG(cfg.Seed ^ 0xca11b8a7e)
	n := cfg.CalibrationQueries
	if n <= 0 {
		n = 32
	}
	var total time.Duration
	for i := 0; i < n; i++ {
		q := e18Gen(rng, 9999, i)
		t0 := w.env.Clock.Now()
		cur, err := sess.Query(q.SQL)
		if err != nil {
			return 0, fmt.Errorf("calibrate %q: %w", q.SQL, err)
		}
		if _, err := cur.All(); err != nil {
			return 0, err
		}
		d := w.env.Clock.Now() - t0
		if d < loadtest.MinService {
			d = loadtest.MinService
		}
		total += d
	}
	return total / time.Duration(n), nil
}

func (cfg E18Config) serveConfig() serve.Config {
	return serve.Config{
		MaxConcurrent: cfg.MaxConcurrent,
		MaxQueue:      cfg.MaxQueue,
		MaxQueueWait:  cfg.MaxQueueWait,
		PageRows:      256,
	}
}

func (cfg E18Config) chaosProfile(salt uint64) objstore.FaultProfile {
	return objstore.FaultProfile{
		Seed: cfg.Seed ^ salt, Rate: 0.002, StreakLen: 2,
		SlowdownRate: 0.01, Slowdown: 10 * time.Millisecond,
	}
}

// interarrivalFor converts an offered-load multiple into the
// per-tenant arrival gap: offered rate tenants/gap equals load *
// (MaxConcurrent / svc).
func (cfg E18Config) interarrivalFor(load float64, svc time.Duration, tenants int) time.Duration {
	return time.Duration(float64(tenants) * float64(svc) / (load * float64(cfg.MaxConcurrent)))
}

// RunE18 runs the default configuration at the given scale.
func RunE18(scale int) (E18Result, error) {
	return RunE18Config(DefaultE18Config(scale))
}

// RunE18Config runs the overload sweep and fairness sub-runs under
// cfg. Every random choice is seeded, so equal configs produce
// reflect.DeepEqual results.
func RunE18Config(cfg E18Config) (E18Result, error) {
	if len(cfg.LoadMultiples) == 0 {
		cfg.LoadMultiples = []float64{0.5, 1, 2, 4}
	}
	res := E18Result{}

	// Calibration world: measure warm service time, then discard (its
	// caches are hot, which would flatter the first sweep row).
	cw, err := newE18World(cfg, cfg.serveConfig(), 0, loadtest.Config{})
	if err != nil {
		return E18Result{}, err
	}
	res.ServiceEst, err = cw.calibrate(cfg)
	if err != nil {
		return E18Result{}, err
	}

	for i, load := range cfg.LoadMultiples {
		lcfg := loadtest.Config{
			Seed:             cfg.Seed + uint64(i)*1000,
			Tenants:          cfg.Tenants,
			QueriesPerTenant: cfg.QueriesPerTenant,
			Interarrival:     cfg.interarrivalFor(load, res.ServiceEst, cfg.Tenants),
			Gen:              e18Gen,
		}
		w, err := newE18World(cfg, cfg.serveConfig(), cfg.Tenants, lcfg)
		if err != nil {
			return E18Result{}, err
		}
		if cfg.Chaos {
			w.env.Store.InjectFaults(cfg.chaosProfile(uint64(i) * 7919))
		}
		// Counter deltas, not absolutes: under benchlake every world
		// feeds one shared registry.
		full0 := w.env.Obs.Get("serve.rejected.queue_full")
		wait0 := w.env.Obs.Get("serve.rejected.queue_wait")
		r, err := loadtest.Run(w.srv, lcfg)
		if err != nil {
			return E18Result{}, err
		}
		row := E18Row{
			Load: load, Interarrival: lcfg.Interarrival,
			Offered: r.Offered, Completed: r.Completed, Failed: r.Failed,
			RejQueueFull: r.Rejected["queue_full"], RejQueueWait: r.Rejected["queue_wait"],
			ObsQueueFull: w.env.Obs.Get("serve.rejected.queue_full") - full0,
			ObsQueueWait: w.env.Obs.Get("serve.rejected.queue_wait") - wait0,
			GoodputQPS:   r.GoodputQPS,
			P50:          r.P50, P99: r.P99, P999: r.P999,
			Makespan: r.Makespan, FairRatio: r.FairRatio,
		}
		res.Rows = append(res.Rows, row)
		if row.GoodputQPS > res.PeakGoodput {
			res.PeakGoodput = row.GoodputQPS
		}
	}
	last := res.Rows[len(res.Rows)-1]
	res.GoodputAtMaxLoad = last.GoodputQPS
	if res.PeakGoodput > 0 {
		res.GoodputMaxRatio = res.GoodputAtMaxLoad / res.PeakGoodput
	}

	// Fairness sub-run 1: equal weights under 2x overload. Max/min
	// per-tenant goodput bounds how unevenly contended capacity is
	// shared.
	eq, err := runE18Fairness(cfg, nil, 2)
	if err != nil {
		return E18Result{}, err
	}
	res.EqualFairRatio = eq.FairRatio

	// Fairness sub-run 2: a 4:1 weight skew (even tenants heavy) under
	// 4x overload must shift completions toward the heavy tenants.
	heavy := func(i int) bool { return i%2 == 0 }
	wr, err := runE18Fairness(cfg, heavy, 4)
	if err != nil {
		return E18Result{}, err
	}
	var hSum, lSum, hN, lN float64
	for i, c := range wr.PerTenantCompleted {
		if heavy(i) {
			hSum += float64(c)
			hN++
		} else {
			lSum += float64(c)
			lN++
		}
	}
	if lSum > 0 && lN > 0 && hN > 0 {
		res.WeightedRatio = (hSum / hN) / (lSum / lN)
	}
	return res, nil
}

// runE18Fairness drives FairTenants tenants at the given overload
// multiple; heavy (when non-nil) marks tenants with weight 4 instead
// of 1.
func runE18Fairness(cfg E18Config, heavy func(int) bool, load float64) (*loadtest.Result, error) {
	lcfg := loadtest.Config{
		Seed:             cfg.Seed ^ 0xfa1f,
		Tenants:          cfg.FairTenants,
		QueriesPerTenant: cfg.FairQueries,
		Gen:              e18Gen,
	}
	scfg := cfg.serveConfig()
	if heavy != nil {
		scfg.Tenants = map[string]serve.TenantConfig{}
		for i := 0; i < cfg.FairTenants; i++ {
			w := 1.0
			if heavy(i) {
				w = 4.0
			}
			scfg.Tenants[string(lcfg.Principal(i))] = serve.TenantConfig{Weight: w}
		}
	}
	// Reuse the sweep's calibration via a fresh measurement world so
	// the sub-run is self-contained (and the fairness load multiple is
	// honest for its own tenant count).
	cw, err := newE18World(cfg, scfg, 0, loadtest.Config{})
	if err != nil {
		return nil, err
	}
	svc, err := cw.calibrate(cfg)
	if err != nil {
		return nil, err
	}
	lcfg.Interarrival = cfg.interarrivalFor(load, svc, cfg.FairTenants)
	w, err := newE18World(cfg, scfg, cfg.FairTenants, lcfg)
	if err != nil {
		return nil, err
	}
	return loadtest.Run(w.srv, lcfg)
}
