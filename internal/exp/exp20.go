package exp

// E20: GC-lean execution. Three measurements on one star-schema world:
//
//  1. Allocation profile of the E15 star join on a warmed engine:
//     allocs/op, bytes/op and GC cycles/op from runtime.MemStats
//     deltas — what the per-query arena leaves on the heap.
//  2. High-QPS mixed traffic through the serve session layer
//     (parse -> prepare -> admit -> cursor): a stream of point lookups
//     with an analytic star join every MixEvery statements. This is
//     the shape where per-query garbage turns into stalls — a big
//     query's allocations trigger GC that the small queries then pay
//     for, so the measurement reports point-lookup p99 next to
//     aggregate QPS.
//  3. A variance-aware perf trajectory: the star join timed across
//     {scan cache warm/cold} x {workers} x {chaos on/off} cells with
//     mean and stddev per cell, committed as BENCH_E20.json so the
//     next run can flag regressions against the recorded noise bands
//     (TrajectoryCompare) instead of single-shot numbers.

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"biglake/internal/engine"
	"biglake/internal/objstore"
	"biglake/internal/serve"
)

// E20Config shapes one E20 run; tests shrink it.
type E20Config struct {
	FactRows  int
	DimRows   int
	FactFiles int
	// AllocRuns is the measured iteration count of the allocation
	// profile.
	AllocRuns int
	// PointWarmup/PointQueries shape the serve throughput arm;
	// every MixEvery-th statement is the analytic star join instead of
	// a point lookup (0 = pure point lookups).
	PointWarmup  int
	PointQueries int
	MixEvery     int
	// CellSamples is the repetitions per variance cell; Workers is the
	// worker-count axis.
	CellSamples int
	Workers     []int
	// Seed drives the chaos profile of the chaos cells.
	Seed uint64
	// ArenaRetainBytes sizes the engine's per-arena retention cap to
	// the workload (engine.Options.ArenaRetainBytes): the star join's
	// per-query peak must fit or the pool trims the arena after every
	// query and the next one re-makes slabs it should have recycled.
	ArenaRetainBytes int64
}

// DefaultE20Config returns the benchmark shape at the given scale.
func DefaultE20Config(scale int) E20Config {
	if scale < 1 {
		scale = 1
	}
	return E20Config{
		FactRows:         400000 * scale,
		DimRows:          1024,
		FactFiles:        8,
		AllocRuns:        10,
		PointWarmup:      40,
		PointQueries:     400,
		MixEvery:         50,
		CellSamples:      5,
		Workers:          []int{1, 4, 8},
		Seed:             20,
		ArenaRetainBytes: 512 << 20,
	}
}

// E20AllocArm is the star join's heap profile per query. GCPerOp and
// GCPauseUsPerOp are the collector's own verdict: how many GC cycles
// (and microseconds of stop-the-world pause) each query provokes.
type E20AllocArm struct {
	AllocsPerOp    float64
	BytesPerOp     float64
	GCPerOp        float64
	GCPauseUsPerOp float64
	Time           time.Duration // total across the measured runs
}

// E20Cell is one variance-model measurement: the star join timed
// CellSamples times under a fixed {cache, workers, chaos}
// configuration. Mean/Stddev are microseconds of real time.
type E20Cell struct {
	Name      string
	Workers   int
	WarmCache bool
	Chaos     bool
	Samples   int
	MeanUs    float64
	StddevUs  float64
}

// E20Regression is one trajectory comparison verdict: the cell's new
// mean sits outside the noise band of the recorded baseline.
type E20Regression struct {
	Cell     string
	BaseUs   float64
	CurUs    float64
	BandUs   float64 // allowed excess over baseline mean
	ExcessUs float64
}

func (r E20Regression) String() string {
	return fmt.Sprintf("%s: %.0fus -> %.0fus (band +%.0fus, excess %.0fus)",
		r.Cell, r.BaseUs, r.CurUs, r.BandUs, r.ExcessUs)
}

// E20Result is the committed benchmark snapshot. The Lean* names are
// the keys BENCH_E20.json records these measurements under.
type E20Result struct {
	FactRows int
	DimRows  int

	Lean E20AllocArm

	PointQueries int
	MixEvery     int
	LeanQPS      float64
	// Point-lookup p99 latency within the mixed stream, microseconds:
	// the tail a small query pays for the big queries' garbage.
	LeanP99Us float64

	Cells []E20Cell
}

// RunE20 runs the default configuration at the given scale.
func RunE20(scale int) (E20Result, error) {
	return RunE20Config(DefaultE20Config(scale))
}

// RunE20Config executes the three E20 measurements.
func RunE20Config(cfg E20Config) (E20Result, error) {
	env, err := NewEnv(engine.DefaultOptions())
	if err != nil {
		return E20Result{}, err
	}
	if err := loadE15(env, cfg.FactRows, cfg.DimRows, cfg.FactFiles); err != nil {
		return E20Result{}, err
	}
	out := E20Result{FactRows: cfg.FactRows, DimRows: cfg.DimRows,
		PointQueries: cfg.PointQueries, MixEvery: cfg.MixEvery}

	mkEngine := env.LH.NewEngine

	opts := engine.DefaultOptions()
	opts.EnableScanCache = true
	opts.ArenaRetainBytes = cfg.ArenaRetainBytes

	// --- Measurement 1: allocation profile of the star join ---
	eng := mkEngine(opts)
	// Warm the scan cache and the arena pool so the measurement is the
	// steady-state execution path, not first-touch decode.
	for i := 0; i < 2; i++ {
		if _, err := eng.Query(engine.NewContext(Admin, fmt.Sprintf("e20-lean-warm-%d", i)), e15Query); err != nil {
			return E20Result{}, fmt.Errorf("e20 alloc warmup: %w", err)
		}
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; i < cfg.AllocRuns; i++ {
		if _, err := eng.Query(engine.NewContext(Admin, fmt.Sprintf("e20-lean-%d", i)), e15Query); err != nil {
			return E20Result{}, fmt.Errorf("e20 alloc: %w", err)
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	out.Lean = E20AllocArm{
		AllocsPerOp:    float64(m1.Mallocs-m0.Mallocs) / float64(cfg.AllocRuns),
		BytesPerOp:     float64(m1.TotalAlloc-m0.TotalAlloc) / float64(cfg.AllocRuns),
		GCPerOp:        float64(m1.NumGC-m0.NumGC) / float64(cfg.AllocRuns),
		GCPauseUsPerOp: float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e3 / float64(cfg.AllocRuns),
		Time:           elapsed,
	}

	// --- Measurement 2: point-lookup throughput through serve ---
	measureQPS := func() (qps, p99 float64, err error) {
		const id = "e20-point-lean"
		srv := serve.New(mkEngine(opts), env.LH.Txns, serve.Config{})
		defer srv.Close()
		sess, err := srv.Open(Admin, id)
		if err != nil {
			return 0, 0, err
		}
		defer sess.Close()
		exec := func(sql string, wantRows bool) error {
			p, err := sess.Parse(sql)
			if err != nil {
				return err
			}
			if err := p.Prepare(); err != nil {
				return err
			}
			cur, err := p.Execute()
			if err != nil {
				return err
			}
			b, err := cur.All()
			if err != nil {
				return err
			}
			if wantRows && b.N == 0 {
				return fmt.Errorf("e20 %s: %q matched nothing", id, sql)
			}
			return nil
		}
		lookup := func(i int) error {
			k := int64((uint64(i) * 40503) % uint64(cfg.DimRows))
			return exec(fmt.Sprintf(
				"SELECT k, amount, price FROM bench.fact WHERE k = %d", k), true)
		}
		for i := 0; i < cfg.PointWarmup; i++ {
			if err := lookup(i); err != nil {
				return 0, 0, err
			}
		}
		if cfg.MixEvery > 0 {
			if err := exec(e15Query, true); err != nil {
				return 0, 0, err
			}
		}
		lookupUs := make([]float64, 0, cfg.PointQueries)
		runtime.GC()
		start := time.Now()
		for i := 0; i < cfg.PointQueries; i++ {
			if cfg.MixEvery > 0 && i%cfg.MixEvery == cfg.MixEvery-1 {
				if err := exec(e15Query, true); err != nil {
					return 0, 0, err
				}
				continue
			}
			t0 := time.Now()
			if err := lookup(i); err != nil {
				return 0, 0, err
			}
			lookupUs = append(lookupUs, float64(time.Since(t0))/float64(time.Microsecond))
		}
		elapsed := time.Since(start)
		if elapsed <= 0 {
			return 0, 0, fmt.Errorf("e20 %s: zero elapsed time", id)
		}
		return float64(cfg.PointQueries) / elapsed.Seconds(), percentile(lookupUs, 0.99), nil
	}
	if out.LeanQPS, out.LeanP99Us, err = measureQPS(); err != nil {
		return E20Result{}, err
	}

	// --- Measurement 3: variance cells for the perf trajectory ---
	chaosProf := objstore.FaultProfile{
		Seed: cfg.Seed, Rate: 0.002, StreakLen: 2,
		SlowdownRate: 0.01, Slowdown: 5 * time.Millisecond,
	}
	for _, warm := range []bool{true, false} {
		for _, workers := range cfg.Workers {
			for _, chaos := range []bool{false, true} {
				cell, err := runE20Cell(cfg, env, mkEngine, opts, warm, workers, chaos, chaosProf)
				if err != nil {
					return E20Result{}, err
				}
				out.Cells = append(out.Cells, cell)
			}
		}
	}
	return out, nil
}

// runE20Cell times the star join CellSamples times under one
// configuration. Warm cells share one engine (scan cache populated by
// a discarded first run); cold cells get a fresh engine per sample so
// every run decodes from the store.
func runE20Cell(cfg E20Config, env *Env, mkEngine func(engine.Options) *engine.Engine,
	opts engine.Options, warm bool, workers int, chaos bool, prof objstore.FaultProfile) (E20Cell, error) {
	opts.MorselWorkers = workers
	cell := E20Cell{
		Name:    fmt.Sprintf("cache=%s/workers=%d/chaos=%s", onOff20(warm, "warm", "cold"), workers, onOff20(chaos, "on", "off")),
		Workers: workers, WarmCache: warm, Chaos: chaos, Samples: cfg.CellSamples,
	}
	if chaos {
		env.Store.InjectFaults(prof)
		defer env.Store.ClearFaults()
	}
	var eng *engine.Engine
	if warm {
		eng = mkEngine(opts)
		if _, err := eng.Query(engine.NewContext(Admin, cell.Name+"-warm"), e15Query); err != nil {
			return E20Cell{}, fmt.Errorf("e20 cell %s warmup: %w", cell.Name, err)
		}
	}
	samples := make([]float64, cfg.CellSamples)
	for i := range samples {
		e := eng
		if !warm {
			e = mkEngine(opts)
		}
		start := time.Now()
		if _, err := e.Query(engine.NewContext(Admin, fmt.Sprintf("%s-%d", cell.Name, i)), e15Query); err != nil {
			return E20Cell{}, fmt.Errorf("e20 cell %s: %w", cell.Name, err)
		}
		samples[i] = float64(time.Since(start)) / float64(time.Microsecond)
	}
	cell.MeanUs, cell.StddevUs = meanStd(samples)
	return cell, nil
}

func onOff20(b bool, yes, no string) string {
	if b {
		return yes
	}
	return no
}

// percentile returns the q-quantile of xs by nearest-rank on a sorted
// copy; 0 for an empty slice.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q * float64(len(s)-1))
	return s[i]
}

func meanStd(xs []float64) (mean, std float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	if len(xs) < 2 {
		return mean, 0
	}
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	return mean, math.Sqrt(ss / float64(len(xs)-1))
}

// TrajectoryCompare flags cells of cur whose mean falls outside the
// baseline's noise band: more than 3 combined standard deviations
// above the recorded mean AND more than 10% slower, so microsecond
// jitter on fast cells never pages anyone. Cells present on only one
// side are skipped — the trajectory only speaks where both runs
// measured.
func TrajectoryCompare(base, cur []E20Cell) []E20Regression {
	byName := make(map[string]E20Cell, len(base))
	for _, c := range base {
		byName[c.Name] = c
	}
	var out []E20Regression
	for _, c := range cur {
		b, ok := byName[c.Name]
		if !ok {
			continue
		}
		sigma := math.Sqrt(b.StddevUs*b.StddevUs + c.StddevUs*c.StddevUs)
		band := 3 * sigma
		if rel := 0.10 * b.MeanUs; band < rel {
			band = rel
		}
		if excess := c.MeanUs - b.MeanUs; excess > band {
			out = append(out, E20Regression{
				Cell: c.Name, BaseUs: b.MeanUs, CurUs: c.MeanUs,
				BandUs: band, ExcessUs: excess - band,
			})
		}
	}
	return out
}
