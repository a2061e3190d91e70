package exp

// E19: end-to-end data integrity under silent corruption. For each
// per-object corruption rate the sweep builds a managed table, keeps
// pristine replicas, then (1) flips bits in a seeded fraction of the
// stored objects and runs a query phase with response-level corruption
// at the same rate — queries may fail with typed integrity errors but
// must never return a wrong answer; (2) runs the byte-budgeted
// scrubber until it has walked the whole corpus, measuring scrub cost
// in bytes and simulated time; (3) repairs the quarantine from the
// replicas and re-verifies the golden answers bit-for-bit. The
// headline criteria: wrong-answer rate is zero at every rate, every
// damaged object is detected and quarantined (detection rate 1.0), and
// repair restores full availability at >= 1% corruption.

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"biglake/internal/bigmeta"
	"biglake/internal/catalog"
	"biglake/internal/colfmt"
	"biglake/internal/engine"
	"biglake/internal/integrity"
	"biglake/internal/objstore"
	"biglake/internal/scrub"
	"biglake/internal/sim"
	"biglake/internal/vector"
)

// E19Config shapes one integrity sweep.
type E19Config struct {
	Seed uint64
	// Rates are the per-object corruption rates swept; each rate damages
	// round(rate*Files) stored objects and corrupts GET responses with
	// the same probability during the query phase.
	Rates []float64
	// Files and RowsPerFile size the managed table.
	Files       int
	RowsPerFile int
	// Queries is the number of queries in the corruption-exposed phase.
	Queries int
	// ScrubBudget is the scrubber's bytes-per-pass I/O budget
	// (0 = half the corpus, forcing at least two resumed passes).
	ScrubBudget int64
}

// DefaultE19Config returns the benchmark configuration; scale
// multiplies the file population.
func DefaultE19Config(scale int) E19Config {
	if scale < 1 {
		scale = 1
	}
	return E19Config{
		Seed:        19,
		Rates:       []float64{0.005, 0.01, 0.02, 0.05},
		Files:       120 * scale,
		RowsPerFile: 64,
		Queries:     12,
	}
}

// E19Row is one corruption rate's measurement.
type E19Row struct {
	Rate    float64
	Files   int
	Damaged int
	// Query phase (stored damage + response-level corruption at Rate).
	Queries        int
	TypedFailures  int
	OtherFailures  int
	WrongAnswers   int
	RefetchHeals   int64
	ScanQuarantine int
	// Scrub phase (response corruption cleared; at-rest damage remains).
	ScrubPasses   int
	ScrubBytes    int64
	ScrubTime     time.Duration
	ScrubFound    int
	Quarantined   int
	DetectionRate float64
	// Repair phase.
	RepairTime       time.Duration
	Rewritten        int
	Reverified       int
	RepairFailed     int
	FullAvailability bool
}

// E19Result is the sweep table plus the headline criteria.
type E19Result struct {
	Rows []E19Row
	// WrongAnswers is the sweep-wide total; the invariant is zero.
	WrongAnswers int
	// AllDetected reports every damaged object was quarantined.
	AllDetected bool
	// RestoredAtOnePercent reports repair restored full availability at
	// every rate >= 1%.
	RestoredAtOnePercent bool
}

// e19World is one self-contained environment with a Files-file managed
// table and its pristine replicas.
type e19World struct {
	env      *Env
	keys     []string
	replicas map[string][]byte
	bytes    int64 // total stored corpus size
}

func newE19World(cfg E19Config) (*e19World, error) {
	env, err := NewEnv(engine.DefaultOptions())
	if err != nil {
		return nil, err
	}
	// Repair's commits unjournaled, as E5's: the repair time measured is
	// the rewrite, not the journal's PUTs (which would double it).
	env.Log.AttachJournal(nil)
	if err := env.Cat.CreateTable(catalog.Table{
		Dataset: "bench", Name: "fact", Type: catalog.Managed,
		Schema: vector.NewSchema(
			vector.Field{Name: "id", Type: vector.Int64},
			vector.Field{Name: "v", Type: vector.Int64},
		),
		Cloud: "gcp", Bucket: "bench", Prefix: "blmt/bench/fact/", Connection: "conn",
	}); err != nil {
		return nil, err
	}
	w := &e19World{env: env, replicas: map[string][]byte{}}
	schema := vector.NewSchema(
		vector.Field{Name: "id", Type: vector.Int64},
		vector.Field{Name: "v", Type: vector.Int64},
	)
	var entries []bigmeta.FileEntry
	for i := 0; i < cfg.Files; i++ {
		bl := vector.NewBuilder(schema)
		for r := 0; r < cfg.RowsPerFile; r++ {
			id := int64(i*cfg.RowsPerFile + r)
			bl.Append(vector.IntValue(id), vector.IntValue(id%7))
		}
		file, err := colfmt.WriteFile(bl.Build(), colfmt.WriterOptions{})
		if err != nil {
			return nil, err
		}
		key := fmt.Sprintf("blmt/bench/fact/data/seed-%06d.blk", i)
		info, err := env.Store.Put(env.Cred, "bench", key, file, "application/x-blk")
		if err != nil {
			return nil, err
		}
		w.keys = append(w.keys, key)
		w.replicas[key] = append([]byte(nil), file...)
		w.bytes += info.Size
		entries = append(entries, bigmeta.FileEntry{
			Bucket: "bench", Key: key, Size: info.Size,
			Generation: info.Generation, RowCount: int64(cfg.RowsPerFile),
		})
	}
	if _, err := env.Log.Commit(string(Admin), map[string]bigmeta.TableDelta{
		"bench.fact": {Added: entries},
	}); err != nil {
		return nil, err
	}
	return w, nil
}

// engine builds a cold-cache scan engine over the world, so every
// phase re-fetches (and re-verifies) from the store.
func (w *e19World) engine() *engine.Engine {
	opts := engine.DefaultOptions()
	opts.EnableScanCache = true
	return w.env.LH.NewEngine(opts)
}

// e19Queries is the deterministic query mix: full aggregate, grouped
// aggregate, and rotating point lookups — all ordered, so results
// compare positionally.
func e19Queries(cfg E19Config) []string {
	qs := make([]string, cfg.Queries)
	for i := range qs {
		switch i % 3 {
		case 0:
			qs[i] = "SELECT COUNT(*) AS n, SUM(v) AS s FROM bench.fact"
		case 1:
			qs[i] = "SELECT v, COUNT(*) AS n FROM bench.fact GROUP BY v ORDER BY v"
		default:
			qs[i] = fmt.Sprintf("SELECT id, v FROM bench.fact WHERE id = %d",
				(i*131)%(cfg.Files*cfg.RowsPerFile))
		}
	}
	return qs
}

// renderRows is the comparison fingerprint: typed values row by row.
func renderRows(b *vector.Batch) string {
	var sb strings.Builder
	for r := 0; r < b.N; r++ {
		for _, v := range b.Row(r) {
			if v.IsNull() {
				sb.WriteString("NULL|")
			} else {
				fmt.Fprintf(&sb, "%d:%s|", v.Type, v.String())
			}
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// RunE19 runs the default configuration at the given scale.
func RunE19(scale int) (E19Result, error) {
	return RunE19Config(DefaultE19Config(scale))
}

// RunE19Config sweeps the configured corruption rates. Each rate runs
// in a fresh world; every random choice is seeded.
func RunE19Config(cfg E19Config) (E19Result, error) {
	if len(cfg.Rates) == 0 {
		cfg.Rates = []float64{0.005, 0.01, 0.02, 0.05}
	}
	res := E19Result{AllDetected: true, RestoredAtOnePercent: true}
	for ri, rate := range cfg.Rates {
		w, err := newE19World(cfg)
		if err != nil {
			return res, err
		}
		row := E19Row{Rate: rate, Files: cfg.Files, Queries: cfg.Queries}

		// Golden answers from the pristine world.
		queries := e19Queries(cfg)
		golden := make([]string, len(queries))
		cleanEng := w.engine()
		for qi, sql := range queries {
			r, err := cleanEng.Query(engine.NewContext(Admin, fmt.Sprintf("e19-golden-%d-%d", ri, qi)), sql)
			if err != nil {
				return res, fmt.Errorf("golden %q: %w", sql, err)
			}
			golden[qi] = renderRows(r.Batch)
		}

		// Damage round(rate*Files) stored objects, chosen by seeded
		// shuffle so different rates damage overlapping prefixes of the
		// same permutation.
		damaged := int(rate*float64(cfg.Files) + 0.5)
		rng := sim.NewRNG(cfg.Seed*7919 + uint64(ri))
		perm := make([]int, cfg.Files)
		for i := range perm {
			perm[i] = i
		}
		for i := cfg.Files - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
		damagedKeys := map[string]bool{}
		for i := 0; i < damaged; i++ {
			key := w.keys[perm[i]]
			if err := w.env.Store.FlipStoredBit("bench", key, int64(37+97*i)); err != nil {
				return res, err
			}
			damagedKeys[key] = true
		}
		row.Damaged = damaged

		// Phase 1: queries against the damaged table with response-level
		// corruption at the same rate. Typed failures are allowed; wrong
		// answers are the invariant.
		w.env.Store.InjectFaults(objstore.FaultProfile{
			Seed: cfg.Seed ^ uint64(ri)<<8, CorruptRate: rate,
		})
		heals0 := w.env.Obs.Get("integrity.recovered.refetch")
		qEng := w.engine()
		for qi, sql := range queries {
			r, err := qEng.Query(engine.NewContext(Admin, fmt.Sprintf("e19-q-%d-%d", ri, qi)), sql)
			if err != nil {
				if errors.Is(err, integrity.ErrCorrupt) {
					row.TypedFailures++
				} else {
					row.OtherFailures++
				}
				continue
			}
			if renderRows(r.Batch) != golden[qi] {
				row.WrongAnswers++
			}
		}
		w.env.Store.ClearFaults()
		row.RefetchHeals = w.env.Obs.Get("integrity.recovered.refetch") - heals0
		row.ScanQuarantine = len(w.env.Log.Quarantined("bench.fact"))

		// Phase 2: budgeted scrub until the whole corpus is walked.
		budget := cfg.ScrubBudget
		if budget <= 0 {
			budget = w.bytes / 2
		}
		sc := &scrub.Scrubber{
			Catalog: w.env.Cat, Auth: w.env.Auth, Log: w.env.Log,
			Clock: w.env.Clock, Stores: map[string]*objstore.Store{"gcp": w.env.Store},
			Obs: w.env.Obs, Principal: string(Admin), BytesPerPass: budget,
		}
		t0 := w.env.Clock.Now()
		for {
			rep, err := sc.Pass([]string{"bench.fact"})
			if err != nil {
				return res, err
			}
			row.ScrubPasses++
			row.ScrubBytes += rep.BytesVerified
			row.ScrubFound += rep.CorruptFound
			if !rep.Exhausted || row.ScrubPasses > cfg.Files+2 {
				break
			}
		}
		row.ScrubTime = w.env.Clock.Now() - t0

		marks := w.env.Log.Quarantined("bench.fact")
		row.Quarantined = len(marks)
		caught := 0
		for _, m := range marks {
			if damagedKeys[m.Key] {
				caught++
			}
		}
		if damaged > 0 {
			row.DetectionRate = float64(caught) / float64(damaged)
		} else {
			row.DetectionRate = 1
		}

		// Phase 3: repair from the pristine replicas, then re-verify the
		// golden answers with a fresh engine.
		t0 = w.env.Clock.Now()
		rr, err := w.env.LH.Manager.Repair(string(Admin), "bench.fact", func(t catalog.Table, f bigmeta.FileEntry) ([]byte, error) {
			data, ok := w.replicas[f.Key]
			if !ok {
				return nil, fmt.Errorf("no replica for %s", f.Key)
			}
			return data, nil
		})
		if err != nil {
			return res, err
		}
		row.RepairTime = w.env.Clock.Now() - t0
		row.Rewritten, row.Reverified, row.RepairFailed = rr.Rewritten, rr.Reverified, len(rr.Failed)

		restored := len(w.env.Log.Quarantined("bench.fact")) == 0 && row.RepairFailed == 0
		postEng := w.engine()
		for qi, sql := range queries {
			r, err := postEng.Query(engine.NewContext(Admin, fmt.Sprintf("e19-post-%d-%d", ri, qi)), sql)
			if err != nil || renderRows(r.Batch) != golden[qi] {
				restored = false
				break
			}
		}
		row.FullAvailability = restored

		res.Rows = append(res.Rows, row)
		res.WrongAnswers += row.WrongAnswers
		if row.DetectionRate < 1 {
			res.AllDetected = false
		}
		if rate >= 0.01 && !row.FullAvailability {
			res.RestoredAtOnePercent = false
		}
	}
	return res, nil
}
