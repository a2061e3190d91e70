package engine

import (
	"biglake/internal/obs"
	"time"
)

// engCounters holds the engine's pre-resolved registry handles so the
// per-query mirror is a handful of atomic adds, never map lookups.
type engCounters struct {
	queries     *obs.Counter
	files       *obs.Counter
	pruned      *obs.Counter
	listCalls   *obs.Counter
	footerReads *obs.Counter
	bytes       *obs.Counter
	rows        *obs.Counter
	cacheHit    *obs.Counter
	cacheMiss   *obs.Counter
	qskips      *obs.Counter
	// colsRead / colsSkipped count, per table scan, the columns the
	// statement's projection kept and left undecoded.
	colsRead    *obs.Counter
	colsSkipped *obs.Counter
	// reads counts the table reads that merged their files; of them,
	// selectFanouts the ones whose cache hits selected as parallel
	// tasks, and mergeFanouts the ones whose merge copy did.
	reads         *obs.Counter
	selectFanouts *obs.Counter
	mergeFanouts  *obs.Counter
	// limitStops counts the table reads a LIMIT's row budget stopped
	// before the plan's last file.
	limitStops   *obs.Counter
	cacheEntries *obs.Gauge
	cacheBytes   *obs.Gauge
	// arenaBytes / arenaRecycled mirror the query-arena pool: slab
	// bytes retained for reuse, and how many queries were served by a
	// recycled arena instead of fresh allocation.
	arenaBytes    *obs.Gauge
	arenaRecycled *obs.Gauge
	simElapsed    *obs.Histogram
}

// simElapsedBounds buckets per-query simulated time in microseconds:
// 1ms, 10ms, 100ms, 1s, 10s, then overflow.
var simElapsedBounds = []int64{1_000, 10_000, 100_000, 1_000_000, 10_000_000}

func resolveEngCounters(r *obs.Registry) engCounters {
	return engCounters{
		queries:       r.Counter("engine.queries"),
		files:         r.Counter("engine.scan.files"),
		pruned:        r.Counter("engine.scan.pruned"),
		listCalls:     r.Counter("engine.scan.list_calls"),
		footerReads:   r.Counter("engine.scan.footer_reads"),
		bytes:         r.Counter("engine.scan.bytes"),
		rows:          r.Counter("engine.scan.rows"),
		cacheHit:      r.Counter("engine.scan.cache_hit"),
		cacheMiss:     r.Counter("engine.scan.cache_miss"),
		qskips:        r.Counter("engine.scan.quarantine_skipped"),
		colsRead:      r.Counter("engine.scan.columns_read"),
		colsSkipped:   r.Counter("engine.scan.columns_skipped"),
		reads:         r.Counter("engine.scan.reads"),
		selectFanouts: r.Counter("engine.scan.select_fanouts"),
		mergeFanouts:  r.Counter("engine.scan.merge_fanouts"),
		limitStops:    r.Counter("engine.limit_stops"),
		cacheEntries:  r.Gauge("engine.scan.cache_entries"),
		cacheBytes:    r.Gauge("engine.scan.cache_bytes"),
		arenaBytes:    r.Gauge("arena.bytes_in_use"),
		arenaRecycled: r.Gauge("arena.recycled"),
		simElapsed:    r.Histogram("engine.query.sim_elapsed_us", simElapsedBounds),
	}
}

// UseObs points the engine (and its scan cache) at a shared registry. Call during setup, before queries run.
func (e *Engine) UseObs(r *obs.Registry) {
	if r == nil {
		return
	}
	e.Obs = r
	e.ec = resolveEngCounters(r)
	if e.scanCache != nil {
		e.scanCache.Observe(e.ec.cacheEntries, e.ec.cacheBytes)
	}
	e.Sys.SetRegistry(r)
}

// ensureTrace attaches a trace to the context if the engine has a
// tracer and none is attached yet. It reports whether this call
// started (and therefore owns, and must Finish) the trace — a trace
// pre-set by a caller (omni, ExplainAnalyze) is never finished here.
func (e *Engine) ensureTrace(ctx *QueryContext) (owned bool) {
	if ctx.Trace == nil {
		if tr := e.Tracer.Start(ctx.QueryID, e.Clock); tr != nil {
			ctx.Trace = tr
			ctx.Span = tr.Root()
			return true
		}
		return false
	}
	if ctx.Span == nil {
		ctx.Span = ctx.Trace.Root()
	}
	return false
}

// mirrorStats publishes one execution's stats delta into the unified
// registry under "engine.*" names.
func (e *Engine) mirrorStats(pre, post ExecStats) {
	e.ec.queries.Add(1)
	e.ec.files.Add(post.FilesScanned - pre.FilesScanned)
	e.ec.pruned.Add(post.FilesPruned - pre.FilesPruned)
	e.ec.listCalls.Add(post.ListCalls - pre.ListCalls)
	e.ec.footerReads.Add(post.FooterReads - pre.FooterReads)
	e.ec.bytes.Add(post.BytesScanned - pre.BytesScanned)
	e.ec.rows.Add(post.RowsScanned - pre.RowsScanned)
	e.ec.cacheHit.Add(post.CacheHits - pre.CacheHits)
	e.ec.cacheMiss.Add(post.CacheMisses - pre.CacheMisses)
	e.ec.qskips.Add(post.QuarantineSkips - pre.QuarantineSkips)
	e.ec.simElapsed.Observe(int64(post.SimElapsed / time.Microsecond))
}

// ExplainAnalyze runs one SQL statement with tracing forced on and
// returns the result alongside its EXPLAIN ANALYZE profile: the span
// tree annotated with per-operator rows/bytes/sim-time and
// dominant-cost highlighting. It works whether or not the engine has a
// tracer installed.
func (e *Engine) ExplainAnalyze(ctx *QueryContext, sql string) (*Result, *obs.Profile, error) {
	tr := obs.NewTrace(ctx.QueryID, e.Clock)
	ctx.Trace = tr
	ctx.Span = tr.Root()
	res, err := e.Query(ctx, sql)
	tr.Finish()
	if err != nil {
		return nil, nil, err
	}
	return res, obs.BuildProfile(tr), nil
}
