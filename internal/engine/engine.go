// Package engine implements the Dremel stand-in: BigQuery's massively
// parallel in-situ query engine (§2.1). It parses GoogleSQL (via
// internal/sqlparse), plans scans with metadata-cache-driven partition
// and file pruning (§3.3), enforces governance on every scan through
// the shared security.Authority implementation (§3.2), executes joins,
// aggregation and ordering over vectorized batches, supports dynamic
// partition pruning from dimension filters (§3.4), and dispatches the
// ML table-valued functions of §4.2 to a registered inference runtime.
package engine

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"biglake/internal/arena"
	"biglake/internal/bigmeta"
	"biglake/internal/catalog"
	"biglake/internal/objstore"
	"biglake/internal/obs"
	"biglake/internal/resilience"
	"biglake/internal/scan"
	"biglake/internal/security"
	"biglake/internal/sim"
	"biglake/internal/sqlparse"
	"biglake/internal/systables"
	"biglake/internal/vector"
)

// Errors returned by query execution.
var (
	ErrUnsupported = errors.New("engine: unsupported")
	ErrNoSuchFunc  = errors.New("engine: unknown function")
	ErrSemantic    = errors.New("engine: semantic error")
	// ErrNoTxn reports BEGIN/COMMIT/ROLLBACK reaching the bare engine:
	// transaction control only has meaning inside an interactive
	// session (internal/txn), which intercepts these statements before
	// dispatching to Execute.
	ErrNoTxn = errors.New("engine: transaction control requires an interactive transaction session")
)

// QueryRetryBudget is the total number of object-store retries one
// query may spend across all its operations; past it, faults surface
// even if individual operations still have attempts left.
const QueryRetryBudget = 64

// ScalarFunc implements a registered scalar function (e.g.
// ML.DECODE_IMAGE). It receives evaluated argument columns and the
// query context and returns a result column of b.N rows.
type ScalarFunc func(ctx *QueryContext, args []*vector.Column) (*vector.Column, error)

// TVFFunc implements a registered table-valued function (e.g.
// ML.PREDICT): it receives the evaluated input relation and returns
// the output relation.
type TVFFunc func(ctx *QueryContext, model string, input *vector.Batch) (*vector.Batch, error)

// TxnView is the engine-facing surface of an interactive transaction
// session (internal/txn). When a QueryContext carries one, every
// managed-table scan is pinned to the transaction's snapshot version,
// overlaid with the session's buffered (uncommitted) writes, and
// reported back as part of the file-level read set used for optimistic
// conflict detection at commit.
type TxnView interface {
	// SnapshotVersion is the log version every read inside the
	// transaction is pinned to, across all tables.
	SnapshotVersion() int64
	// Overlay returns the session's buffered effect on one table: keys
	// the transaction logically removed (skipped during scan) and
	// batches it logically added (appended after the scan, before the
	// residual WHERE re-check).
	Overlay(table string) (removed map[string]bool, added []*vector.Batch)
	// ObserveRead records the snapshot files a scan consumed, feeding
	// the transaction's read set.
	ObserveRead(table string, files []bigmeta.FileEntry)
}

// Mutator handles DML against managed storage (wired to internal/blmt
// by the top-level client to avoid an import cycle).
type Mutator interface {
	Insert(ctx *QueryContext, table string, rows *vector.Batch) error
	Delete(ctx *QueryContext, table string, where func(*vector.Batch) ([]bool, error)) (int64, error)
	Update(ctx *QueryContext, table string, set func(*vector.Batch) (*vector.Batch, error), where func(*vector.Batch) ([]bool, error)) (int64, error)
	CreateTableAs(ctx *QueryContext, table string, orReplace bool, rows *vector.Batch) error
}

// Options configures the engine. DefaultOptions is what production
// runs; the acceleration switches (metadata cache, DPP, prune
// granularity, scan cache) are also the axes of the oracle's
// differential matrix.
type Options struct {
	// UseMetadataCache enables §3.3 acceleration for tables that have
	// it configured (E1's on/off switch).
	UseMetadataCache bool
	// EnableDPP turns on dynamic partition pruning: selective
	// dimension filters are turned into range predicates on the fact
	// scan (§3.4).
	EnableDPP bool
	// PruneGranularity selects partition-only vs file-level pruning
	// (ablation A1).
	PruneGranularity bigmeta.PruneGranularity
	// MorselWorkers bounds the CPU parallelism of the vectorized join
	// and aggregation kernels. 0 means runtime.GOMAXPROCS capped at 8.
	// Results are bit-identical for every worker count.
	MorselWorkers int
	// EnableScanCache turns on the generation-keyed decoded-file cache:
	// repeated scans of an unchanged object skip both the GET and the
	// decode. DefaultOptions leaves it off, and with it core.New and
	// both CLIs. It is on in the repo benchmark's serving stack
	// (benchmark/world.go, 32 MiB), in the cache arms E15/E16/E20 get
	// from Lakehouse.NewEngine and E19's engines, in the crash sweep's
	// lakehouse (and so its engine after Lakehouse.Recover), in every
	// differential matrix cell and in half the integrity cells.
	EnableScanCache bool
	// ScanCacheBytes is the cache's decoded-byte budget (0 = default).
	ScanCacheBytes int64
	// SkipQuarantined lets scans skip integrity-quarantined files with
	// a warning event ("integrity.warnings") instead of failing the
	// query with a typed error — an explicit opt-in for
	// availability-over-completeness workloads. Off by default: wrong
	// is worse than down, and silently narrowing results must be a
	// conscious choice.
	SkipQuarantined bool
	// ArenaRetainBytes caps how much slab capacity one recycled arena
	// may keep between queries (0 = arena.DefaultRetainBytes). Size it
	// to the workload's per-query peak: a query whose working set
	// exceeds the cap still runs, but its arena is trimmed back on
	// release and the excess is re-made from the heap next time.
	ArenaRetainBytes int64
}

// DefaultOptions is the production configuration.
func DefaultOptions() Options {
	return Options{
		UseMetadataCache: true,
		EnableDPP:        true,
		PruneGranularity: bigmeta.PruneFiles,
	}
}

// execWorkers resolves the effective morsel worker count.
func (e *Engine) execWorkers() int {
	if e.Opts.MorselWorkers > 0 {
		return e.Opts.MorselWorkers
	}
	w := runtime.GOMAXPROCS(0)
	if w > 8 {
		w = 8
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Engine is one region's query engine instance.
type Engine struct {
	Catalog *catalog.Catalog
	Auth    *security.Authority
	Meta    *bigmeta.Cache
	Log     *bigmeta.Log
	Clock   *sim.Clock
	Opts    Options
	// Obs is the metrics registry the engine publishes into ("engine.*"
	// counters, "resilience.*" through Res) and system.metrics reads
	// back. New creates a private one; an assembly hands it to every
	// other component's UseObs (or installs its own with UseObs here).
	Obs *obs.Registry
	// Tracer, when set, records a trace-span tree for every query that
	// does not arrive with one already attached. Nil disables tracing
	// at near-zero cost (nil-span fast paths).
	Tracer *obs.Tracer
	// Res is the retry/hedging policy applied to every object-store
	// operation the engine issues. Nil behaves like resilience.NoRetry.
	// It is bound to Obs at each use, so swapping it keeps its counters.
	Res *resilience.Policy

	// Stores maps cloud name -> that cloud's object store.
	Stores map[string]*objstore.Store

	// Sys serves the virtual "system" dataset: live telemetry
	// (system.jobs, system.metrics, system.slo, ...) synthesized as
	// columnar batches at scan time. The engine records no job: the
	// doors (serve, Omni) do.
	Sys *systables.Provider

	// ManagedCred is the internal credential for BigQuery managed
	// storage (native tables).
	ManagedCred objstore.Credential

	mu      sync.RWMutex
	scalars map[string]ScalarFunc
	tvfs    map[string]TVFFunc
	mutator Mutator

	// ec holds pre-resolved registry handles for the hot mirror path.
	ec engCounters

	// scanCache holds decoded file contents keyed by object generation;
	// nil unless Options.EnableScanCache is set.
	scanCache *scan.Cache

	// arenas recycles per-query execution arenas; stats are mirrored
	// into the registry after every query.
	arenas *arena.Pool

	// shapes caches parsed statements by shape (sqlparse.Lexed.Key: the
	// token stream with each literal reduced to its class), so a
	// statement that differs from a cached one only in its literals —
	// a point lookup's key, an INSERT's VALUES — is lexed and bound to
	// the cached template, not parsed. Templates are immutable and a
	// bound AST shares the template's literal-free subtrees, so the
	// executor never writes into a statement node.
	stmtMu sync.Mutex
	shapes map[string]*sqlparse.Template
	// shapeRing holds the cached shapes' keys in insertion order, the
	// oldest at shapeNext once the ring is full.
	shapeRing []string
	shapeNext int
}

// stmtCacheCap bounds the statement cache. At the cap a new shape evicts
// the oldest one inserted (FIFO) rather than tracking recency: an LRU
// list would put writes back on the hit path the cache exists to clear.
const stmtCacheCap = 1024

// New assembles an engine.
func New(cat *catalog.Catalog, auth *security.Authority, meta *bigmeta.Cache, log *bigmeta.Log, clock *sim.Clock, stores map[string]*objstore.Store, opts Options) *Engine {
	reg := obs.NewRegistry()
	eng := &Engine{
		Catalog: cat,
		Auth:    auth,
		Meta:    meta,
		Log:     log,
		Clock:   clock,
		Opts:    opts,
		Obs:     reg,
		Res:     resilience.DefaultPolicy(),
		Stores:  stores,
		scalars: make(map[string]ScalarFunc),
		tvfs:    make(map[string]TVFFunc),
		ec:      resolveEngCounters(reg),
		arenas:  arena.NewPoolSized(0, opts.ArenaRetainBytes),
		Sys:     systables.NewProvider(clock, reg, log),
	}
	if opts.EnableScanCache {
		eng.scanCache = scan.NewCache(opts.ScanCacheBytes)
		eng.scanCache.Observe(eng.ec.cacheEntries, eng.ec.cacheBytes)
	}
	return eng
}

// RegisterScalar installs a scalar function under an upper-case name.
func (e *Engine) RegisterScalar(name string, fn ScalarFunc) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.scalars[name] = fn
}

// RegisterTVF installs a table-valued function.
func (e *Engine) RegisterTVF(name string, fn TVFFunc) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.tvfs[name] = fn
}

// SetMutator wires the DML handler.
func (e *Engine) SetMutator(m Mutator) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.mutator = m
}

func (e *Engine) scalar(name string) (ScalarFunc, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	fn, ok := e.scalars[name]
	return fn, ok
}

func (e *Engine) tvf(name string) (TVFFunc, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	fn, ok := e.tvfs[name]
	return fn, ok
}

// ExecStats records observable execution behaviour for experiments.
type ExecStats struct {
	FilesScanned int64
	FilesPruned  int64
	ListCalls    int64
	FooterReads  int64
	BytesScanned int64
	RowsScanned  int64
	// CacheHits / CacheMisses count scan-cache lookups: a hit serves a
	// file's decoded batch without re-fetching or re-decoding it.
	CacheHits   int64
	CacheMisses int64
	// QuarantineSkips counts quarantined files the scan omitted under
	// Options.SkipQuarantined (each omission also logs a warning).
	QuarantineSkips int64
	// DPPCaptures counts join-key ranges captured for dynamic partition
	// pruning. A range is only captured while a table scan that could
	// use it is still to come.
	DPPCaptures int64
	SimStart    time.Duration
	SimElapsed  time.Duration
}

// QueryContext carries per-query identity and accounting.
type QueryContext struct {
	Principal security.Principal
	QueryID   string
	Region    string
	// Scope, when set, narrows every delegated credential used by this
	// query to the given object-path prefixes — Omni's per-query
	// credential scoping (§5.3.1), limiting the blast radius of a
	// compromised worker to the paths the query legitimately needs.
	Scope []string
	// Deadline, when > 0, bounds the query to that much simulated time
	// from execution start; once it passes, every further object-store
	// operation fails with resilience.ErrDeadlineExceeded, so a retry
	// storm cannot run unbounded.
	Deadline time.Duration
	// Budget is the per-query retry budget; Execute seeds one from the
	// query ID when unset.
	Budget *resilience.Budget
	Stats  ExecStats
	// Trace is the query's span tree. The code path that starts it owns
	// it: Execute finishes only traces it started itself, so a caller
	// (omni, ExplainAnalyze) that pre-attaches one keeps control of its
	// lifetime.
	Trace *obs.Trace
	// Span is the current parent span; operators nest children under it
	// and restore it on exit. Nil when tracing is off — every span call
	// is nil-safe and allocation-free in that state.
	Span *obs.Span
	// Txn, when set, pins scans to a transaction snapshot and overlays
	// the session's buffered writes (see TxnView).
	Txn TxnView
	// Mutator, when set, overrides the engine's installed DML handler
	// for this query — transaction sessions route DML into their write
	// buffer this way.
	Mutator Mutator

	// SQLText is the statement's source text, which a door (serve,
	// Omni) sets for the system.jobs row it records.
	SQLText string

	// mem is the query's memory policy: the arena every kernel draws
	// scratch and outputs from. Execute installs it for the statement's
	// duration and resets it before releasing the arena, so a context
	// reused across statements (txn sessions) never carries a recycled
	// allocator.
	mem vector.Mem
}

// NewContext builds a query context.
func NewContext(p security.Principal, queryID string) *QueryContext {
	return &QueryContext{Principal: p, QueryID: queryID}
}

// Cancel cooperatively kills the query by collapsing its retry budget:
// the next deadline check any operation performs fails with
// resilience.ErrCanceled. Callers that need to cancel from another
// goroutine must seed Budget before execution starts (the serve layer
// does); with a nil Budget this is a no-op.
func (ctx *QueryContext) Cancel() { ctx.Budget.Cancel() }

// Result is a completed query.
type Result struct {
	Batch *vector.Batch
	Stats ExecStats
}

// Query parses and executes one SQL statement on behalf of the
// context's principal.
func (e *Engine) Query(ctx *QueryContext, sql string) (*Result, error) {
	if e.ensureTrace(ctx) {
		defer ctx.Trace.Finish()
	}
	var psp *obs.Span
	if ctx.Span != nil {
		psp = ctx.Span.Child("parse")
	}
	stmt, hit, err := e.Parse(sql)
	if hit && psp != nil {
		psp.SetStr("cache", "hit")
	}
	psp.End()
	if err != nil {
		return nil, err
	}
	return e.Execute(ctx, stmt)
}

// Parse returns the statement for one SQL text, binding it to the
// cached template of its shape when there is one (hit reports whether
// it did). A text that lexes to a cached shape but does not bind — a
// fixed token such as a LIMIT count differs, or a literal overflows —
// is parsed in full, so its AST and its errors are sqlparse.Parse's;
// its template then replaces the cached one. Callers must treat the
// returned AST as immutable — it shares nodes with the template and
// with concurrent queries.
func (e *Engine) Parse(sql string) (stmt sqlparse.Statement, hit bool, err error) {
	lx, err := sqlparse.Lex(sql)
	if err != nil {
		return nil, false, err
	}
	defer lx.Release()
	key := lx.Key()
	e.stmtMu.Lock()
	tpl := e.shapes[string(key)]
	e.stmtMu.Unlock()
	if tpl != nil {
		if stmt, ok := tpl.Bind(lx); ok {
			return stmt, true, nil
		}
	}
	tpl, stmt, err = lx.Parse()
	if err != nil {
		return nil, false, err
	}
	e.stmtMu.Lock()
	e.cacheShape(string(key), tpl)
	e.stmtMu.Unlock()
	return stmt, false, nil
}

// cacheShape caches tpl under key, replacing the template a key already
// cached holds, or evicting the oldest shape when the cache is full.
// The caller holds stmtMu.
func (e *Engine) cacheShape(key string, tpl *sqlparse.Template) {
	if e.shapes == nil {
		e.shapes = make(map[string]*sqlparse.Template, 64)
	}
	if _, ok := e.shapes[key]; !ok {
		if len(e.shapeRing) < stmtCacheCap {
			e.shapeRing = append(e.shapeRing, key)
		} else {
			delete(e.shapes, e.shapeRing[e.shapeNext])
			e.shapeRing[e.shapeNext] = key
			e.shapeNext = (e.shapeNext + 1) % stmtCacheCap
		}
	}
	e.shapes[key] = tpl
}

// JobRecord builds the system.jobs row of a statement run under ctx, for
// every door (serve, Omni): identity, SQL, timing and counts from ctx,
// kind and class from stmt, rows returned from res (nil: none), state
// and error class from err. Callers add admission wait, bytes, wall time.
func JobRecord(ctx *QueryContext, stmt sqlparse.Statement, res *Result, err error) systables.JobRecord {
	rec := systables.JobRecord{
		QueryID:         ctx.QueryID,
		Principal:       string(ctx.Principal),
		SQL:             ctx.SQLText,
		Kind:            sqlparse.Kind(stmt),
		Class:           QueryClass(stmt),
		State:           systables.StateDone,
		Start:           ctx.Stats.SimStart,
		ExecSim:         ctx.Stats.SimElapsed,
		RowsScanned:     ctx.Stats.RowsScanned,
		BytesScanned:    ctx.Stats.BytesScanned,
		CacheHits:       ctx.Stats.CacheHits,
		QuarantineSkips: ctx.Stats.QuarantineSkips,
	}
	if err != nil {
		rec.State, rec.ErrorClass = systables.StateFailed, systables.ClassifyError(err)
		switch rec.ErrorClass {
		case "cancelled":
			rec.State = systables.StateCancelled
		case "txn_conflict":
			rec.AbortCause = err.Error()
		}
	} else if res != nil && res.Batch != nil {
		rec.RowsReturned = int64(res.Batch.N)
	}
	return rec
}

// QueryClass buckets a statement for SLO accounting: selects with
// grouping, joins, or aggregates are "olap", other selects "point",
// DML "dml", transaction control "txn".
func QueryClass(stmt sqlparse.Statement) string {
	switch s := stmt.(type) {
	case *sqlparse.SelectStmt:
		if len(s.GroupBy) > 0 || len(s.Joins) > 0 {
			return "olap"
		}
		for _, it := range s.Items {
			if !it.Star && sqlparse.IsAggregate(it.Expr) {
				return "olap"
			}
		}
		return "point"
	case *sqlparse.InsertStmt, *sqlparse.UpdateStmt, *sqlparse.DeleteStmt, *sqlparse.CreateTableAsStmt:
		return "dml"
	case *sqlparse.BeginStmt, *sqlparse.CommitStmt, *sqlparse.RollbackStmt:
		return "txn"
	}
	return "other"
}

// Execute runs a parsed statement under ctx. Whatever the statement, a
// result carries its final stats, stamped after the statement's end. It
// records nothing: system.jobs is written by the doors a statement comes
// through (serve's cursors, sheds and failures, Omni's one row per
// query), each from the statement's context once its outcome is known.
func (e *Engine) Execute(ctx *QueryContext, stmt sqlparse.Statement) (res *Result, err error) {
	owned := e.ensureTrace(ctx)
	pre := ctx.Stats
	parentSpan := ctx.Span
	var exec *obs.Span
	if parentSpan != nil {
		exec = parentSpan.Child("execute")
		ctx.Span = exec
	}
	ctx.Stats.SimStart = e.Clock.Now()
	defer func() {
		ctx.Stats.SimElapsed = e.Clock.Now() - ctx.Stats.SimStart
		if res != nil {
			res.Stats = ctx.Stats
		}
		exec.End()
		ctx.Span = parentSpan
		e.mirrorStats(pre, ctx.Stats)
		if owned {
			ctx.Trace.Finish()
		}
	}()
	ar := e.arenas.Get()
	ctx.mem = vector.Mem{Al: ar}
	// Runs before the span-ending defer above (LIFO), so the arena
	// footprint lands on the execute span for EXPLAIN ANALYZE.
	defer func() {
		if exec != nil {
			exec.SetInt("arena_bytes", ar.Bytes())
		}
		ctx.mem = vector.Mem{}
		ar.Release()
		st := e.arenas.Stats()
		e.ec.arenaBytes.Set(st.BytesRetained)
		e.ec.arenaRecycled.Set(st.Recycled)
	}()
	if ctx.Budget == nil {
		ctx.Budget = resilience.NewBudget(e.Clock, QueryRetryBudget, resilience.Seed64(ctx.QueryID))
	}
	if ctx.Deadline > 0 {
		ctx.Budget.SetDeadline(ctx.Stats.SimStart + ctx.Deadline)
	}
	switch s := stmt.(type) {
	case *sqlparse.SelectStmt:
		b, err := e.execSelect(ctx, s)
		if err != nil {
			return nil, err
		}
		// Deadline enforcement at completion: a query whose I/O pushed
		// the clock past the deadline is killed even if every individual
		// operation squeaked through its per-attempt check.
		if err := ctx.Budget.CheckDeadline(e.Clock); err != nil {
			return nil, err
		}
		if exec != nil {
			exec.SetInt("rows", int64(b.N))
		}
		// Copy-out boundary: the result must survive the arena being
		// recycled by the next query.
		b = vector.DetachBatch(b)
		return &Result{Batch: b}, nil
	case *sqlparse.InsertStmt:
		return e.execInsert(ctx, s)
	case *sqlparse.UpdateStmt:
		return e.execUpdate(ctx, s)
	case *sqlparse.DeleteStmt:
		return e.execDelete(ctx, s)
	case *sqlparse.CreateTableAsStmt:
		return e.execCTAS(ctx, s)
	case *sqlparse.BeginStmt, *sqlparse.CommitStmt, *sqlparse.RollbackStmt:
		return nil, ErrNoTxn
	}
	return nil, fmt.Errorf("%w: statement %T", ErrUnsupported, stmt)
}
