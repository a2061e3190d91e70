// Package systables exposes live telemetry as SQL-queryable virtual
// tables under the reserved "system" dataset. The provider synthesizes
// columnar batches from point-in-time snapshots of the metrics
// registry, a bounded ring of finished job records, a fixed-size
// time-series ring of registry snapshots, the serve session table, and
// bigmeta's quarantine set — no files, no scan cache, no governance
// (telemetry is readable by any principal; see DESIGN.md "Queryable
// telemetry & SLOs").
//
// Self-observation rule: a query over system.* records itself exactly
// once, like any other query, and only AFTER its own scan completed —
// Scan copies every underlying structure under that structure's own
// mutex and releases all locks before returning, and job recording
// happens at terminal state, by the door the statement came through
// (a serve cursor's close, failure or shed; an Omni job's return), so a
// scan never observes or blocks its own record.
package systables

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"biglake/internal/bigmeta"
	"biglake/internal/catalog"
	"biglake/internal/obs"
	"biglake/internal/sim"
	"biglake/internal/vector"
)

// Dataset is the reserved virtual dataset name.
const Dataset = "system"

// Virtual table names.
const (
	TableJobs       = "system.jobs"
	TableMetrics    = "system.metrics"
	TableHistory    = "system.metrics_history"
	TableEvents     = "system.events"
	TableSessions   = "system.sessions"
	TableQuarantine = "system.quarantine"
	TableSLO        = "system.slo"
)

// Is reports whether name resolves inside the virtual system dataset.
// Any "system."-prefixed name is claimed (unknown members error from
// Scan with catalog.ErrNotFound) so user datasets can never shadow it.
func Is(name string) bool { return strings.HasPrefix(name, Dataset+".") }

// SessionRow is one open serve session, supplied by the serve layer
// through SetSessions.
type SessionRow struct {
	ID        string
	Principal string
	Inflight  int64 // cursors/statements holding admission grants
	Queries   int64 // statements prepared so far
	TxnOpen   bool
}

// Provider owns the telemetry rings and synthesizes system.* batches.
// All methods are nil-safe and safe for concurrent use.
type Provider struct {
	clock *sim.Clock

	// enabled gates job recording and history capture (the E21 A/B
	// arm). Scanning stays available either way.
	enabled atomic.Bool

	mu       sync.RWMutex
	reg      *obs.Registry
	log      *bigmeta.Log
	sessions func() []SessionRow

	jobs *JobRing
	hist *MetricsHistory
	slo  *SLOTracker

	// Provider's own meters, re-resolved on SetRegistry.
	recorded  *obs.Counter
	snapshots *obs.Counter
	retained  *obs.Gauge
}

// NewProvider returns a provider with default ring sizes (8192 jobs,
// 256 history snapshots, 4096-sample SLO windows) recording enabled.
func NewProvider(clock *sim.Clock, reg *obs.Registry, log *bigmeta.Log) *Provider {
	p := &Provider{
		clock: clock,
		log:   log,
		jobs:  NewJobRing(8192),
		hist:  NewMetricsHistory(256, 100*time.Millisecond),
		slo:   NewSLOTracker(4096),
	}
	p.enabled.Store(true)
	p.SetRegistry(reg)
	return p
}

// SetRegistry re-points the provider at a (possibly shared) registry —
// called from engine.UseObs. History deltas restart from the next
// capture so a registry swap never manufactures negative rates.
func (p *Provider) SetRegistry(reg *obs.Registry) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.reg = reg
	p.recorded = reg.Counter("systables.jobs.recorded")
	p.snapshots = reg.Counter("systables.history.snapshots")
	p.retained = reg.Gauge("systables.jobs.retained")
	p.mu.Unlock()
	p.hist.ResetBaseline()
}

// SetSessions installs the open-session enumerator (wired by
// serve.New). The callback must not call back into the provider.
func (p *Provider) SetSessions(fn func() []SessionRow) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.sessions = fn
	p.mu.Unlock()
}

// SetEnabled toggles job recording and history capture.
func (p *Provider) SetEnabled(on bool) {
	if p != nil {
		p.enabled.Store(on)
	}
}

// Enabled reports whether job recording is on.
func (p *Provider) Enabled() bool { return p != nil && p.enabled.Load() }

// ConfigureSLOs replaces the per-class SLO objectives. Nil or empty
// installs the defaults.
func (p *Provider) ConfigureSLOs(targets []SLOTarget) {
	if p == nil {
		return
	}
	if len(targets) == 0 {
		targets = DefaultSLOTargets()
	}
	p.slo.Configure(targets)
}

// SetHistoryEvery adjusts the minimum sim-time between history
// snapshots (experiments shrink it so short runs still fill the ring).
func (p *Provider) SetHistoryEvery(d time.Duration) {
	if p != nil {
		p.hist.SetEvery(d)
	}
}

// RecordJob appends one finished job to the ring, feeds the SLO
// tracker for successful statements, and opportunistically captures a
// metrics-history snapshot. No-op while disabled. Never called with
// any provider lock held by the caller — each substructure locks only
// itself, so a concurrent Scan can never deadlock against recording.
func (p *Provider) RecordJob(rec JobRecord) {
	if p == nil || !p.enabled.Load() {
		return
	}
	p.jobs.Record(rec)
	if rec.State == StateDone {
		p.slo.Observe(rec.Class, rec.AdmissionWait+rec.ExecSim)
	}
	p.mu.RLock()
	reg, recorded, retained := p.reg, p.recorded, p.retained
	p.mu.RUnlock()
	recorded.Add(1)
	retained.Set(int64(p.jobs.Len()))
	if p.hist.MaybeCapture(p.clock.Now(), reg) {
		p.mu.RLock()
		p.snapshots.Add(1)
		p.mu.RUnlock()
	}
}

// CaptureHistory forces a metrics-history snapshot now — experiments
// call it to pin a baseline before a run and a final point after.
func (p *Provider) CaptureHistory() {
	if p == nil {
		return
	}
	p.mu.RLock()
	reg := p.reg
	p.mu.RUnlock()
	if p.hist.Capture(p.clock.Now(), reg) {
		p.mu.RLock()
		p.snapshots.Add(1)
		p.mu.RUnlock()
	}
}

// Jobs returns a copy of the retained job records, oldest first.
func (p *Provider) Jobs() []JobRecord {
	if p == nil {
		return nil
	}
	return p.jobs.Snapshot()
}

// SLORows returns the current per-class SLO summaries.
func (p *Provider) SLORows() []SLORow {
	if p == nil {
		return nil
	}
	return p.slo.Rows()
}

// HistoryTaken reports how many metrics_history snapshots have been
// captured since startup (including ones the ring has since evicted).
func (p *Provider) HistoryTaken() int64 {
	if p == nil {
		return 0
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.hist.Taken()
}

// Schemas, fixed and documented in DESIGN.md.
var (
	jobsSchema = vector.NewSchema(
		vector.Field{Name: "query_id", Type: vector.String},
		vector.Field{Name: "principal", Type: vector.String},
		vector.Field{Name: "sql", Type: vector.String},
		vector.Field{Name: "kind", Type: vector.String},
		vector.Field{Name: "class", Type: vector.String},
		vector.Field{Name: "state", Type: vector.String},
		vector.Field{Name: "error_class", Type: vector.String},
		vector.Field{Name: "abort_cause", Type: vector.String},
		vector.Field{Name: "start_us", Type: vector.Int64},
		vector.Field{Name: "admission_wait_us", Type: vector.Int64},
		vector.Field{Name: "exec_sim_us", Type: vector.Int64},
		vector.Field{Name: "wall_us", Type: vector.Int64},
		vector.Field{Name: "rows_scanned", Type: vector.Int64},
		vector.Field{Name: "bytes_scanned", Type: vector.Int64},
		vector.Field{Name: "rows_returned", Type: vector.Int64},
		vector.Field{Name: "bytes_returned", Type: vector.Int64},
		vector.Field{Name: "cache_hits", Type: vector.Int64},
		vector.Field{Name: "quarantine_skips", Type: vector.Int64},
	)
	metricsSchema = vector.NewSchema(
		vector.Field{Name: "name", Type: vector.String},
		vector.Field{Name: "kind", Type: vector.String},
		vector.Field{Name: "value", Type: vector.Int64},
	)
	historySchema = vector.NewSchema(
		vector.Field{Name: "ts_us", Type: vector.Int64},
		vector.Field{Name: "name", Type: vector.String},
		vector.Field{Name: "kind", Type: vector.String},
		vector.Field{Name: "value", Type: vector.Int64},
		vector.Field{Name: "delta", Type: vector.Int64},
	)
	eventsSchema = vector.NewSchema(
		vector.Field{Name: "stream", Type: vector.String},
		vector.Field{Name: "seq", Type: vector.Int64},
		vector.Field{Name: "event", Type: vector.String},
	)
	sessionsSchema = vector.NewSchema(
		vector.Field{Name: "session_id", Type: vector.String},
		vector.Field{Name: "principal", Type: vector.String},
		vector.Field{Name: "inflight", Type: vector.Int64},
		vector.Field{Name: "queries", Type: vector.Int64},
		vector.Field{Name: "txn_open", Type: vector.Bool},
	)
	quarantineSchema = vector.NewSchema(
		vector.Field{Name: "table_name", Type: vector.String},
		vector.Field{Name: "file_key", Type: vector.String},
		vector.Field{Name: "source", Type: vector.String},
		vector.Field{Name: "reason", Type: vector.String},
		vector.Field{Name: "time_us", Type: vector.Int64},
	)
	sloSchema = vector.NewSchema(
		vector.Field{Name: "class", Type: vector.String},
		vector.Field{Name: "objective_us", Type: vector.Int64},
		vector.Field{Name: "target", Type: vector.Float64},
		vector.Field{Name: "total", Type: vector.Int64},
		vector.Field{Name: "attained", Type: vector.Int64},
		vector.Field{Name: "attainment", Type: vector.Float64},
		vector.Field{Name: "window", Type: vector.Int64},
		vector.Field{Name: "window_attainment", Type: vector.Float64},
		vector.Field{Name: "error_budget_burn", Type: vector.Float64},
		vector.Field{Name: "p50_us", Type: vector.Int64},
		vector.Field{Name: "p99_us", Type: vector.Int64},
	)
)

// Scan synthesizes the named table's current contents as one batch.
// Every underlying structure is copied under its own lock and released
// before the batch is built, so a query scanning system.jobs while its
// own record is pending can never deadlock.
func (p *Provider) Scan(name string) (*vector.Batch, error) {
	if p == nil {
		return nil, fmt.Errorf("%w: table %q (no system-table provider)", catalog.ErrNotFound, name)
	}
	switch name {
	case TableJobs:
		return p.scanJobs(), nil
	case TableMetrics:
		return p.scanMetrics(), nil
	case TableHistory:
		return p.scanHistory(), nil
	case TableEvents:
		return p.scanEvents(), nil
	case TableSessions:
		return p.scanSessions(), nil
	case TableQuarantine:
		return p.scanQuarantine(), nil
	case TableSLO:
		return p.scanSLO(), nil
	}
	return nil, fmt.Errorf("%w: table %q", catalog.ErrNotFound, name)
}

func (p *Provider) scanJobs() *vector.Batch {
	recs := p.jobs.Snapshot()
	n := len(recs)
	qid := make([]string, n)
	prin := make([]string, n)
	sqlText := make([]string, n)
	kind := make([]string, n)
	class := make([]string, n)
	state := make([]string, n)
	errClass := make([]string, n)
	abort := make([]string, n)
	start := make([]int64, n)
	wait := make([]int64, n)
	execSim := make([]int64, n)
	wall := make([]int64, n)
	rowsSc := make([]int64, n)
	bytesSc := make([]int64, n)
	rowsRet := make([]int64, n)
	bytesRet := make([]int64, n)
	cacheHits := make([]int64, n)
	qSkips := make([]int64, n)
	for i, r := range recs {
		qid[i] = r.QueryID
		prin[i] = r.Principal
		sqlText[i] = r.SQL
		kind[i] = r.Kind
		class[i] = r.Class
		state[i] = r.State
		errClass[i] = r.ErrorClass
		abort[i] = r.AbortCause
		start[i] = r.Start.Microseconds()
		wait[i] = r.AdmissionWait.Microseconds()
		execSim[i] = r.ExecSim.Microseconds()
		wall[i] = r.Wall.Microseconds()
		rowsSc[i] = r.RowsScanned
		bytesSc[i] = r.BytesScanned
		rowsRet[i] = r.RowsReturned
		bytesRet[i] = r.BytesReturned
		cacheHits[i] = r.CacheHits
		qSkips[i] = r.QuarantineSkips
	}
	return vector.MustBatch(jobsSchema, []*vector.Column{
		vector.NewStringColumn(qid),
		vector.NewStringColumn(prin),
		vector.NewStringColumn(sqlText),
		vector.NewStringColumn(kind),
		vector.NewStringColumn(class),
		vector.NewStringColumn(state),
		vector.NewStringColumn(errClass),
		vector.NewStringColumn(abort),
		vector.NewInt64Column(start),
		vector.NewInt64Column(wait),
		vector.NewInt64Column(execSim),
		vector.NewInt64Column(wall),
		vector.NewInt64Column(rowsSc),
		vector.NewInt64Column(bytesSc),
		vector.NewInt64Column(rowsRet),
		vector.NewInt64Column(bytesRet),
		vector.NewInt64Column(cacheHits),
		vector.NewInt64Column(qSkips),
	})
}

func (p *Provider) registry() *obs.Registry {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.reg
}

func (p *Provider) scanMetrics() *vector.Batch {
	snap := p.registry().Snapshot()
	type row struct {
		name, kind string
		value      int64
	}
	rows := make([]row, 0, len(snap.Counters)+len(snap.Gauges)+2*len(snap.Histograms))
	for name, v := range snap.Counters {
		rows = append(rows, row{name, "counter", v})
	}
	for name, v := range snap.Gauges {
		rows = append(rows, row{name, "gauge", v})
	}
	for name, h := range snap.Histograms {
		rows = append(rows, row{name, "histogram_count", h.Count})
		rows = append(rows, row{name, "histogram_sum", h.Sum})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].name != rows[j].name {
			return rows[i].name < rows[j].name
		}
		return rows[i].kind < rows[j].kind
	})
	names := make([]string, len(rows))
	kinds := make([]string, len(rows))
	vals := make([]int64, len(rows))
	for i, r := range rows {
		names[i], kinds[i], vals[i] = r.name, r.kind, r.value
	}
	return vector.MustBatch(metricsSchema, []*vector.Column{
		vector.NewStringColumn(names),
		vector.NewStringColumn(kinds),
		vector.NewInt64Column(vals),
	})
}

func (p *Provider) scanHistory() *vector.Batch {
	rows := p.hist.Rows()
	ts := make([]int64, len(rows))
	names := make([]string, len(rows))
	kinds := make([]string, len(rows))
	vals := make([]int64, len(rows))
	deltas := make([]int64, len(rows))
	for i, r := range rows {
		ts[i] = r.Ts.Microseconds()
		names[i] = r.Name
		kinds[i] = r.Kind
		vals[i] = r.Value
		deltas[i] = r.Delta
	}
	return vector.MustBatch(historySchema, []*vector.Column{
		vector.NewInt64Column(ts),
		vector.NewStringColumn(names),
		vector.NewStringColumn(kinds),
		vector.NewInt64Column(vals),
		vector.NewInt64Column(deltas),
	})
}

func (p *Provider) scanEvents() *vector.Batch {
	snap := p.registry().Snapshot()
	streams := make([]string, 0, len(snap.Events))
	for s := range snap.Events {
		streams = append(streams, s)
	}
	sort.Strings(streams)
	var names []string
	var seqs []int64
	var evs []string
	for _, s := range streams {
		for i, ev := range snap.Events[s] {
			names = append(names, s)
			seqs = append(seqs, int64(i))
			evs = append(evs, ev)
		}
	}
	return vector.MustBatch(eventsSchema, []*vector.Column{
		vector.NewStringColumn(names),
		vector.NewInt64Column(seqs),
		vector.NewStringColumn(evs),
	})
}

func (p *Provider) scanSessions() *vector.Batch {
	p.mu.RLock()
	fn := p.sessions
	p.mu.RUnlock()
	var rows []SessionRow
	if fn != nil {
		rows = fn()
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].ID < rows[j].ID })
	ids := make([]string, len(rows))
	prins := make([]string, len(rows))
	inflight := make([]int64, len(rows))
	queries := make([]int64, len(rows))
	txnOpen := make([]bool, len(rows))
	for i, r := range rows {
		ids[i] = r.ID
		prins[i] = r.Principal
		inflight[i] = r.Inflight
		queries[i] = r.Queries
		txnOpen[i] = r.TxnOpen
	}
	return vector.MustBatch(sessionsSchema, []*vector.Column{
		vector.NewStringColumn(ids),
		vector.NewStringColumn(prins),
		vector.NewInt64Column(inflight),
		vector.NewInt64Column(queries),
		vector.NewBoolColumn(txnOpen),
	})
}

func (p *Provider) scanQuarantine() *vector.Batch {
	p.mu.RLock()
	log := p.log
	p.mu.RUnlock()
	var tables []string
	var marks map[string][]bigmeta.QuarantineMark
	if log != nil {
		marks = log.AllQuarantined()
		for t := range marks {
			tables = append(tables, t)
		}
		sort.Strings(tables)
	}
	var tbl, key, src, reason []string
	var ts []int64
	for _, t := range tables {
		for _, m := range marks[t] {
			tbl = append(tbl, t)
			key = append(key, m.Key)
			src = append(src, m.Source)
			reason = append(reason, m.Reason)
			ts = append(ts, m.Time.Microseconds())
		}
	}
	return vector.MustBatch(quarantineSchema, []*vector.Column{
		vector.NewStringColumn(tbl),
		vector.NewStringColumn(key),
		vector.NewStringColumn(src),
		vector.NewStringColumn(reason),
		vector.NewInt64Column(ts),
	})
}

func (p *Provider) scanSLO() *vector.Batch {
	rows := p.slo.Rows()
	class := make([]string, len(rows))
	obj := make([]int64, len(rows))
	target := make([]float64, len(rows))
	total := make([]int64, len(rows))
	attained := make([]int64, len(rows))
	attainment := make([]float64, len(rows))
	window := make([]int64, len(rows))
	winAtt := make([]float64, len(rows))
	burn := make([]float64, len(rows))
	p50 := make([]int64, len(rows))
	p99 := make([]int64, len(rows))
	for i, r := range rows {
		class[i] = r.Class
		obj[i] = r.ObjectiveUs
		target[i] = r.Target
		total[i] = r.Total
		attained[i] = r.Attained
		attainment[i] = r.Attainment
		window[i] = r.Window
		winAtt[i] = r.WindowAttainment
		burn[i] = r.ErrorBudgetBurn
		p50[i] = r.P50Us
		p99[i] = r.P99Us
	}
	return vector.MustBatch(sloSchema, []*vector.Column{
		vector.NewStringColumn(class),
		vector.NewInt64Column(obj),
		vector.NewFloat64Column(target),
		vector.NewInt64Column(total),
		vector.NewInt64Column(attained),
		vector.NewFloat64Column(attainment),
		vector.NewInt64Column(window),
		vector.NewFloat64Column(winAtt),
		vector.NewFloat64Column(burn),
		vector.NewInt64Column(p50),
		vector.NewInt64Column(p99),
	})
}
