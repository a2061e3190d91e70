package oracle

// The differential harness: builds a simulated lakehouse world, fills
// it with generated tables, and runs every generated query through
// the real engine under the full acceleration-configuration matrix —
// {metadata cache on/off} × {DPP on/off} × {prune granularity} ×
// {chaos faults on/off} — comparing each answer against the
// row-at-a-time oracle, before and after DML + BLMT compaction.
//
// Comparison contract: a query whose ORDER BY covers every output
// column is compared as an exact row sequence; anything else is
// compared as a multiset of rendered rows. Under injected faults the
// engine is allowed to *fail* (retry budgets are finite) but never to
// return a wrong answer: an error in a fault cell is counted, a wrong
// row anywhere is a divergence.
//
// On divergence the harness greedily shrinks the statement (drop
// LIMIT/ORDER BY/items/joins/predicate branches) while it still
// reproduces, and reports seed, cell, SQL, minimized SQL, and the
// first differing row.

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"biglake/internal/bigmeta"
	"biglake/internal/catalog"
	"biglake/internal/colfmt"
	"biglake/internal/core"
	"biglake/internal/engine"
	"biglake/internal/objstore"
	"biglake/internal/obs"
	"biglake/internal/security"
	"biglake/internal/serve"
	"biglake/internal/sqlparse"
	"biglake/internal/storageapi"
	"biglake/internal/vector"
)

const (
	diffBucket = "lake"
	diffAdmin  = security.Principal("admin@corp")
	// diffAnalyst reads every table under the trial's generated
	// policies: a row policy, a masked and perhaps a denied column each.
	diffAnalyst = security.Principal("analyst@corp")
)

// Config is one cell of the acceleration matrix.
type Config struct {
	Cache       bool
	DPP         bool
	Granularity bigmeta.PruneGranularity
	Faults      bool
	// ScanCache enables the generation-keyed decoded-file cache; the
	// matrix keeps it on everywhere so every differential query also
	// cross-checks cached-decode reuse against the oracle.
	ScanCache bool
}

func (c Config) String() string {
	onOff := func(b bool) string {
		if b {
			return "on"
		}
		return "off"
	}
	gran := "partitions"
	if c.Granularity == bigmeta.PruneFiles {
		gran = "files"
	}
	return fmt.Sprintf("cache=%s dpp=%s prune=%s faults=%s scancache=%s",
		onOff(c.Cache), onOff(c.DPP), gran, onOff(c.Faults), onOff(c.ScanCache))
}

// Matrix enumerates all 16 configuration cells.
func Matrix() []Config {
	var out []Config
	for _, cache := range []bool{false, true} {
		for _, dpp := range []bool{false, true} {
			for _, gran := range []bigmeta.PruneGranularity{bigmeta.PrunePartitionsOnly, bigmeta.PruneFiles} {
				for _, faults := range []bool{false, true} {
					out = append(out, Config{Cache: cache, DPP: dpp, Granularity: gran, Faults: faults, ScanCache: true})
				}
			}
		}
	}
	return out
}

// Options configures a differential run.
type Options struct {
	Seed    uint64
	Trials  int // generated worlds; default 2
	Queries int // SELECTs per world per phase; default 70
	Log     func(format string, args ...any)
	// Tracer, when set, records a span tree for every engine query the
	// run executes (profiling soak: set a Cap to bound retention).
	Tracer *obs.Tracer
	// Serve additionally routes every matrix SELECT through a serve
	// session (parse -> prepare -> admit -> paged cursor) on the same
	// engine and diffs the reassembled stream against the direct
	// library execution — the session layer must be invisible to
	// results.
	Serve bool
}

// Report is the outcome of a differential run.
type Report struct {
	Trials      int
	Queries     int // generated statements (SELECT + DML + CTAS)
	Executions  int // engine runs across all matrix cells
	FaultErrors int // engine errors accepted in fault-injection cells
	// ReadAPIAggSessions counts the aggregate Read API sessions run for
	// generated statements (the fixed shapes not included).
	ReadAPIAggSessions int
	// LimitStops counts the table reads a LIMIT stopped before their
	// plan's last file (engine.limit_stops).
	LimitStops int64
	Divergence *Divergence
}

// Divergence is one engine-vs-oracle mismatch, minimized.
type Divergence struct {
	Seed  uint64
	Trial int
	Phase string // "pre", "dml", or "post" (relative to compaction)
	Cell  Config
	// Principal ran the statement: the admin, or the governed analyst
	// (compared against the oracle's governed view of the tables).
	Principal security.Principal
	SQL       string
	MinSQL    string
	Detail    string
}

// Format renders the reproduction recipe a human needs.
func (d *Divergence) Format() string {
	return fmt.Sprintf(
		"divergence: seed=%d trial=%d phase=%s cell={%s} principal=%s\n  sql: %s\n  minimized: %s\n  %s\n  replay: go test ./internal/oracle -run TestDifferential -seed=%d",
		d.Seed, d.Trial, d.Phase, d.Cell, d.Principal, d.SQL, d.MinSQL, d.Detail, d.Seed)
}

// newWorld is the lakehouse one trial or sweep runs in: a core.New
// deployment with lh.Engine built from opts, plus the lake bucket and
// the "ds" dataset. Every matrix cell gets an engine of its own options
// from NewEngine; the object store, catalog, commit log and Big
// Metadata cache are the deployment's — the state the acceleration
// paths must agree about. Read API sessions are never reused: one
// planned against the table state of an earlier phase would pin it.
func newWorld(opts engine.Options) (*core.Lakehouse, error) {
	lh, err := core.New(core.Options{Admin: diffAdmin, Engine: &opts})
	if err != nil {
		return nil, err
	}
	lh.StorageAPI.SessionTTL = 0
	if err := lh.CreateBucket(diffBucket); err != nil {
		return nil, err
	}
	return lh, lh.CreateDataset("ds")
}

type harness struct {
	w  *core.Lakehouse
	db *DB
	// pols is what diffAnalyst is governed by; the analyst arm compares
	// the engine against db.Governed(pols).
	pols  []GenPolicy
	seed  uint64
	trial int
	rep   *Report
	logf  func(format string, args ...any)
	serve bool
	// sessions caches one serve session per cell engine so the serve
	// arm reuses warmed server state the way a real client would.
	sessions map[*engine.Engine]*serve.Session
}

// serveSession returns (building on first use) the serve-path session
// for one cell engine. Small pages on purpose: most results span
// several pages, so reassembly is actually exercised.
func (h *harness) serveSession(eng *engine.Engine) (*serve.Session, error) {
	if s, ok := h.sessions[eng]; ok {
		return s, nil
	}
	srv := serve.New(eng, nil, serve.Config{PageRows: 7})
	s, err := srv.Open(diffAdmin, fmt.Sprintf("fzs-%d", len(h.sessions)))
	if err != nil {
		return nil, err
	}
	h.sessions[eng] = s
	return s, nil
}

// serveRun executes one SELECT through the serve session path —
// pinning the same query ID as the direct run so the retry budget's
// jitter seed matches — and reassembles the paged stream.
func (h *harness) serveRun(eng *engine.Engine, qid, sql string) (*Resultset, error) {
	sess, err := h.serveSession(eng)
	if err != nil {
		return nil, err
	}
	p, err := sess.Parse(sql)
	if err != nil {
		return nil, err
	}
	p.SetQueryID(qid)
	cur, err := p.Execute()
	if err != nil {
		return nil, err
	}
	b, err := cur.All()
	if err != nil {
		return nil, err
	}
	return FromBatch(b), nil
}

// engineFor builds a fresh engine for one cell: its own options and
// scan cache over the deployment's metadata cache, which the first
// cache-on cell fills through the scan plan's on-demand refresh.
func (h *harness) engineFor(cfg Config) *engine.Engine {
	opts := engine.DefaultOptions()
	opts.UseMetadataCache = cfg.Cache
	opts.EnableDPP = cfg.DPP
	opts.PruneGranularity = cfg.Granularity
	opts.EnableScanCache = cfg.ScanCache
	return h.w.NewEngine(opts)
}

// defaultCell is the fault-free all-accelerations cell used for
// bootstrap DML and minimization baselines.
func defaultCell() Config {
	return Config{Cache: true, DPP: true, Granularity: bigmeta.PruneFiles, ScanCache: true}
}

// install materializes the generated tables: BigLake tables become
// hive-partitioned colfmt files on the object store plus a catalog
// entry; the managed table is created empty and filled through
// chunked engine INSERTs (so the commit log holds several small
// files for compaction to coalesce). The oracle database is loaded
// with exactly the same rows.
func (h *harness) install(tables []*GenTable) error {
	for _, t := range tables {
		short := strings.TrimPrefix(t.Full, "ds.")
		if t.Managed {
			if err := h.w.Catalog.CreateTable(catalog.Table{
				Dataset: "ds", Name: short, Type: catalog.Managed, Schema: t.Schema,
				Cloud: "gcp", Bucket: diffBucket, Prefix: "blmt/ds/" + short + "/",
				Connection: h.w.DefaultConnection(),
			}); err != nil {
				return err
			}
			h.db.Add(&Table{Name: t.Full, Schema: t.Schema})
			eng := h.engineFor(defaultCell())
			const chunk = 12
			for start := 0; start < len(t.Rows); start += chunk {
				end := start + chunk
				if end > len(t.Rows) {
					end = len(t.Rows)
				}
				sql := insertSQL(t, t.Rows[start:end])
				qid := fmt.Sprintf("fz-install-%d-%d-%d", h.seed, h.trial, start)
				if _, err := eng.Query(engine.NewContext(diffAdmin, qid), sql); err != nil {
					return fmt.Errorf("install %s: %w", t.Full, err)
				}
				if _, err := h.db.ExecSQL(sql); err != nil {
					return fmt.Errorf("oracle install %s: %w", t.Full, err)
				}
			}
			continue
		}
		// BigLake: group rows by partition value (first-encounter
		// order) and write each partition as one or more files.
		pi := t.Schema.Index(t.PartitionCol)
		var parts []string
		byPart := map[string][][]vector.Value{}
		for _, row := range t.Rows {
			pv := row[pi].S
			if _, ok := byPart[pv]; !ok {
				parts = append(parts, pv)
			}
			byPart[pv] = append(byPart[pv], row)
		}
		for _, pv := range parts {
			rows := byPart[pv]
			const perFile = 18
			file := 0
			for start := 0; start < len(rows); start += perFile {
				end := start + perFile
				if end > len(rows) {
					end = len(rows)
				}
				bl := vector.NewBuilder(t.Schema)
				for _, row := range rows[start:end] {
					bl.Append(row...)
				}
				data, err := colfmt.WriteFile(bl.Build(), colfmt.WriterOptions{})
				if err != nil {
					return err
				}
				key := fmt.Sprintf("%s/%s=%s/part-%03d.blk", short, t.PartitionCol, pv, file)
				if _, err := h.w.Store.Put(h.w.ServiceAccount(), diffBucket, key, data, "application/x-blk"); err != nil {
					return err
				}
				file++
			}
		}
		if err := h.w.Catalog.CreateTable(catalog.Table{
			Dataset: "ds", Name: short, Type: catalog.BigLake, Schema: t.Schema,
			Cloud: "gcp", Bucket: diffBucket, Prefix: short + "/", Connection: h.w.DefaultConnection(),
			PartitionColumn: t.PartitionCol, MetadataCaching: true,
		}); err != nil {
			return err
		}
		ot := &Table{Name: t.Full, Schema: t.Schema}
		for _, row := range t.Rows {
			ot.Rows = append(ot.Rows, append([]vector.Value(nil), row...))
		}
		h.db.Add(ot)
	}
	return nil
}

// govern installs the trial's policies for diffAnalyst and lets it read
// the tables.
func (h *harness) govern(tables []*GenTable, pols []GenPolicy) error {
	for _, t := range tables {
		if err := h.w.Auth.GrantTable(diffAdmin, t.Full, diffAnalyst, security.RoleViewer); err != nil {
			return err
		}
	}
	for _, pol := range pols {
		if err := h.w.Auth.AddRowPolicy(diffAdmin, pol.Table, security.RowPolicy{
			Name: "analyst_rows", Grantees: map[security.Principal]bool{diffAnalyst: true}, Filter: pol.Filter,
		}); err != nil {
			return err
		}
		// The admin keeps every row (a policy with no filter) and every
		// raw column: its arm stays the ungoverned reference.
		if err := h.w.Auth.AddRowPolicy(diffAdmin, pol.Table, security.RowPolicy{
			Name: "admin_rows", Grantees: map[security.Principal]bool{diffAdmin: true},
		}); err != nil {
			return err
		}
		protect := func(col string, mask vector.MaskKind) error {
			if col == "" {
				return nil
			}
			return h.w.Auth.SetColumnPolicy(diffAdmin, pol.Table, security.ColumnPolicy{
				Column: col, Allowed: map[security.Principal]bool{diffAdmin: true}, Mask: mask,
			})
		}
		if err := protect(pol.Masked, pol.Mask); err != nil {
			return err
		}
		if err := protect(pol.Denied, vector.MaskNone); err != nil {
			return err
		}
	}
	h.pols = pols
	return nil
}

// insertSQL renders rows as one INSERT statement.
func insertSQL(t *GenTable, rows [][]vector.Value) string {
	var sb strings.Builder
	sb.WriteString("INSERT INTO " + t.Full + " VALUES ")
	for r, row := range rows {
		if r > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString("(")
		for c, v := range row {
			if c > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(renderValue(v))
		}
		sb.WriteString(")")
	}
	return sb.String()
}

// --- result comparison ---

// renderCell gives one value a type-tagged textual form so INT64 5,
// FLOAT 5.0, and STRING '5' never collide.
func renderCell(v vector.Value) string {
	if v.Type == vector.Invalid {
		return "NULL"
	}
	return fmt.Sprintf("%d:%s", v.Type, v.String())
}

func renderRow(row []vector.Value) string {
	parts := make([]string, len(row))
	for i, v := range row {
		parts[i] = renderCell(v)
	}
	return strings.Join(parts, "|")
}

// diffResults compares engine output against the oracle answer and
// returns a human-readable description of the first difference, or
// "" when they agree. Ordered results are compared row for row with
// the sign of every zero folded — ORDER BY ranks −0 and 0 equal, so
// rows that differ only there may come in either order — and then, like
// unordered ones, as multisets, bit for bit.
func diffResults(got, want *Resultset, ordered bool) string {
	if d := diffHeader(got, want); d != "" {
		return d
	}
	if len(got.Rows) != len(want.Rows) {
		return fmt.Sprintf("row count: engine %d vs oracle %d", len(got.Rows), len(want.Rows))
	}
	if ordered {
		for i := range got.Rows {
			if g, w := renderOrderRow(got.Rows[i]), renderOrderRow(want.Rows[i]); g != w {
				return fmt.Sprintf("first divergent row (ordered, index %d):\n    engine: %s\n    oracle: %s", i, g, w)
			}
		}
	}
	g := make([]string, len(got.Rows))
	w := make([]string, len(want.Rows))
	for i := range got.Rows {
		g[i] = renderRow(got.Rows[i])
		w[i] = renderRow(want.Rows[i])
	}
	sort.Strings(g)
	sort.Strings(w)
	for i := range g {
		if g[i] != w[i] {
			return fmt.Sprintf("first divergent row (multiset, index %d):\n    engine: %s\n    oracle: %s", i, g[i], w[i])
		}
	}
	return ""
}

// renderOrderRow is renderRow with every zero's sign folded: the form in
// which ORDER BY tells rows apart.
func renderOrderRow(row []vector.Value) string {
	parts := make([]string, len(row))
	for i, v := range row {
		if v.Type == vector.Float64 && v.F == 0 {
			v.F = 0
		}
		parts[i] = renderCell(v)
	}
	return strings.Join(parts, "|")
}

// unlimited splits a SELECT with a LIMIT and no ORDER BY into the same
// statement without its LIMIT, and the limit: any min(limit, rows) of
// that statement's rows answer it. Any other statement comes back as it
// is, with limit -1. The LIMIT is the statement's last clause, cut from
// the text as written (a re-rendered literal need not parse back).
func unlimited(sql string) (string, int64) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return sql, -1
	}
	sel, ok := stmt.(*sqlparse.SelectStmt)
	i := strings.LastIndex(sql, "LIMIT")
	if !ok || sel.Limit < 0 || len(sel.OrderBy) > 0 || i < 0 {
		return sql, -1
	}
	return strings.TrimSpace(sql[:i]), sel.Limit
}

// diffAnswer compares got against want: as diffResults does, or — for a
// limit ≥ 0, when want answers got's statement without its LIMIT
// (unlimited) — against want's first min(limit, |want|) rows, in order
// when ordered (a bare LIMIT the statement pins to table order), else
// as a sub-multiset of want with exactly that many rows.
func diffAnswer(got, want *Resultset, ordered bool, limit int64) string {
	if limit < 0 {
		return diffResults(got, want, ordered)
	}
	if ordered {
		prefix := *want
		prefix.Rows = want.Rows[:min(limit, int64(len(want.Rows)))]
		return diffResults(got, &prefix, true)
	}
	if d := diffHeader(got, want); d != "" {
		return d
	}
	if n := min(limit, int64(len(want.Rows))); int64(len(got.Rows)) != n {
		return fmt.Sprintf("row count: engine %d vs min(LIMIT %d, oracle %d)", len(got.Rows), limit, len(want.Rows))
	}
	left := make(map[string]int, len(want.Rows))
	for _, r := range want.Rows {
		left[renderRow(r)]++
	}
	for i, r := range got.Rows {
		k := renderRow(r)
		if left[k] == 0 {
			return fmt.Sprintf("row %d is not among the oracle's unlimited answer's rows (LIMIT %d):\n    engine: %s", i, limit, k)
		}
		left[k]--
	}
	return ""
}

// diffHeader compares the column names and types of got and want.
func diffHeader(got, want *Resultset) string {
	if len(got.Names) != len(want.Names) {
		return fmt.Sprintf("column count: engine %d vs oracle %d (%v vs %v)",
			len(got.Names), len(want.Names), got.Names, want.Names)
	}
	for i := range got.Names {
		if got.Names[i] != want.Names[i] {
			return fmt.Sprintf("column %d name: engine %q vs oracle %q", i, got.Names[i], want.Names[i])
		}
		if got.Types[i] != want.Types[i] {
			return fmt.Sprintf("column %q type: engine %v vs oracle %v", got.Names[i], got.Types[i], want.Types[i])
		}
	}
	return ""
}

// engRun executes one statement on the engine as who and converts the
// batch.
func (h *harness) engRun(eng *engine.Engine, who security.Principal, qid, sql string) (*Resultset, error) {
	res, err := eng.Query(engine.NewContext(who, qid), sql)
	if err != nil {
		return nil, err
	}
	return FromBatch(res.Batch), nil
}

// readShape is a statement the Storage Read API answers on its own, with
// no engine behind it: `SELECT cols FROM t WHERE p AND ...`, every p a
// `column op literal`, or the same with every item a COUNT, SUM, MIN or
// MAX of a column, which an aggregate session answers; a column may be
// qualified by the table's alias. The session has no residual WHERE to
// hide behind, so what its predicates may touch is decided by the scan
// plan alone.
type readShape struct {
	table string
	cols  []string // nil = `*`
	preds []colfmt.Predicate
	aggs  []storageapi.AggregateRequest
	names []string // the aggregates' output names
}

// aggKinds are the aggregates a Read API session computes.
var aggKinds = map[string]vector.AggKind{
	"COUNT": vector.AggCount, "SUM": vector.AggSum, "MIN": vector.AggMin, "MAX": vector.AggMax,
}

// aggOf reports the Read API aggregate an item is, if it is one: COUNT,
// SUM, MIN or MAX of a column of the table aliased alias.
func aggOf(e sqlparse.Expr, alias string) (storageapi.AggregateRequest, bool) {
	call, ok := e.(sqlparse.Call)
	kind, known := aggKinds[call.Name]
	if !ok || !known || len(call.Args) != 1 {
		return storageapi.AggregateRequest{}, false
	}
	ref, ok := call.Args[0].(sqlparse.ColumnRef)
	return storageapi.AggregateRequest{Column: ref.Name, Kind: kind}, ok && (ref.Table == "" || ref.Table == alias)
}

// readShapeOf reports the statement's Read API form, if it has one.
func readShapeOf(sql string) (*readShape, bool) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, false
	}
	sel, ok := stmt.(*sqlparse.SelectStmt)
	if !ok || sel.From == nil || sel.From.Name == "" || len(sel.Joins)+len(sel.GroupBy)+len(sel.OrderBy) > 0 || sel.Limit >= 0 {
		return nil, false
	}
	rs := &readShape{table: sel.From.Name}
	alias := sel.From.Alias
	local := func(ref sqlparse.ColumnRef) bool { return ref.Table == "" || ref.Table == alias }
	for pos, it := range sel.Items {
		ref, ok := it.Expr.(sqlparse.ColumnRef)
		ag, isAgg := aggOf(it.Expr, alias)
		switch {
		case it.Star && len(sel.Items) == 1:
		case ok && local(ref) && it.Alias == "" && rs.aggs == nil:
			rs.cols = append(rs.cols, ref.Name)
		case isAgg && rs.cols == nil:
			rs.aggs = append(rs.aggs, ag)
			rs.names = append(rs.names, outputName(it, pos))
		default:
			return nil, false
		}
	}
	var walk func(e sqlparse.Expr) bool
	walk = func(e sqlparse.Expr) bool {
		bin, ok := e.(sqlparse.Binary)
		if !ok {
			return false
		}
		if bin.Op == "AND" {
			return walk(bin.L) && walk(bin.R)
		}
		op, isCmp := cmpOpMap[bin.Op]
		ref, isRef := bin.L.(sqlparse.ColumnRef)
		lit, isLit := bin.R.(sqlparse.Literal)
		if !isCmp || !isRef || !isLit || !local(ref) || lit.Value.IsNull() {
			return false
		}
		rs.preds = append(rs.preds, colfmt.Predicate{Column: ref.Name, Op: op, Value: lit.Value})
		return true
	}
	if sel.Where != nil && !walk(sel.Where) {
		return nil, false
	}
	return rs, true
}

// readRun answers rs through a Read API session as the arm's principal.
// `*` asks for every column that principal can name; an aggregate
// session asks for the columns it aggregates, and its answer takes the
// statement's output names.
func (h *harness) readRun(a arm, rs *readShape) (*Resultset, error) {
	srv := h.w.StorageAPI
	cols := rs.cols
	for _, ag := range rs.aggs {
		if !slices.Contains(cols, ag.Column) {
			cols = append(cols, ag.Column)
		}
	}
	if t, ok := a.db.Tables[rs.table]; ok && cols == nil {
		for _, f := range t.Schema.Fields {
			cols = append(cols, f.Name)
		}
	}
	sess, err := srv.CreateReadSession(storageapi.ReadSessionRequest{
		Table: rs.table, Principal: a.who, Columns: cols, Predicates: rs.preds, SnapshotVersion: -1,
		Aggregates: rs.aggs,
	})
	if err != nil {
		return nil, err
	}
	b, err := srv.ReadAll(sess)
	if err != nil {
		return nil, err
	}
	out := FromBatch(b)
	if rs.aggs != nil {
		out.Names = rs.names
	}
	return out, nil
}

// faultProfile derives a deterministic chaos profile for one cell.
func (h *harness) faultProfile(phase string, cell int) objstore.FaultProfile {
	seed := h.seed*1315423911 + uint64(cell)<<20 + uint64(len(phase))<<8 + uint64(h.trial)
	return objstore.FaultProfile{Seed: seed, Rate: 0.025, StreakLen: 2}
}

// arm is one side of the matrix: who runs the statements, and the
// oracle database that principal's answers are checked against.
type arm struct {
	who security.Principal
	db  *DB
}

// runMatrix executes every query in every matrix cell against the
// current world state, as the admin and — in a governed world — as the
// analyst, and compares against the oracle: for the analyst, the
// oracle's governed view of the tables. A statement the Read API can
// answer alone (readShape) is also put to the deployment's Storage API
// in every cell, as both principals, and compared as a multiset.
func (h *harness) runMatrix(phase string, queries []GenQuery) *Divergence {
	type oresult struct {
		rs  *Resultset
		err error
	}
	arms := []arm{{diffAdmin, h.db}}
	if h.pols != nil {
		arms = append(arms, arm{diffAnalyst, h.db.Governed(h.pols)})
	}
	refs, limits := make([]string, len(queries)), make([]int64, len(queries))
	for i, q := range queries {
		refs[i], limits[i] = unlimited(q.SQL)
	}
	oras := make([][]oresult, len(arms))
	for ai, a := range arms {
		oras[ai] = make([]oresult, len(queries))
		for i := range queries {
			rs, err := a.db.ExecSQL(refs[i])
			oras[ai][i] = oresult{rs, err}
		}
	}
	reads := make([]*readShape, len(queries))
	for i, q := range queries {
		reads[i], _ = readShapeOf(q.SQL)
	}
	defer h.w.Store.ClearFaults()
	for ci, cfg := range Matrix() {
		if cfg.Faults {
			h.w.Store.InjectFaults(h.faultProfile(phase, ci))
		} else {
			h.w.Store.ClearFaults()
		}
		eng := h.engineFor(cfg)
	queries:
		for qi, q := range queries {
			qid := fmt.Sprintf("fz-%d-%d-%s-%d-%d", h.seed, h.trial, phase, ci, qi)
			var got *Resultset
			var err error
			for ai, a := range arms {
				want := oras[ai][qi]
				aqid := qid
				if ai > 0 {
					aqid += "-g"
				}
				ares, aerr := h.engRun(eng, a.who, aqid, q.SQL)
				if ai == 0 {
					got, err = ares, aerr
				}
				h.rep.Executions++
				switch {
				case aerr != nil && want.err != nil:
					// Consistent rejection: both sides call the statement
					// invalid. Message equality is not required.
				case aerr != nil:
					if cfg.Faults {
						h.rep.FaultErrors++
						continue queries
					}
					return h.diverge(phase, cfg, a, q, "engine error: "+aerr.Error()+" (oracle succeeded)")
				case want.err != nil:
					return h.diverge(phase, cfg, a, q, "oracle error: "+want.err.Error()+" (engine succeeded)")
				default:
					if d := diffAnswer(ares, want.rs, q.Ordered, limits[qi]); d != "" {
						return h.diverge(phase, cfg, a, q, d)
					}
				}
			}
			if limits[qi] >= 0 && err == nil {
				// A cold engine fetches what the warm one served from
				// its scan cache, in waves that stop once they hold the
				// LIMIT's rows: the same rows, in the same order.
				cgot, cerr := h.engRun(h.engineFor(cfg), diffAdmin, qid+"-cold", q.SQL)
				h.rep.Executions++
				switch {
				case cerr != nil && cfg.Faults:
					h.rep.FaultErrors++
				case cerr != nil:
					return h.diverge(phase, cfg, arms[0], q, "cold engine error: "+cerr.Error()+" (warm engine succeeded)")
				default:
					if d := diffResults(cgot, got, true); d != "" {
						return h.diverge(phase, cfg, arms[0], q, "cold engine diverged from the warm one: "+d)
					}
				}
			}
			for ai, a := range arms {
				if reads[qi] == nil {
					break
				}
				want := oras[ai][qi]
				rgot, rerr := h.readRun(a, reads[qi])
				h.rep.Executions++
				if q.drawn && reads[qi].aggs != nil {
					h.rep.ReadAPIAggSessions++
				}
				switch {
				case rerr != nil && want.err != nil:
				case rerr != nil && cfg.Faults:
					h.rep.FaultErrors++
				case rerr != nil:
					return h.diverge(phase, cfg, a, q, "read api error: "+rerr.Error()+" (oracle succeeded)")
				case want.err != nil:
					return h.diverge(phase, cfg, a, q, "oracle error: "+want.err.Error()+" (read api succeeded)")
				default:
					if d := diffResults(rgot, want.rs, false); d != "" {
						return h.diverge(phase, cfg, a, q, "read api: "+d)
					}
				}
			}
			if h.serve {
				sgot, serr := h.serveRun(eng, qid, q.SQL)
				h.rep.Executions++
				switch {
				case serr != nil && err != nil:
					// Both paths reject the statement: consistent.
				case cfg.Faults && (serr != nil) != (err != nil):
					// The serve arm replays the query against a fault
					// injector that has advanced, so its failures (or
					// successes where the direct arm drew a fault) are
					// accepted the same way direct fault errors are.
					h.rep.FaultErrors++
				case serr != nil:
					return h.diverge(phase, cfg, arms[0], q, "serve path error: "+serr.Error()+" (direct execution succeeded)")
				case err != nil:
					return h.diverge(phase, cfg, arms[0], q, "serve path succeeded where direct execution was rejected")
				default:
					if d := diffResults(sgot, got, true); d != "" {
						return h.diverge(phase, cfg, arms[0], q, "serve path diverged from direct execution: "+d)
					}
				}
			}
		}
	}
	return nil
}

func (h *harness) diverge(phase string, cfg Config, a arm, q GenQuery, detail string) *Divergence {
	h.w.Store.ClearFaults()
	d := &Divergence{
		Seed: h.seed, Trial: h.trial, Phase: phase, Cell: cfg, Principal: a.who,
		SQL: q.SQL, MinSQL: q.SQL, Detail: detail,
	}
	d.MinSQL = h.minimize(cfg, a, q.SQL)
	return d
}

// runDML replays a generated DML sequence plus one CTAS through both
// executors, cross-checking the reported row counts (and for CTAS the
// produced rows). Runs fault-free: DML mutates shared state, so an
// injected fault would fork the two worlds rather than test them.
func (h *harness) runDML(gen *Gen, managed *GenTable, ctasName string) (*GenTable, *Divergence) {
	eng := h.engineFor(defaultCell())
	n := 5 + gen.intn(5)
	for i := 0; i < n; i++ {
		sql := gen.DML(managed)
		h.rep.Queries++
		qid := fmt.Sprintf("fz-dml-%d-%d-%d", h.seed, h.trial, i)
		got, gerr := h.engRun(eng, diffAdmin, qid, sql)
		want, werr := h.db.ExecSQL(sql)
		h.rep.Executions++
		switch {
		case gerr != nil && werr != nil:
		case gerr != nil:
			return nil, &Divergence{Seed: h.seed, Trial: h.trial, Phase: "dml", Cell: defaultCell(),
				SQL: sql, MinSQL: sql, Detail: "engine error: " + gerr.Error() + " (oracle succeeded)"}
		case werr != nil:
			return nil, &Divergence{Seed: h.seed, Trial: h.trial, Phase: "dml", Cell: defaultCell(),
				SQL: sql, MinSQL: sql, Detail: "oracle error: " + werr.Error() + " (engine succeeded)"}
		default:
			if d := diffResults(got, want, true); d != "" {
				return nil, &Divergence{Seed: h.seed, Trial: h.trial, Phase: "dml", Cell: defaultCell(),
					SQL: sql, MinSQL: sql, Detail: d}
			}
		}
	}
	ctasSQL, ctasT := gen.CTAS(managed, ctasName)
	h.rep.Queries++
	qid := fmt.Sprintf("fz-ctas-%d-%d", h.seed, h.trial)
	got, gerr := h.engRun(eng, diffAdmin, qid, ctasSQL)
	want, werr := h.db.ExecSQL(ctasSQL)
	h.rep.Executions++
	switch {
	case gerr != nil && werr != nil:
		return nil, nil // consistently rejected; no CTAS table exists
	case gerr != nil:
		return nil, &Divergence{Seed: h.seed, Trial: h.trial, Phase: "dml", Cell: defaultCell(),
			SQL: ctasSQL, MinSQL: ctasSQL, Detail: "engine error: " + gerr.Error() + " (oracle succeeded)"}
	case werr != nil:
		return nil, &Divergence{Seed: h.seed, Trial: h.trial, Phase: "dml", Cell: defaultCell(),
			SQL: ctasSQL, MinSQL: ctasSQL, Detail: "oracle error: " + werr.Error() + " (engine succeeded)"}
	}
	if d := diffResults(got, want, false); d != "" {
		return nil, &Divergence{Seed: h.seed, Trial: h.trial, Phase: "dml", Cell: defaultCell(),
			SQL: ctasSQL, MinSQL: ctasSQL, Detail: d}
	}
	return ctasT, nil
}

// --- minimization ---

// minimize greedily shrinks a divergent SELECT while it still
// diverges. Candidates are compared as multisets with faults off; if
// the divergence only reproduces under ordering or faults, the
// original SQL is returned unchanged.
func (h *harness) minimize(cfg Config, a arm, sql string) string {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return sql
	}
	sel, ok := stmt.(*sqlparse.SelectStmt)
	if !ok {
		return sql
	}
	cfg.Faults = false
	diverges := func(s *sqlparse.SelectStmt) bool {
		cand := RenderSelect(s)
		eng := h.engineFor(cfg)
		got, gerr := h.engRun(eng, a.who, "fz-min", cand)
		ref, limit := unlimited(cand)
		want, werr := a.db.ExecSQL(ref)
		if gerr != nil || werr != nil {
			return (gerr == nil) != (werr == nil)
		}
		return diffAnswer(got, want, false, limit) != ""
	}
	if !diverges(sel) {
		return sql
	}
	attempts := 0
	for changed := true; changed && attempts < 60; {
		changed = false
		for _, cand := range shrinkSteps(sel) {
			attempts++
			if diverges(cand) {
				sel = cand
				changed = true
				break
			}
			if attempts >= 60 {
				break
			}
		}
	}
	return RenderSelect(sel)
}

func cloneSel(s *sqlparse.SelectStmt) *sqlparse.SelectStmt {
	c := *s
	c.Items = append([]sqlparse.SelectItem(nil), s.Items...)
	c.Joins = append([]sqlparse.Join(nil), s.Joins...)
	c.GroupBy = append([]sqlparse.Expr(nil), s.GroupBy...)
	c.OrderBy = append([]sqlparse.OrderItem(nil), s.OrderBy...)
	return &c
}

// shrinkSteps proposes one-step-smaller variants of the statement.
func shrinkSteps(s *sqlparse.SelectStmt) []*sqlparse.SelectStmt {
	var out []*sqlparse.SelectStmt
	if s.Limit >= 0 {
		c := cloneSel(s)
		c.Limit = -1
		out = append(out, c)
	}
	if len(s.OrderBy) > 0 {
		c := cloneSel(s)
		c.OrderBy = nil
		out = append(out, c)
	}
	if s.Where != nil {
		c := cloneSel(s)
		c.Where = nil
		out = append(out, c)
		switch w := s.Where.(type) {
		case sqlparse.Binary:
			if w.Op == "AND" || w.Op == "OR" {
				cl := cloneSel(s)
				cl.Where = w.L
				cr := cloneSel(s)
				cr.Where = w.R
				out = append(out, cl, cr)
			}
		case sqlparse.Not:
			c := cloneSel(s)
			c.Where = w.E
			out = append(out, c)
		}
	}
	for i := range s.Joins {
		c := cloneSel(s)
		c.Joins = append(append([]sqlparse.Join(nil), s.Joins[:i]...), s.Joins[i+1:]...)
		out = append(out, c)
	}
	if len(s.Items) > 1 {
		for i := range s.Items {
			c := cloneSel(s)
			c.Items = append(append([]sqlparse.SelectItem(nil), s.Items[:i]...), s.Items[i+1:]...)
			out = append(out, c)
		}
	}
	for i := range s.GroupBy {
		c := cloneSel(s)
		c.GroupBy = append(append([]sqlparse.Expr(nil), s.GroupBy[:i]...), s.GroupBy[i+1:]...)
		out = append(out, c)
	}
	return out
}

// RenderSelect turns a parsed SELECT back into SQL. Expressions use
// their AST String() form, which the parser round-trips.
func RenderSelect(s *sqlparse.SelectStmt) string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	for i, it := range s.Items {
		if i > 0 {
			sb.WriteString(", ")
		}
		if it.Star {
			sb.WriteString("*")
			continue
		}
		sb.WriteString(it.Expr.String())
		if it.Alias != "" {
			sb.WriteString(" AS " + it.Alias)
		}
	}
	if s.From != nil {
		sb.WriteString(" FROM " + renderTableRef(s.From))
		for _, j := range s.Joins {
			if j.Kind == sqlparse.LeftJoin {
				sb.WriteString(" LEFT JOIN ")
			} else {
				sb.WriteString(" JOIN ")
			}
			sb.WriteString(renderTableRef(j.Table) + " ON " + j.On.String())
		}
	}
	if s.Where != nil {
		sb.WriteString(" WHERE " + s.Where.String())
	}
	if len(s.GroupBy) > 0 {
		parts := make([]string, len(s.GroupBy))
		for i, g := range s.GroupBy {
			parts[i] = g.String()
		}
		sb.WriteString(" GROUP BY " + strings.Join(parts, ", "))
	}
	if len(s.OrderBy) > 0 {
		parts := make([]string, len(s.OrderBy))
		for i, o := range s.OrderBy {
			parts[i] = o.Expr.String()
			if o.Desc {
				parts[i] += " DESC"
			}
		}
		sb.WriteString(" ORDER BY " + strings.Join(parts, ", "))
	}
	if s.Limit >= 0 {
		fmt.Fprintf(&sb, " LIMIT %d", s.Limit)
	}
	return sb.String()
}

func renderTableRef(t *sqlparse.TableRef) string {
	if t.Subquery != nil {
		s := "(" + RenderSelect(t.Subquery) + ")"
		if t.Alias != "" {
			s += " AS " + t.Alias
		}
		return s
	}
	s := t.Name
	if t.Alias != "" {
		s += " AS " + t.Alias
	}
	return s
}

// --- top-level driver ---

// Run executes the full differential campaign: Trials independent
// worlds, each checked pre-DML, through a DML+CTAS sequence, and
// again post-compaction, across the whole matrix. It stops at the
// first divergence. The returned error reports infrastructure
// failures (install, compaction), not divergences.
func Run(opts Options) (Report, error) {
	if opts.Trials <= 0 {
		opts.Trials = 2
	}
	if opts.Queries <= 0 {
		opts.Queries = 70
	}
	logf := opts.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}
	rep := Report{}
	for trial := 0; trial < opts.Trials; trial++ {
		seed := opts.Seed + uint64(trial)*0x9E3779B97F4A7C15
		rep.Trials++
		div, err := runTrial(&rep, seed, trial, opts, logf)
		if err != nil {
			return rep, fmt.Errorf("trial %d (seed %d): %w", trial, seed, err)
		}
		if div != nil {
			rep.Divergence = div
			return rep, nil
		}
		logf("trial %d (seed %d): ok — %d queries, %d executions, %d fault errors",
			trial, seed, rep.Queries, rep.Executions, rep.FaultErrors)
	}
	return rep, nil
}

func runTrial(rep *Report, seed uint64, trial int, opts Options, logf func(string, ...any)) (*Divergence, error) {
	w, err := newWorld(engine.DefaultOptions())
	if err != nil {
		return nil, err
	}
	w.Engine.Tracer = opts.Tracer
	gen := NewGen(seed)
	tables := gen.Tables()
	h := &harness{
		w: w, db: NewDB(), seed: seed, trial: trial, rep: rep, logf: logf,
		serve: opts.Serve, sessions: map[*engine.Engine]*serve.Session{},
	}
	if err := h.install(tables); err != nil {
		return nil, err
	}
	// Policies and the fixed projection shapes draw from a generator of
	// their own, so the random statements of a seed stay what they were.
	shapes := NewGen(seed ^ 0xC01C01C01)
	if err := h.govern(tables, shapes.Policies(tables)); err != nil {
		return nil, err
	}

	pre := make([]GenQuery, opts.Queries)
	for i := range pre {
		pre[i] = gen.Query(tables)
	}
	pre = append(pre, shapes.ProjectionQueries(tables)...)
	pre = append(pre, shapes.LimitQueries(tables, 16)...)
	var managed *GenTable
	for _, t := range tables {
		if t.Managed {
			managed = t
		}
	}
	// The star family brings its own tables, from a third generator:
	// gen never sees them, so it draws the statements it always drew.
	stars := NewGen(seed ^ 0x57A257A2)
	starTables := stars.StarTables()
	if err := h.install(starTables); err != nil {
		return nil, err
	}
	for _, t := range starTables {
		if err := w.Auth.GrantTable(diffAdmin, t.Full, diffAnalyst, security.RoleViewer); err != nil {
			return nil, err
		}
	}
	pre = append(pre, stars.StarQueries(managed)...)
	rep.Queries += len(pre)
	if d := h.runMatrix("pre", pre); d != nil {
		return d, nil
	}

	ctasT, d := h.runDML(gen, managed, fmt.Sprintf("ds.c%d", trial))
	if d != nil {
		return d, nil
	}
	for _, full := range []string{managed.Full, starTables[0].Full} {
		if _, err := w.Manager.Optimize(string(diffAdmin), full, ""); err != nil {
			return nil, fmt.Errorf("optimize %s: %w", full, err)
		}
	}
	if ctasT != nil {
		if _, err := w.Manager.Optimize(string(diffAdmin), ctasT.Full, ""); err != nil {
			return nil, fmt.Errorf("optimize %s: %w", ctasT.Full, err)
		}
	}

	all := append([]*GenTable{}, tables...)
	if ctasT != nil {
		all = append(all, ctasT)
		if err := w.Auth.GrantTable(diffAdmin, ctasT.Full, diffAnalyst, security.RoleViewer); err != nil {
			return nil, err
		}
	}
	post := append([]GenQuery{}, pre...)
	extra := opts.Queries / 2
	for i := 0; i < extra; i++ {
		post = append(post, gen.Query(all))
	}
	rep.Queries += extra
	d = h.runMatrix("post", post)
	rep.LimitStops += w.Engine.Obs.Counter("engine.limit_stops").Get()
	return d, nil
}
