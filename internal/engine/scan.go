package engine

import (
	"fmt"
	"math"

	"biglake/internal/bigmeta"
	"biglake/internal/catalog"
	"biglake/internal/colfmt"
	"biglake/internal/obs"
	"biglake/internal/resilience"
	"biglake/internal/scan"
	"biglake/internal/sim"
	"biglake/internal/sqlparse"
	"biglake/internal/systables"
	"biglake/internal/vector"
)

// scanTable reads a catalog table in situ as the FROM source ref of
// sel, applying pd's predicates for pruning and governance before any
// row leaves the trust boundary, and marking in pd the ones it enforced
// exactly (pd nil: no predicates). Only the columns sel can read from it
// are decoded (sel nil: all of them). The returned relation carries the
// table's bare column names; its pieces are the files' surviving rows
// of their decoded (often cache-resident) columns, unless a transaction
// overlay or governance needs them as one batch.
func (e *Engine) scanTable(ctx *QueryContext, sel *sqlparse.SelectStmt, ref *sqlparse.TableRef, pd *pushdown) (rel, error) {
	name := ref.Name
	var preds []colfmt.Predicate
	if pd != nil {
		preds = pd.preds
	}
	var planned int64
	if parent := ctx.Span; parent != nil {
		sp := parent.Child("scan " + name)
		ctx.Span = sp
		pre := ctx.Stats
		defer func() {
			sp.SetInt("files", planned)
			sp.SetInt("files_read", ctx.Stats.FilesScanned-pre.FilesScanned)
			sp.SetInt("pruned", ctx.Stats.FilesPruned-pre.FilesPruned)
			sp.SetInt("bytes", ctx.Stats.BytesScanned-pre.BytesScanned)
			sp.SetInt("rows", ctx.Stats.RowsScanned-pre.RowsScanned)
			if d := ctx.Stats.CacheHits - pre.CacheHits; d > 0 {
				sp.SetInt("cache_hits", d)
			}
			if d := ctx.Stats.CacheMisses - pre.CacheMisses; d > 0 {
				sp.SetInt("cache_misses", d)
			}
			sp.End()
			ctx.Span = parent
		}()
	}
	// The "system" dataset is virtual: catalog resolution falls through
	// to the telemetry provider, which synthesizes a columnar batch
	// from live snapshots — no files, no scan cache, and no governance
	// (system telemetry is readable by any principal; see DESIGN.md
	// "Queryable telemetry & SLOs").
	if systables.Is(name) {
		return e.scanSystemTable(ctx, name, preds)
	}

	t, err := e.Catalog.Table(name)
	if err != nil {
		return rel{}, err
	}
	if err := e.Auth.CheckRead(ctx.Principal, name); err != nil {
		return rel{}, err
	}

	if t.Type == catalog.Object {
		b, err := e.scanObjectTable(ctx, t)
		if err != nil {
			return rel{}, err
		}
		return batchRel(b), nil
	}

	// Which files, which columns of them and which predicates on them is
	// the scan plan's business, as for a Read API session.
	req := scan.Request{
		Table: t, Principal: ctx.Principal, Project: projection(ctx, sel, ref, t.Schema), Predicates: preds,
		Version: -1, Granularity: e.Opts.PruneGranularity, MetadataCache: e.Opts.UseMetadataCache && t.MetadataCaching,
		Scope: ctx.Scope, Budget: ctx.Budget, Al: ctx.mem.Al, Span: ctx.Span,
	}
	var overlay []*vector.Batch
	if ctx.Txn != nil && (t.Type == catalog.Native || t.Type == catalog.Managed) {
		// Inside a transaction the scan sees the pinned snapshot minus
		// the files the session already rewrote, plus its buffered
		// batches; the read set is everything the statement logically
		// read, not just what its pushdown kept.
		req.Version = ctx.Txn.SnapshotVersion()
		req.Removed, overlay = ctx.Txn.Overlay(name)
		req.Observe = func(live []bigmeta.FileEntry) { ctx.Txn.ObserveRead(name, live) }
	}
	p, err := e.Planner().Plan(req)
	ctx.Stats.FilesPruned += p.Pruned
	ctx.Stats.ListCalls += p.ListCalls
	ctx.Stats.FooterReads += p.FooterReads
	if err != nil {
		return rel{}, err
	}
	read, total := int64(p.Columns.Count(t.Schema.Len())), int64(t.Schema.Len())
	ctx.Span.SetInt("columns", read)
	ctx.Span.SetInt("columns_total", total)
	e.ec.colsRead.Add(read)
	e.ec.colsSkipped.Add(total - read)
	planned = int64(len(p.Files))

	out, err := e.readFiles(ctx, &p, pd.enforce(&p, len(overlay) > 0))
	if err != nil || (len(overlay) == 0 && !p.Governs()) {
		return out, err
	}
	// Buffered batches are appended unfiltered, projected like the scan;
	// the residual WHERE in execSelect (and the where-func in DML
	// rewrites) re-checks the full predicate, so pushdown never has to
	// understand the overlay — and no conjunct is exact over a table
	// that has one. The scan and the overlay concatenate once.
	for _, b := range overlay {
		if b.N == 0 {
			continue
		}
		if b, err = projectLike(b, out.schema); err != nil {
			return rel{}, err
		}
		out.pieces = append(out.pieces, vector.Whole(b))
		ctx.Stats.RowsScanned += int64(b.N)
	}
	b, err := e.materialize(ctx, out)
	if err != nil {
		return rel{}, err
	}
	// Governance is applied inside the engine for every scan — the same
	// step the Read API's reads end with (§3.2).
	if b, err = p.Govern(b); err != nil {
		return rel{}, err
	}
	return batchRel(b), nil
}

// projection resolves, once per statement, the columns of one FROM
// source sel names: every column of schema in its select list, WHERE,
// GROUP BY, ORDER BY or a join condition — qualified by the source, or
// unqualified and so possibly its. `*`, or an expression it cannot
// classify, means every column (nil), as does a scan outside a
// statement (a TVF's TABLE input). The scan plan adds what the pushdown
// predicates and the principal's row policies filter on.
func projection(ctx *QueryContext, sel *sqlparse.SelectStmt, ref *sqlparse.TableRef, schema vector.Schema) scan.Columns {
	if sel == nil {
		return nil
	}
	cols := scan.NewColumns(ctx.mem.Al, schema.Len())
	qual := ref.DisplayName()
	if !stmtRefs(sel, 0, func(r sqlparse.ColumnRef) {
		if r.Table == "" || r.Table == qual {
			cols.AddNamed(schema, r.Name)
		}
	}) {
		return nil
	}
	return cols
}

// stmtRefs calls fn on every column reference in sel's select list,
// WHERE, GROUP BY, ORDER BY and the conditions of its joins from the
// join numbered from on. It reports false for a `*`, or an expression
// exprRefs cannot classify.
func stmtRefs(sel *sqlparse.SelectStmt, from int, fn func(sqlparse.ColumnRef)) bool {
	ok := exprRefs(sel.Where, fn)
	for _, it := range sel.Items {
		ok = ok && !it.Star && exprRefs(it.Expr, fn)
	}
	for _, g := range sel.GroupBy {
		ok = ok && exprRefs(g, fn)
	}
	for _, o := range sel.OrderBy {
		ok = ok && exprRefs(o.Expr, fn)
	}
	for _, j := range sel.Joins[from:] {
		ok = ok && exprRefs(j.On, fn)
	}
	return ok
}

// exprRefs calls fn on every column reference in x. It reports false
// for an expression it cannot classify.
func exprRefs(x sqlparse.Expr, fn func(sqlparse.ColumnRef)) bool {
	switch x := x.(type) {
	case nil, sqlparse.Literal:
	case sqlparse.ColumnRef:
		fn(x)
	case sqlparse.Not:
		return exprRefs(x.E, fn)
	case sqlparse.Binary:
		return exprRefs(x.L, fn) && exprRefs(x.R, fn)
	case sqlparse.Call:
		for _, a := range x.Args {
			if !exprRefs(a, fn) {
				return false
			}
		}
	default:
		return false
	}
	return true
}

// scanSystemTable synthesizes one system.* table from the telemetry
// provider. Pushdown predicates on columns the table actually has are
// applied here (the normal pruning contract); the rest fall through to
// the residual WHERE in execSelect.
func (e *Engine) scanSystemTable(ctx *QueryContext, name string, preds []colfmt.Predicate) (rel, error) {
	b, err := e.Sys.Scan(name)
	if err != nil {
		return rel{}, err
	}
	applicable := preds[:0:0]
	for _, p := range preds {
		if b.Column(p.Column) != nil {
			applicable = append(applicable, p)
		}
	}
	r := batchRel(b)
	if len(applicable) > 0 {
		rows, err := colfmt.EvalPredicatesWith(ctx.mem.Al, b, 0, b.N, applicable)
		if err != nil {
			return rel{}, err
		}
		if r.pieces[0], err = vector.Window(b, 0, b.N, rows); err != nil {
			return rel{}, err
		}
	}
	ctx.Stats.RowsScanned += int64(r.rows())
	return r, nil
}

// projectLike projects a full-schema batch onto the columns of like.
func projectLike(b *vector.Batch, like vector.Schema) (*vector.Batch, error) {
	if b.Schema.Equal(like) {
		return b, nil
	}
	names := make([]string, like.Len())
	for i, f := range like.Fields {
		names[i] = f.Name
	}
	return b.Project(names)
}

// Planner assembles the engine's scan planner — its table → (store,
// credential) rule, and the verified reader every file goes through —
// from its current fields. Writers that act under the engine's
// credentials (internal/txn) resolve their tables through it too.
func (e *Engine) Planner() scan.Planner {
	return scan.Planner{Meta: e.Meta, Clock: e.Clock,
		Access: scan.Access{Auth: e.Auth, Stores: e.Stores, ManagedCred: e.ManagedCred},
		Reader: scan.Reader{Res: e.Res, Log: e.Log, Obs: e.Obs, Cache: e.scanCache,
			Site: "scan", SkipQuarantined: e.Opts.SkipQuarantined}}
}

// readFiles reads the plan's files through it — the cache-resident
// ones as morsel tasks, the rest in parallel worker tracks — and returns
// what the pushed predicates select as a relation: one piece per file
// with rows, in plan order, nothing copied. A limit ≥ 0 is a row
// budget: the pushed predicates are the whole WHERE and exact, and
// nothing after the scan drops a row, so the first limit rows of the
// relation are the statement's answer (-1: no budget).
func (e *Engine) readFiles(ctx *QueryContext, p *scan.Plan, limit int64) (rel, error) {
	// Each file contributes a decoded batch and the rows of it the
	// predicates select.
	results := make([]vector.Selection, len(p.Files))

	// Warm pass, on the statement goroutine: the quarantine gate, the
	// generation-keyed cache and, for a hit, the row window its sorted
	// columns leave (a binary search). A hit needs no fetch and no clock
	// track, only a predicate pass over that window (selectResident);
	// only cold files fall through to the parallel fetch below.
	var cold []int
	hits, big := 0, 0
	for i, f := range p.Files {
		skip, err := p.Reader.Gate(&p.Source, f)
		if err != nil {
			return rel{}, err
		}
		if skip {
			ctx.Stats.QuarantineSkips++
			continue
		}
		b, ok := p.Reader.Resident(&p.Source, f, p.Columns)
		if !ok {
			cold = append(cold, i)
			continue
		}
		lo, hi := scan.Window(b, p.Pushed)
		results[i] = vector.Selection{Batch: b, Lo: lo, Hi: hi}
		if hi-lo >= vector.MorselRows {
			big++
		}
		hits++
	}
	if hits > 0 {
		fanned, err := e.selectResident(ctx.mem.Al, p, results, big)
		if err != nil {
			return rel{}, err
		}
		if fanned {
			e.ec.selectFanouts.Add(1)
		}
		ctx.Stats.CacheHits += int64(hits)
		if ctx.Span != nil {
			for i, f := range p.Files {
				if results[i].Batch == nil {
					continue
				}
				fsp := ctx.Span.Child("read " + f.Key)
				fsp.SetInt("bytes", f.Size)
				fsp.SetStr("cache", "hit")
				fsp.SetInt("rows", int64(results[i].N))
				fsp.End()
			}
		}
	}

	// Cold files are read in plan order, in waves. With no budget there
	// is one wave, of every cold file. Under one, the first wave is the
	// fewest cold files whose row counts could hold the rows the files
	// before them leave wanting, and each later wave is twice the last,
	// up to scan.Workers; the read stops once a prefix of the plan's
	// files selects limit rows, and only that prefix is merged (files,
	// below). A file after it is gated, but neither fetched nor merged.
	files := len(p.Files)
	for next, wave := 0, 0; ; next += wave {
		var need int64
		if limit >= 0 {
			upto := len(p.Files)
			if next < len(cold) {
				upto = cold[next]
			}
			var n int
			if n, need = covered(results[:upto], limit); need <= 0 {
				files = n
				break
			}
		}
		if next == len(cold) {
			break
		}
		switch {
		case limit < 0:
			wave = len(cold)
		case wave == 0:
			wave = firstWave(p, results, cold[next:], need)
		default:
			wave = min(2*wave, scan.Workers, len(cold)-next)
		}
		if err := e.readColdFiles(ctx, *p, cold[next:next+wave], results); err != nil {
			return rel{}, err
		}
	}
	if files < len(p.Files) {
		e.ec.limitStops.Add(1)
		ctx.Span.SetInt("limit_stop", 1)
	}

	// The files' selections are the relation's pieces, in plan order:
	// a skipped file and one with no survivor contribute none.
	out := rel{pieces: results[:0]}
	for _, r := range results[:files] {
		if r.Batch == nil || r.N == 0 {
			continue
		}
		if len(out.pieces) == 0 {
			out.schema = r.Batch.Schema
		} else if !r.Batch.Schema.Equal(out.schema) {
			return rel{}, fmt.Errorf("vector: concat schema mismatch %v vs %v", out.schema, r.Batch.Schema)
		}
		out.pieces = append(out.pieces, r)
	}
	if len(out.pieces) == 0 {
		out.schema = p.Columns.Project(p.Table.Schema)
		out.pieces = append(out.pieces, vector.Whole(vector.EmptyBatch(out.schema)))
	}
	e.ec.reads.Add(1)
	ctx.Stats.FilesScanned += int64(files)
	for _, f := range p.Files[:files] {
		ctx.Stats.BytesScanned += f.Size
	}
	ctx.Stats.RowsScanned += int64(out.rows())
	return out, nil
}

// covered returns the length n of the shortest prefix of results that
// selects limit rows, with need ≤ 0; when no prefix does, n is
// len(results) and need the rows still wanted.
func covered(results []vector.Selection, limit int64) (n int, need int64) {
	need = limit
	for ; n < len(results) && need > 0; n++ {
		need -= int64(results[n].N)
	}
	return n, need
}

// firstWave is how many of the cold files cold, in plan order, the
// first wave of a budgeted read takes: the fewest whose row counts,
// with the rows the cache hits among them select, could hold need more
// rows — or all of them.
func firstWave(p *scan.Plan, results []vector.Selection, cold []int, need int64) int {
	at := cold[0]
	for k, i := range cold {
		for ; at < i; at++ {
			need -= int64(results[at].N)
		}
		if need -= p.Files[i].RowCount; need <= 0 {
			return k + 1
		}
		at = i + 1
	}
	return len(cold)
}

// selectResident turns each cache hit's window in results into its
// selection: the remaining predicates evaluated inside the window, the
// survivors counted. Each hit is one task, and big of them hold a
// morsel of window rows; the tasks fan out over the engine's morsel
// workers only when vector.TaskWorkers says so, and otherwise run here
// with no goroutine and no allocation of their own. It reports whether
// they fanned out.
func (e *Engine) selectResident(al vector.Alloc, p *scan.Plan, results []vector.Selection, big int) (bool, error) {
	w := vector.TaskWorkers(e.execWorkers(), big)
	if w == 1 {
		for i := range results {
			if err := selectOne(al, p, results, i); err != nil {
				return false, err
			}
		}
		return false, nil
	}
	// The goroutines share a copy of the plan, so the caller's stays
	// off the heap.
	shared := *p
	errs := make([]error, len(results))
	vector.ParallelEach(len(results), w, func(i int) {
		errs[i] = selectOne(al, &shared, results, i)
	})
	for _, err := range errs {
		if err != nil {
			return true, err // the first in file order, as inline
		}
	}
	return true, nil
}

// selectOne replaces the pending window results[i] of a cache hit (none
// for a cold or skipped file) with its selection.
func selectOne(al vector.Alloc, p *scan.Plan, results []vector.Selection, i int) error {
	r := results[i]
	if r.Batch == nil {
		return nil
	}
	sel, err := scan.SelectWindow(al, r.Batch, r.Lo, r.Hi, p.Columns, p.Pushed, p.Files[i].Partition, p.Table.Schema)
	results[i] = sel
	return err
}

// readColdFiles reads the files cold names, ones the warm pass could
// not serve from the scan cache, in parallel worker tracks. The plan arrives by value: the
// workers share it, and the warm pass's copy stays off the heap.
func (e *Engine) readColdFiles(ctx *QueryContext, p scan.Plan, cold []int, results []vector.Selection) error {
	workers := min(scan.Workers, len(cold))
	outcomes := make([]scan.Outcome, len(cold))
	err := e.Clock.OnTracks(workers, len(cold), func(w int, tracks []*sim.Track) error {
		f, tr := p.Files[cold[w]], tracks[w%workers]
		var fsp *obs.Span
		if ctx.Span != nil {
			fsp = ctx.Span.ChildAt(tr, "read "+f.Key)
			fsp.SetLane(w % workers)
			fsp.SetInt("bytes", f.Size)
		}
		defer fsp.End()

		sel, oc, err := p.Reader.ReadBatch(tr, &p.Source, f, p.Columns, ctx.mem.Al, p.Pushed)
		if oc.Quarantined {
			fsp.SetStr("integrity", "quarantined")
		} else if oc.Refetched {
			fsp.SetStr("integrity", "refetch")
		}
		if oc.CacheHit {
			fsp.SetStr("cache", "hit")
		} else if oc.CacheMiss {
			fsp.SetStr("cache", "miss")
		}
		if sel.Batch != nil {
			fsp.SetInt("rows", int64(sel.N))
		}
		if err != nil {
			return err
		}
		outcomes[w], results[cold[w]] = oc, sel
		return nil
	})
	for _, oc := range outcomes {
		if oc.CacheHit {
			ctx.Stats.CacheHits++
		}
		if oc.CacheMiss {
			ctx.Stats.CacheMisses++
		}
		if oc.Skipped {
			ctx.Stats.QuarantineSkips++
		}
	}
	return err
}

// scanObjectTable materializes an Object table: the metadata cache
// itself is the data source (§4.1) — each cached object becomes a row.
func (e *Engine) scanObjectTable(ctx *QueryContext, t catalog.Table) (*vector.Batch, error) {
	store, cred, err := e.Planner().Resolve(t, ctx.Scope...)
	if err != nil {
		return nil, err
	}
	var entries []bigmeta.FileEntry
	if e.Opts.UseMetadataCache && t.MetadataCaching {
		if _, ok := e.Meta.RefreshedAt(t.FullName()); !ok {
			if _, err := e.Meta.Refresh(t.FullName(), store, cred, t.Bucket, t.Prefix, bigmeta.RefreshOptions{Background: true}); err != nil {
				return nil, err
			}
		}
		entries, err = e.Meta.Files(t.FullName())
		if err != nil {
			return nil, err
		}
	} else {
		// Without the cache the engine lists the bucket per query —
		// the hours-long path for billions of objects (§4.1).
		infos, err := resilience.ListAll(e.Res.Counting(e.Obs), e.Clock, ctx.Budget, store, cred, t.Bucket, t.Prefix)
		if err != nil {
			return nil, err
		}
		ctx.Stats.ListCalls++
		for _, info := range infos {
			entries = append(entries, bigmeta.FileEntry{
				Bucket: t.Bucket, Key: info.Key, Size: info.Size,
				ContentType: info.ContentType, Created: info.Created,
				Updated: info.Updated, Generation: info.Generation,
			})
		}
	}
	bl := vector.NewBuilder(catalog.ObjectTableSchema())
	for _, en := range entries {
		bl.Append(
			vector.StringValue(fmt.Sprintf("%s://%s/%s", t.Cloud, en.Bucket, en.Key)),
			vector.IntValue(en.Size),
			vector.StringValue(en.ContentType),
			vector.TimestampValue(int64(en.Created)),
			vector.TimestampValue(int64(en.Updated)),
			vector.IntValue(en.Generation),
		)
	}
	ctx.Stats.RowsScanned += int64(bl.Len())
	return e.Auth.ApplyGovernance(ctx.Principal, t.FullName(), bl.Build())
}

// qualifySchema prefixes every column with "qual." for multi-table
// resolution.
func qualifySchema(s vector.Schema, qual string) vector.Schema {
	fields := make([]vector.Field, len(s.Fields))
	for i, f := range s.Fields {
		fields[i] = vector.Field{Name: qual + "." + f.Name, Type: f.Type}
	}
	return vector.Schema{Fields: fields}
}

// conjuncts appends the top-level AND conjuncts of where to out.
func conjuncts(where sqlparse.Expr, out []sqlparse.Expr) []sqlparse.Expr {
	if bin, ok := where.(sqlparse.Binary); ok && bin.Op == "AND" {
		return conjuncts(bin.R, conjuncts(bin.L, out))
	}
	if where != nil {
		out = append(out, where)
	}
	return out
}

// pushdown is one FROM source's share of a statement's WHERE: the
// predicates put to its scan, and what the scan made of them.
type pushdown struct {
	// preds are the `col op literal` conjuncts on the source, then any
	// DPP ranges; from[k] is the WHERE conjunct preds[k] came from, for
	// each of the conjuncts.
	preds []colfmt.Predicate
	from  []int
	// nullable marks a LEFT JOIN's NULL-extended side: a row the join
	// extends with NULLs never met the scan, so nothing it enforces is
	// exact.
	nullable bool
	// limit is the statement's LIMIT when the scan may stop at it (-1:
	// never): a single-table SELECT with no aggregate, GROUP BY or ORDER
	// BY, every WHERE conjunct among preds.
	limit int64
	// enforced, indexed like the WHERE's conjuncts, is where the scan
	// marks the ones it enforced exactly.
	enforced []bool
}

// pushdownFor extracts from a WHERE's conjuncts the `col op literal`
// ones that reference the given table qualifier (or are unqualified
// when the query has a single table), for a scan that marks in enforced
// the ones it enforces exactly. nullable marks a LEFT JOIN's
// NULL-extended side; limit is the LIMIT of a statement whose scan may
// stop at it once every conjunct is among the preds (-1: none). al
// supplies from.
func pushdownFor(al vector.Alloc, conj []sqlparse.Expr, qualifier string, single bool, enforced []bool, nullable bool, limit int64) pushdown {
	pd := pushdown{from: al.Ints(len(conj))[:0], nullable: nullable, limit: -1, enforced: enforced}
	for k, c := range conj {
		bin, ok := c.(sqlparse.Binary)
		if !ok {
			continue
		}
		op, ok := cmpOpMap[bin.Op]
		if !ok {
			continue
		}
		ref, refOK := bin.L.(sqlparse.ColumnRef)
		lit, litOK := bin.R.(sqlparse.Literal)
		if !refOK || !litOK {
			// literal op column
			if ref2, ok2 := bin.R.(sqlparse.ColumnRef); ok2 {
				if lit2, ok3 := bin.L.(sqlparse.Literal); ok3 {
					ref, lit, op = ref2, lit2, flipOp(op)
					refOK, litOK = true, true
				}
			}
		}
		if !refOK || !litOK || lit.Value.IsNull() {
			continue
		}
		if ref.Table != "" && ref.Table != qualifier {
			continue
		}
		if ref.Table == "" && !single {
			continue
		}
		pd.preds = append(pd.preds, colfmt.Predicate{Column: ref.Name, Op: op, Value: lit.Value})
		pd.from = append(pd.from, k)
	}
	if len(pd.from) == len(conj) {
		pd.limit = limit
	}
	return pd
}

// enforce is the exact-pushdown rule applied to the scan of plan p: it
// marks each WHERE conjunct of pd that the scan enforces exactly, and
// returns the row budget the scan's read may stop at (-1: none). Over a
// table with a transaction overlay, or on a LEFT JOIN's NULL-extended
// side, nothing is exact. The budget needs every conjunct exact and a
// Govern that drops no row.
func (pd *pushdown) enforce(p *scan.Plan, overlay bool) int64 {
	if pd == nil || pd.nullable || overlay {
		return -1
	}
	all := true
	for k, c := range pd.from {
		if exact(p, pd.preds[k]) {
			pd.enforced[c] = true
		} else {
			all = false
		}
	}
	if !all || pd.limit < 0 || p.GovernFilters() {
		return -1
	}
	return pd.limit
}

// exact reports whether a scan through p returns only rows that satisfy
// the pushed conjunct pr as the residual WHERE would evaluate it: on a
// column the table's files store (not a hive partition column, which
// only pruning consumes, and a value that does not parse prunes
// nothing) and the principal sees unmasked, against a non-NULL literal
// of the column's own type that every encoding's kernel judges as the
// plain one does — any integer or timestamp (each compares it exactly),
// a float that is not NaN.
func exact(p *scan.Plan, pr colfmt.Predicate) bool {
	i := p.Table.Schema.Index(pr.Column)
	if i < 0 || pr.Column == p.Table.PartitionColumn || pr.Value.Type != p.Table.Schema.Fields[i].Type {
		return false
	}
	for _, f := range p.Files {
		if _, ok := f.Partition[pr.Column]; ok {
			return false
		}
	}
	for _, m := range p.Masked {
		if m.Column == pr.Column {
			return false
		}
	}
	return pr.Value.Type != vector.Float64 || !math.IsNaN(pr.Value.F)
}
