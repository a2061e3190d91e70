package omni

import (
	"fmt"
	"time"

	"biglake/internal/bigmeta"
	"biglake/internal/catalog"
	"biglake/internal/colfmt"
	"biglake/internal/engine"
	"biglake/internal/obs"
	"biglake/internal/security"
	"biglake/internal/sqlparse"
	"biglake/internal/vector"
)

// ControlPrincipal is the control plane's own identity, an implicit
// deployment admin used for internal grants and temp-table plumbing.
const ControlPrincipal = security.Principal("omni-control@system")

// SubmitOptions tunes cross-cloud execution for experiments.
type SubmitOptions struct {
	// DisablePushdown ships whole remote tables instead of filtered
	// subqueries (ablation A5).
	DisablePushdown bool
}

// Submit is the Job Server entry point (§5.1): it validates the query,
// performs IAM authorization and metadata lookup on the control plane,
// mints per-query session tokens, down-scopes credentials, and routes
// execution — single-region queries to their region's data plane,
// multi-region queries through the cross-cloud split of §5.6.1.
func (d *Deployment) Submit(principal security.Principal, sql string) (*engine.Result, error) {
	return d.SubmitWith(principal, sql, SubmitOptions{})
}

// SubmitWith is Submit with experiment options. It parses through the
// primary region's statement cache and records the query as one job,
// omni-q-<n>, in the primary's system.jobs, carrying what its region
// runs scanned; the region engines record nothing.
func (d *Deployment) SubmitWith(principal security.Principal, sql string, opts SubmitOptions) (res *engine.Result, err error) {
	primary, err := d.Region(d.Primary)
	if err != nil {
		return nil, err
	}
	stmt, _, err := primary.Engine.Parse(sql)
	if err != nil {
		return nil, err
	}
	job := engine.NewContext(principal, fmt.Sprintf("omni-q-%d", d.nextSeq()))
	job.SQLText, job.Stats.SimStart = sql, d.Clock.Now()
	wallStart := time.Now()
	var runs []*engine.QueryContext
	defer func() {
		job.Stats.SimElapsed = d.Clock.Now() - job.Stats.SimStart
		for _, ctx := range runs {
			job.Stats.RowsScanned += ctx.Stats.RowsScanned
			job.Stats.BytesScanned += ctx.Stats.BytesScanned
			job.Stats.CacheHits += ctx.Stats.CacheHits
			job.Stats.QuarantineSkips += ctx.Stats.QuarantineSkips
		}
		rec := engine.JobRecord(job, stmt, res, err)
		rec.Wall = time.Since(wallStart)
		primary.Engine.Sys.RecordJob(rec)
	}()

	// Per-query trace (nil Tracer disables it end to end). The
	// deployment started the trace, so it — not the region engines,
	// which see ctx.Trace already set — finishes it.
	tr := d.Tracer.Start(job.QueryID, d.Clock)
	root := tr.Root()
	defer tr.Finish()
	regionCtx := func(region string, scope []string) *engine.QueryContext {
		ctx := engine.NewContext(principal, job.QueryID)
		ctx.Region, ctx.Scope, ctx.Trace = region, scope, tr
		runs = append(runs, ctx)
		return ctx
	}

	sel, isSelect := stmt.(*sqlparse.SelectStmt)
	tables := sqlparse.ReferencedTables(stmt)
	for _, t := range tables {
		if err := d.Auth.CheckRead(principal, t); err != nil {
			return nil, err
		}
	}

	// Resolve each table's region.
	regionOf := map[string]string{}
	regions := map[string]bool{}
	for _, t := range tables {
		region, err := d.Catalog.RegionOf(t)
		if err != nil {
			return nil, err
		}
		regionOf[t] = region
		regions[region] = true
	}

	// Choose the home region: single-region queries run where the data
	// is; multi-region queries are homed in the deployment's primary.
	home := d.Primary
	if len(regions) == 1 {
		for r := range regions {
			home = r
		}
	}
	homeRegion, err := d.Region(home)
	if err != nil {
		return nil, err
	}

	// Per-query security: scoped credentials + session tokens validated
	// at each region's untrusted proxy before dispatch.
	scope, err := d.scopeFor(tables)
	if err != nil {
		return nil, err
	}
	proxy := d.Proxy()
	for region := range regions {
		r, err := d.Region(region)
		if err != nil {
			return nil, err
		}
		var regionTables []string
		for _, t := range tables {
			if regionOf[t] == region {
				regionTables = append(regionTables, t)
			}
		}
		tok := d.Auth.MintToken(job.QueryID, principal, region, regionTables, d.Clock.Now()+TokenTTL)
		svc := security.Principal(r.ServiceAccount().Principal)
		for _, t := range regionTables {
			if err := proxy.Authorize(tok, region, svc, t); err != nil {
				return nil, err
			}
		}
	}

	// Single-region (or statement) path: dispatch to that region over
	// the VPN.
	if len(regions) <= 1 || !isSelect {
		target := homeRegion
		if err := d.VPN.Call(d.Clock, d.Primary, target.Name, 1024, target.Store.Profile()); err != nil {
			return nil, err
		}
		ctx := regionCtx(target.Name, scope)
		if root != nil {
			sp := root.Child("dispatch " + target.Name)
			sp.SetStr("cloud", target.Cloud)
			ctx.Span = sp
			defer sp.End()
		}
		res, err := target.Engine.Execute(ctx, stmt)
		if err != nil {
			return nil, err
		}
		// Result bytes ride the VPN back to the control plane.
		payload := int64(len(vector.EncodeBatch(res.Batch, true)))
		if err := d.VPN.Call(d.Clock, target.Name, d.Primary, payload, target.Store.Profile()); err != nil {
			return nil, err
		}
		ctx.Span.SetInt("result_bytes", payload)
		return res, nil
	}

	// Cross-cloud query (§5.6.1): run remote subqueries with filter
	// pushdown, stream results back as temp tables, rewrite, and join
	// locally.
	d.Obs.Add("omni.cross_cloud_queries", 1)
	rewritten := cloneSelect(sel)
	for _, t := range tables {
		if regionOf[t] == home {
			continue
		}
		remote, err := d.Region(regionOf[t])
		if err != nil {
			return nil, err
		}
		alias := aliasFor(rewritten, t)
		var preds []colfmt.Predicate
		if !opts.DisablePushdown {
			tab, err := d.Catalog.Table(t)
			if err != nil {
				return nil, err
			}
			preds = extractPushdown(sel.Where, alias, tab)
		}
		sub := &sqlparse.SelectStmt{
			Items: []sqlparse.SelectItem{{Star: true}},
			From:  &sqlparse.TableRef{Name: t},
			Where: predsToExpr(preds),
			Limit: -1,
		}
		ctx := regionCtx(remote.Name, scope)
		var ssp *obs.Span
		if root != nil {
			ssp = root.Child("subquery " + remote.Name)
			ssp.SetStr("cloud", remote.Cloud)
			ssp.SetStr("table", t)
			ctx.Span = ssp
		}
		res, err := remote.Engine.Execute(ctx, sub)
		if err != nil {
			ssp.End()
			return nil, fmt.Errorf("omni: remote subquery on %s: %w", remote.Name, err)
		}
		// High-throughput streaming of the filtered result back to the
		// home region over the VPN.
		payload := vector.EncodeBatch(res.Batch, true)
		if err := d.VPN.Call(d.Clock, remote.Name, home, int64(len(payload)), remote.Store.Profile()); err != nil {
			ssp.End()
			return nil, err
		}
		ssp.SetInt("rows", int64(res.Batch.N))
		ssp.SetInt("egress_bytes", int64(len(payload)))
		ssp.End()
		tempName, err := d.createTempTable(homeRegion, principal, res.Batch)
		if err != nil {
			return nil, err
		}
		replaceTable(rewritten, t, tempName)
	}

	ctx := regionCtx(home, nil)
	if root != nil {
		jsp := root.Child("local join " + home)
		ctx.Span = jsp
		defer jsp.End()
	}
	return homeRegion.Engine.Execute(ctx, rewritten)
}

func (d *Deployment) nextSeq() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.tempSeq++
	return d.tempSeq
}

// createTempTable materializes a batch as a Native temp table in the
// home region — one commit through the region log's commit protocol —
// and grants the querying principal read access.
func (d *Deployment) createTempTable(home *Region, principal security.Principal, rows *vector.Batch) (string, error) {
	if _, err := d.Catalog.Dataset("_omni_tmp"); err != nil {
		if err := d.Catalog.CreateDataset(catalog.Dataset{Name: "_omni_tmp", Region: home.Name, Cloud: home.Cloud}); err != nil {
			return "", err
		}
	}
	name := fmt.Sprintf("_omni_tmp.t%d", d.nextSeq())
	bucket := home.Manager.DefaultBucket
	if err := d.Catalog.CreateTable(catalog.Table{
		Dataset: "_omni_tmp", Name: name[len("_omni_tmp."):], Type: catalog.Native,
		Schema: rows.Schema, Cloud: home.Cloud, Bucket: bucket,
		Prefix: "tmp/", CreatedAt: d.Clock.Now(),
	}); err != nil {
		return "", err
	}
	if _, err := home.Log.CommitFiles(bigmeta.Tx{
		ID: name, Principal: string(ControlPrincipal), Res: home.Engine.Res,
		Files: []bigmeta.DataFile{{
			Table: name, Store: home.Store, Cred: home.ServiceAccount(), Bucket: bucket,
			Key: fmt.Sprintf("tmp/%s.blk", name), Batch: rows,
		}},
	}); err != nil {
		return "", err
	}
	if err := d.Auth.GrantTable(ControlPrincipal, name, principal, security.RoleViewer); err != nil {
		return "", err
	}
	return name, nil
}

// aliasFor returns the alias the query uses for a table (or its name).
func aliasFor(sel *sqlparse.SelectStmt, table string) string {
	if sel.From != nil && sel.From.Name == table {
		return sel.From.DisplayName()
	}
	for i := range sel.Joins {
		if sel.Joins[i].Table.Name == table {
			return sel.Joins[i].Table.DisplayName()
		}
	}
	return table
}

// extractPushdown pulls `col op literal` conjuncts for one table alias
// out of a WHERE tree, keeping only columns of the table's schema.
func extractPushdown(where sqlparse.Expr, alias string, t catalog.Table) []colfmt.Predicate {
	var out []colfmt.Predicate
	var walk func(e sqlparse.Expr)
	walk = func(e sqlparse.Expr) {
		bin, ok := e.(sqlparse.Binary)
		if !ok {
			return
		}
		if bin.Op == "AND" {
			walk(bin.L)
			walk(bin.R)
			return
		}
		op, ok := cmpOps[bin.Op]
		if !ok {
			return
		}
		ref, refOK := bin.L.(sqlparse.ColumnRef)
		lit, litOK := bin.R.(sqlparse.Literal)
		if !refOK || !litOK || lit.Value.IsNull() {
			return
		}
		if ref.Table != "" && ref.Table != alias {
			return
		}
		if t.Schema.Index(ref.Name) < 0 {
			return
		}
		out = append(out, colfmt.Predicate{Column: ref.Name, Op: op, Value: lit.Value})
	}
	if where != nil {
		walk(where)
	}
	return out
}

var cmpOps = map[string]vector.CmpOp{
	"=": vector.EQ, "!=": vector.NE, "<": vector.LT, "<=": vector.LE, ">": vector.GT, ">=": vector.GE,
}

// predsToExpr renders predicates back into an AND expression tree.
func predsToExpr(preds []colfmt.Predicate) sqlparse.Expr {
	var out sqlparse.Expr
	for _, p := range preds {
		cmp := sqlparse.Binary{
			Op: p.Op.String(),
			L:  sqlparse.ColumnRef{Name: p.Column},
			R:  sqlparse.Literal{Value: p.Value},
		}
		if out == nil {
			out = cmp
		} else {
			out = sqlparse.Binary{Op: "AND", L: out, R: cmp}
		}
	}
	return out
}

// cloneSelect deep-copies the parts of a SELECT the rewriter mutates.
func cloneSelect(sel *sqlparse.SelectStmt) *sqlparse.SelectStmt {
	cp := *sel
	if sel.From != nil {
		fromCp := *sel.From
		cp.From = &fromCp
	}
	cp.Joins = make([]sqlparse.Join, len(sel.Joins))
	for i, j := range sel.Joins {
		cp.Joins[i] = j
		refCp := *j.Table
		cp.Joins[i].Table = &refCp
	}
	return &cp
}

// replaceTable rewrites a table reference to point at a temp table,
// preserving the alias so column references keep resolving.
func replaceTable(sel *sqlparse.SelectStmt, oldName, newName string) {
	fix := func(r *sqlparse.TableRef) {
		if r != nil && r.Name == oldName {
			if r.Alias == "" {
				r.Alias = oldName
			}
			r.Name = newName
		}
	}
	fix(sel.From)
	for i := range sel.Joins {
		fix(sel.Joins[i].Table)
	}
}
