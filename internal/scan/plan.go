package scan

import (
	"fmt"

	"biglake/internal/bigmeta"
	"biglake/internal/catalog"
	"biglake/internal/colfmt"
	"biglake/internal/objstore"
	"biglake/internal/obs"
	"biglake/internal/resilience"
	"biglake/internal/security"
	"biglake/internal/sim"
	"biglake/internal/vector"
)

// Access is a deployment's one table → (store, credential) rule.
type Access struct {
	Auth   *security.Authority
	Stores map[string]*objstore.Store
	// ManagedCred is the deployment's managed-storage credential. The
	// table writers and the scrubber hold none.
	ManagedCred objstore.Credential
}

// Resolve returns the object store that holds t's files and the
// credential they are read and written under: the service account of
// t.Connection (§3.1), narrowed to scope when the caller has one (the
// engine's per-query scoping, §5.3.1). A table with no connection — a
// native table, or an external table from before BigLake — is accessed
// under ManagedCred; an Access that holds none answers
// security.ErrNoConnection.
func (a Access) Resolve(t catalog.Table, scope ...string) (*objstore.Store, objstore.Credential, error) {
	store, ok := a.Stores[t.Cloud]
	if !ok {
		return nil, objstore.Credential{}, fmt.Errorf("scan: no object store for cloud %q", t.Cloud)
	}
	cred := a.ManagedCred
	if t.Connection != "" || cred.Principal == "" {
		conn, err := a.Auth.Connection(t.Connection)
		if err != nil {
			return nil, objstore.Credential{}, err
		}
		cred = conn.ServiceAccount
	}
	if len(scope) > 0 {
		var err error
		if cred, err = cred.WithScope(scope...); err != nil {
			return nil, objstore.Credential{}, err
		}
	}
	return store, cred, nil
}

// Planner holds what a deployment's table reads share. Like a Reader it
// is a handful of pointers, built by callers from their current fields.
type Planner struct {
	Access
	// Reader reads the planned files; its Log serves managed tables'
	// snapshots.
	Reader Reader
	Meta   *bigmeta.Cache
	Clock  *sim.Clock
}

// Request is one read of one table.
type Request struct {
	Table     catalog.Table
	Principal security.Principal
	// Project is the columns the caller wants back (nil = every column).
	Project Columns
	// Predicates are the caller's `column op literal` conjuncts.
	Predicates []colfmt.Predicate
	// Version pins a Native or Managed table's log snapshot (-1 =
	// latest). Removed names snapshot files to leave out — those a
	// transaction already rewrote — and Observe, when set, sees the
	// rest before any is pruned (the transaction's read set); the slice
	// is the plan's again once it returns.
	Version int64
	Removed map[string]bool
	Observe func(live []bigmeta.FileEntry)
	// Granularity is how much file metadata pruning may use.
	Granularity bigmeta.PruneGranularity
	// MetadataCache takes a BigLake table's files from Big Metadata.
	// Without it a lake table is LISTed and footer-peeked on the
	// caller's critical path (§3.3): the engine sets it from its option
	// and the table's, a Read API session always.
	MetadataCache bool
	// Scope narrows the table's credential (Access.Resolve).
	Scope []string
	// Budget is the retry allowance and deadline of the plan's
	// object-store calls and of its reads (nil = unbounded).
	Budget *resilience.Budget
	// Al supplies the plan's column set (nil = heap).
	Al vector.Alloc
	// Span, when set, is the parent of the meta.refresh, meta.prune,
	// list and footer spans.
	Span *obs.Span
}

// Plan is one table read, resolved: where the files are and under what
// credential, which can hold a match, which columns to decode, which
// predicates run where. Its holder decides how the files are read — in
// what order, how many at once, cached or not.
type Plan struct {
	// Source is the access every read of the plan runs under; Reader
	// the verified reader its files go through.
	Source
	Reader Reader
	// Files are the files that can hold a match, in snapshot order.
	Files []bigmeta.FileEntry
	// Columns is what a read decodes: Request.Project with the columns
	// the predicates and the principal's row policies filter on.
	Columns Columns
	// Pushed are the predicates put to stored values: they prune files
	// and row groups and select rows as a file is read. Masked are
	// those on a column the principal sees masked, which none of that
	// may use: Govern applies them, to the masked values.
	Pushed, Masked []colfmt.Predicate
	// Pruned counts the files pruning left out; ListCalls and
	// FooterReads what finding them cost the object store.
	Pruned, ListCalls, FooterReads int64

	auth    *security.Authority
	project Columns
	preds   []colfmt.Predicate
	al      vector.Alloc
}

// Plan resolves req: the table's source, its predicates and columns
// under the principal's policies, and the files worth reading.
func (pl Planner) Plan(req Request) (Plan, error) {
	t := req.Table
	store, cred, err := pl.Resolve(t, req.Scope...)
	if err != nil {
		return Plan{}, err
	}
	p := Plan{
		Source: Source{Table: t, Store: store, Cred: cred, Budget: req.Budget, Principal: string(req.Principal)},
		Reader: pl.Reader, auth: pl.Auth, project: req.Project, preds: req.Predicates, al: req.Al,
	}
	if err := p.resolve(); err != nil {
		return Plan{}, err
	}
	switch {
	case t.Type == catalog.Native || t.Type == catalog.Managed:
		err = p.snapshot(req)
	case t.Type == catalog.BigLake && req.MetadataCache:
		err = p.cached(pl, req)
	default:
		err = p.listed(pl, req)
	}
	return p, err
}

// Renew returns p — the same files — as pl's current reader reads it
// and the policy now in force governs it: what a holder that outlives
// its statement (a read session) reads through.
func (pl Planner) Renew(p *Plan) (Plan, error) {
	c := *p
	c.Reader = pl.Reader
	return c, c.resolve()
}

// resolve decides, under the policy in force, where each predicate runs
// and what is decoded. A predicate on a column the principal may not
// read fails the plan; one on a column it sees masked must not reach
// stored values — skipping on them is unsound against the masked view,
// and the answer would confirm a raw value. Without a column policy
// every predicate is pushed and nothing is allocated.
func (p *Plan) resolve() error {
	table, who := p.Table.FullName(), security.Principal(p.Principal)
	p.Pushed, p.Masked = p.preds, nil
	for i, pr := range p.preds {
		d := p.auth.ColumnDecisionFor(who, table, pr.Column)
		switch {
		case d.Denied:
			// Named afresh: table must not escape on the paths that succeed.
			return fmt.Errorf("%w: column %s.%s", security.ErrDenied, p.Table.FullName(), pr.Column)
		case d.Mask != vector.MaskNone:
			if p.Masked == nil {
				p.Pushed = append(p.preds[:0:0], p.preds[:i]...)
			}
			p.Masked = append(p.Masked, pr)
		case p.Masked != nil:
			p.Pushed = append(p.Pushed, pr)
		}
	}
	p.Columns = nil
	if p.project == nil {
		return nil
	}
	schema := p.Table.Schema
	p.Columns = NewColumns(p.al, schema.Len())
	copy(p.Columns, p.project)
	p.Columns.AddPredicates(schema, p.preds)
	filters, _ := p.auth.RowFilterFor(who, table)
	for _, conj := range filters {
		p.Columns.AddPredicates(schema, conj)
	}
	return nil
}

// prune keeps, in place, the files of a list the plan owns whose
// metadata admits a match.
func (p *Plan) prune(files []bigmeta.FileEntry, g bigmeta.PruneGranularity) {
	kept := bigmeta.PruneList(p.al, files, p.Pushed, g)
	p.Pruned += int64(len(files) - len(kept))
	p.Files = kept
}

// snapshot plans a Native or Managed table from its source of truth,
// the Big Metadata transaction log (§3.5), never from a listing.
func (p *Plan) snapshot(req Request) error {
	files, _, err := p.Reader.Log.Snapshot(p.Table.FullName(), req.Version)
	if err != nil {
		return err
	}
	if len(req.Removed) > 0 {
		live := files[:0]
		for _, f := range files {
			if !req.Removed[f.Key] {
				live = append(live, f)
			}
		}
		files = live
	}
	if req.Observe != nil {
		req.Observe(files)
	}
	p.prune(files, req.Granularity)
	return nil
}

// cached plans a BigLake table from Big Metadata: no LIST, no footer
// peeks (§3.3). A missing cache, or one past the table's staleness
// interval, is rebuilt first (normally a background maintenance task).
func (p *Plan) cached(pl Planner, req Request) error {
	t, name := p.Table, p.Table.FullName()
	at, ok := pl.Meta.RefreshedAt(name)
	if !ok || (t.MetadataStaleness > 0 && pl.Clock.Now()-at > t.MetadataStaleness) {
		sp := req.Span.Child("meta.refresh")
		_, err := pl.Meta.Refresh(name, p.Store, p.Cred, t.Bucket, t.Prefix, bigmeta.RefreshOptions{WithFileStats: true, Background: true})
		sp.End()
		if err != nil {
			return err
		}
	}
	sp := req.Span.Child("meta.prune")
	defer sp.End()
	sp.SetInt("granularity", int64(req.Granularity))
	x, err := pl.Meta.Index(name)
	if err != nil {
		return err
	}
	p.Files = x.Prune(p.al, p.Pushed, req.Granularity)
	p.Pruned += int64(x.Len() - len(p.Files))
	sp.SetInt("files_total", int64(x.Len()))
	sp.SetInt("files_kept", int64(len(p.Files)))
	return nil
}

// listed plans a lake table with no metadata cache to read: list the
// bucket, then peek at the footer of each file partition pruning keeps
// to decide whether it can be skipped — all on the critical path.
func (p *Plan) listed(pl Planner, req Request) error {
	t := p.Table
	res := p.Reader.Res.Counting(p.Reader.Obs)
	lsp := req.Span.Child("list")
	infos, err := resilience.ListAll(res, pl.Clock, req.Budget, p.Store, p.Cred, t.Bucket, t.Prefix)
	lsp.SetInt("objects", int64(len(infos)))
	lsp.End()
	if err != nil {
		return err
	}
	p.ListCalls++
	entries := make([]bigmeta.FileEntry, len(infos))
	for i, info := range infos {
		entries[i] = bigmeta.FileEntry{
			Bucket:     t.Bucket,
			Key:        info.Key,
			Size:       info.Size,
			Generation: info.Generation,
			Partition:  bigmeta.PartitionOf(t.Prefix, info.Key),
		}
	}
	// Partition pruning needs no footer; only survivors get a peek.
	entries = bigmeta.PruneList(p.al, entries, p.Pushed, bigmeta.PrunePartitionsOnly)
	p.Pruned += int64(len(infos) - len(entries))
	peek := make([]int, len(entries)) // positions in infos: a file's picks its track
	for i, k := 0, 0; k < len(entries); i++ {
		if infos[i].Key == entries[k].Key {
			peek[k], k = i, k+1
		}
	}
	p.FooterReads += int64(len(peek))
	// The workers share copies: the plan itself stays off the heap.
	store, cred, span, budget := p.Store, p.Cred, req.Span, req.Budget
	err = pl.Clock.OnTracks(Workers, len(peek), func(k int, tracks []*sim.Track) error {
		lane := peek[k] % Workers
		tr := tracks[lane]
		var fsp *obs.Span
		if span != nil {
			fsp = span.ChildAt(tr, "footer "+entries[k].Key)
			fsp.SetLane(lane)
		}
		defer fsp.End()
		footer, gen, err := bigmeta.ReadFooterStats(res, budget, store, cred, t.Bucket, entries[k].Key, tr)
		if err == nil {
			entries[k].Describe(footer, gen)
		}
		return err
	})
	if err != nil {
		return err
	}
	// The granularity means the same with and without the cache.
	p.prune(entries, req.Granularity)
	return nil
}

// Workers is the parallelism of a scan's object-store fan-out.
const Workers = 16

// Govern is the enforcement step for rows read through the plan, one
// implementation for object stores and native storage (§3.2): row
// policies, column denials and masks, then the predicates that had to
// wait for the masks.
func (p *Plan) Govern(b *vector.Batch) (*vector.Batch, error) {
	b, err := p.auth.ApplyGovernance(security.Principal(p.Principal), p.Table.FullName(), b)
	if err != nil || len(p.Masked) == 0 {
		return b, err
	}
	rows, err := colfmt.EvalPredicates(b, p.Masked)
	if err != nil {
		return nil, err
	}
	sel, err := vector.Window(b, 0, b.N, rows)
	if err != nil {
		return nil, err
	}
	return vector.FilterConcatWith(vector.Mem{}, []vector.Selection{sel})
}

// Governs reports whether Govern may change a batch the plan's read
// returns: a predicate waits for a mask, or ApplyGovernance governs the
// columns the read decodes (security.Authority.Governs). When it does
// not, Govern returns every batch as it is, and a reader may skip it.
func (p *Plan) Governs() bool {
	return len(p.Masked) > 0 || p.auth.Governs(security.Principal(p.Principal), p.Table.FullName(), p.Table.Schema.Fields, p.Columns.Has)
}

// GovernFilters reports whether Govern may drop rows the read
// selected: a row policy restricts the principal, or a predicate waits
// for a mask.
func (p *Plan) GovernFilters() bool {
	return len(p.Masked) > 0 || p.rowsRestricted()
}

// rowsRestricted reports whether a row policy hides rows of the table
// from the principal.
func (p *Plan) rowsRestricted() bool {
	filters, allRows := p.auth.RowFilterFor(security.Principal(p.Principal), p.Table.FullName())
	for _, conj := range filters {
		allRows = allRows || len(conj) == 0 // a policy that filters on nothing grants every row
	}
	return !allRows
}

// Stats merges the planned files' statistics into what the principal
// may plan with (§3.4). Totals are the pre-policy estimate. A column it
// is denied or sees masked reports nothing, and under a row policy that
// restricts it no column reports a minimum or maximum: they range over
// rows it may not see.
func (p *Plan) Stats() bigmeta.TableStats {
	table, who := p.Table.FullName(), security.Principal(p.Principal)
	ts := bigmeta.MergeStats(p.Files)
	restricted := p.rowsRestricted()
	for col, st := range ts.ColumnStats {
		if d := p.auth.ColumnDecisionFor(who, table, col); d.Denied || d.Mask != vector.MaskNone {
			delete(ts.ColumnStats, col)
		} else if restricted {
			st.Min, st.Max = colfmt.StatValue{}, colfmt.StatValue{}
			ts.ColumnStats[col] = st
		}
	}
	return ts
}
