package engine

import (
	"errors"
	"fmt"
	"sync"

	"biglake/internal/bigmeta"
	"biglake/internal/catalog"
	"biglake/internal/colfmt"
	"biglake/internal/objstore"
	"biglake/internal/obs"
	"biglake/internal/resilience"
	"biglake/internal/scan"
	"biglake/internal/sim"
	"biglake/internal/sqlparse"
	"biglake/internal/systables"
	"biglake/internal/vector"
)

// scanTable reads a catalog table in situ as the FROM source ref of
// sel, applying pushdown predicates for pruning and governance before
// any row leaves the trust boundary. Only the columns sel can read from
// it are decoded (sel nil: all of them). The returned batch carries the
// table's bare column names.
func (e *Engine) scanTable(ctx *QueryContext, sel *sqlparse.SelectStmt, ref *sqlparse.TableRef, preds []colfmt.Predicate) (*vector.Batch, error) {
	name := ref.Name
	if parent := ctx.Span; parent != nil {
		sp := parent.Child("scan " + name)
		ctx.Span = sp
		pre := ctx.Stats
		defer func() {
			sp.SetInt("files", ctx.Stats.FilesScanned-pre.FilesScanned)
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
		return nil, err
	}
	if err := e.Auth.CheckRead(ctx.Principal, name); err != nil {
		return nil, err
	}

	var batch *vector.Batch
	if t.Type == catalog.Object {
		batch, err = e.scanObjectTable(ctx, t)
	} else {
		cols := e.scanColumns(ctx, sel, ref, t.Schema, preds)
		read, total := int64(cols.Count(t.Schema.Len())), int64(t.Schema.Len())
		ctx.Span.SetInt("columns", read)
		ctx.Span.SetInt("columns_total", total)
		e.ec.colsRead.Add(read)
		e.ec.colsSkipped.Add(total - read)
		if t.Type == catalog.Native || t.Type == catalog.Managed {
			batch, err = e.scanManagedTable(ctx, t, cols, preds)
		} else { // External, BigLake
			batch, err = e.scanLakeTable(ctx, t, cols, preds)
		}
	}
	if err != nil {
		return nil, err
	}

	// Governance is applied inside the engine for every scan — the
	// same implementation the Read API uses (§3.2).
	return e.Auth.ApplyGovernance(ctx.Principal, name, batch)
}

// scanColumns resolves, once per statement, the columns of one FROM
// source sel can read: every column of schema its select list, WHERE,
// GROUP BY, ORDER BY or a join condition names — qualified by the
// source, or unqualified and so possibly its — plus what the pushdown
// predicates and the principal's row policies filter on. `*`, or an
// expression it cannot classify, means every column (nil), as does a
// scan outside a statement (a TVF's TABLE input).
func (e *Engine) scanColumns(ctx *QueryContext, sel *sqlparse.SelectStmt, ref *sqlparse.TableRef, schema vector.Schema, preds []colfmt.Predicate) scan.Columns {
	if sel == nil {
		return nil
	}
	cols := scan.NewColumns(ctx.mem.Al, schema.Len())
	qual := ref.DisplayName()
	ok := addExprColumns(cols, schema, qual, sel.Where)
	for _, it := range sel.Items {
		ok = ok && !it.Star && addExprColumns(cols, schema, qual, it.Expr)
	}
	for _, g := range sel.GroupBy {
		ok = ok && addExprColumns(cols, schema, qual, g)
	}
	for _, o := range sel.OrderBy {
		ok = ok && addExprColumns(cols, schema, qual, o.Expr)
	}
	for i := range sel.Joins {
		ok = ok && addExprColumns(cols, schema, qual, sel.Joins[i].On)
	}
	if !ok {
		return nil
	}
	cols.AddPredicates(schema, preds)
	filters, _ := e.Auth.RowFilterFor(ctx.Principal, ref.Name)
	for _, conj := range filters {
		cols.AddPredicates(schema, conj)
	}
	return cols
}

// addExprColumns adds to cols the columns of schema that x names as the
// source qual's. It reports false for an expression it cannot classify.
func addExprColumns(cols scan.Columns, schema vector.Schema, qual string, x sqlparse.Expr) bool {
	switch x := x.(type) {
	case nil, sqlparse.Literal:
	case sqlparse.ColumnRef:
		if x.Table == "" || x.Table == qual {
			cols.AddNamed(schema, x.Name)
		}
	case sqlparse.Not:
		return addExprColumns(cols, schema, qual, x.E)
	case sqlparse.Binary:
		return addExprColumns(cols, schema, qual, x.L) && addExprColumns(cols, schema, qual, x.R)
	case sqlparse.Call:
		for _, a := range x.Args {
			if !addExprColumns(cols, schema, qual, a) {
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
func (e *Engine) scanSystemTable(ctx *QueryContext, name string, preds []colfmt.Predicate) (*vector.Batch, error) {
	b, err := e.Sys.Scan(name)
	if err != nil {
		return nil, err
	}
	applicable := preds[:0:0]
	for _, p := range preds {
		if b.Column(p.Column) != nil {
			applicable = append(applicable, p)
		}
	}
	if len(applicable) > 0 {
		mask, err := colfmt.EvalPredicatesWith(ctx.mem.Al, b, applicable)
		if err != nil {
			return nil, err
		}
		b, err = vector.FilterWith(ctx.mem, b, mask)
		if err != nil {
			return nil, err
		}
	}
	ctx.Stats.RowsScanned += int64(b.N)
	return b, nil
}

// scanLakeTable reads an External or BigLake table from object
// storage. With metadata caching the file set comes from Big Metadata
// (no LIST, no footer peeks); without it the engine pays the full
// object-store metadata cost on the query's critical path (§3.3).
func (e *Engine) scanLakeTable(ctx *QueryContext, t catalog.Table, cols scan.Columns, preds []colfmt.Predicate) (*vector.Batch, error) {
	store, err := e.store(t.Cloud)
	if err != nil {
		return nil, err
	}
	cred, err := e.credForCtx(ctx, t)
	if err != nil {
		return nil, err
	}

	var files []bigmeta.FileEntry
	useCache := e.Opts.UseMetadataCache && t.MetadataCaching && t.Type == catalog.BigLake
	if useCache {
		refreshedAt, ok := e.Meta.RefreshedAt(t.FullName())
		stale := ok && t.MetadataStaleness > 0 && e.Clock.Now()-refreshedAt > t.MetadataStaleness
		if !ok || stale {
			// First touch or staleness-interval expiry: rebuild the
			// cache (normally a background maintenance task; §3.3).
			var msp *obs.Span
			if ctx.Span != nil {
				msp = ctx.Span.Child("meta.refresh")
			}
			_, err := e.Meta.Refresh(t.FullName(), store, cred, t.Bucket, t.Prefix, bigmeta.RefreshOptions{WithFileStats: true, Background: true})
			msp.End()
			if err != nil {
				return nil, err
			}
		}
		var psp *obs.Span
		if ctx.Span != nil {
			psp = ctx.Span.Child("meta.prune")
			psp.SetInt("granularity", int64(e.Opts.PruneGranularity))
		}
		all, err := e.Meta.Files(t.FullName())
		if err != nil {
			psp.End()
			return nil, err
		}
		files, err = e.Meta.Prune(t.FullName(), preds, e.Opts.PruneGranularity)
		if err != nil {
			psp.End()
			return nil, err
		}
		psp.SetInt("files_total", int64(len(all)))
		psp.SetInt("files_kept", int64(len(files)))
		psp.End()
		ctx.Stats.FilesPruned += int64(len(all) - len(files))
	} else {
		// Slow path: list the bucket, then peek at each file's footer
		// to decide skippability — all on the critical path.
		var lsp *obs.Span
		if ctx.Span != nil {
			lsp = ctx.Span.Child("list")
		}
		res := e.Res.Counting(e.Obs)
		infos, err := resilience.ListAll(res, e.Clock, ctx.Budget, store, cred, t.Bucket, t.Prefix)
		if lsp != nil {
			lsp.SetInt("objects", int64(len(infos)))
		}
		lsp.End()
		if err != nil {
			return nil, err
		}
		ctx.Stats.ListCalls++
		entries := make([]bigmeta.FileEntry, len(infos))
		tracks := startTracks(e.Clock, ScanWorkers)
		var wg sync.WaitGroup
		errs := make(chan error, len(infos))
		sem := make(chan struct{}, ScanWorkers)
		var footerPeeks int64
		for i, info := range infos {
			entries[i] = bigmeta.FileEntry{
				Bucket:     t.Bucket,
				Key:        info.Key,
				Size:       info.Size,
				Generation: info.Generation,
				Partition:  bigmeta.PartitionOf(t.Prefix, info.Key),
			}
			// Partition pruning needs no footer; only survivors get a
			// footer peek.
			if !bigmeta.FileCanMatch(entries[i], preds, bigmeta.PrunePartitionsOnly) {
				entries[i].Size = -1 // mark pruned
				continue
			}
			footerPeeks++
			wg.Add(1)
			go func(i int, key string) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				tr := tracks[i%ScanWorkers]
				var fsp *obs.Span
				if ctx.Span != nil {
					fsp = ctx.Span.ChildAt(tr, "footer "+key)
					fsp.SetLane(i % ScanWorkers)
				}
				defer fsp.End()
				stats, rows, err := bigmeta.ReadFooterStats(res, ctx.Budget, store, cred, t.Bucket, key, tr)
				if err != nil {
					errs <- err
					return
				}
				entries[i].ColumnStats = stats
				entries[i].RowCount = rows
			}(i, info.Key)
		}
		wg.Wait()
		// Tracks fold into the global clock even when a worker failed,
		// so an error return cannot leak simulated-time tracks.
		joinTracks(tracks)
		// Only survivors of partition pruning got a footer peek.
		ctx.Stats.FooterReads += footerPeeks
		if err := drainErrs(errs); err != nil {
			return nil, err
		}
		for _, en := range entries {
			if en.Size < 0 {
				ctx.Stats.FilesPruned++
				continue
			}
			// Honor the configured granularity here too: the knob
			// must mean the same thing with and without the cache.
			if bigmeta.FileCanMatch(en, preds, e.Opts.PruneGranularity) {
				files = append(files, en)
			} else {
				ctx.Stats.FilesPruned++
			}
		}
	}
	return e.readFiles(ctx, store, cred, t, files, cols, preds)
}

// scanManagedTable reads a Native or BLMT table whose source of truth
// is the Big Metadata transaction log (§3.5): the file list comes from
// a log snapshot, never from object-store listing.
func (e *Engine) scanManagedTable(ctx *QueryContext, t catalog.Table, cols scan.Columns, preds []colfmt.Predicate) (*vector.Batch, error) {
	store, err := e.store(t.Cloud)
	if err != nil {
		return nil, err
	}
	cred, err := e.credForCtx(ctx, t)
	if err != nil {
		return nil, err
	}
	version := int64(-1)
	if ctx.Txn != nil {
		version = ctx.Txn.SnapshotVersion()
	}
	files, _, err := e.Log.Snapshot(t.FullName(), version)
	if err != nil {
		return nil, err
	}
	var overlay []*vector.Batch
	if ctx.Txn != nil {
		// Inside a transaction the scan sees the pinned snapshot minus
		// the files the session already rewrote, plus its buffered
		// batches. The surviving snapshot files are recorded *before*
		// predicate pruning: the read set must cover everything the
		// statement logically read, not just what its pushdown kept.
		removed, added := ctx.Txn.Overlay(t.FullName())
		if len(removed) > 0 {
			live := files[:0]
			for _, f := range files {
				if !removed[f.Key] {
					live = append(live, f)
				}
			}
			files = live
		}
		ctx.Txn.ObserveRead(t.FullName(), files)
		overlay = added
	}
	kept := files[:0]
	for _, f := range files {
		if bigmeta.FileCanMatch(f, preds, e.Opts.PruneGranularity) {
			kept = append(kept, f)
		} else {
			ctx.Stats.FilesPruned++
		}
	}
	out, err := e.readFiles(ctx, store, cred, t, kept, cols, preds)
	if err != nil {
		return nil, err
	}
	// Buffered batches are appended unfiltered, projected like the scan;
	// the residual WHERE in execSelect (and the where-func in DML
	// rewrites) re-checks the full predicate, so pushdown never has to
	// understand the overlay.
	for _, b := range overlay {
		if b.N == 0 {
			continue
		}
		if b, err = projectLike(b, out.Schema); err != nil {
			return nil, err
		}
		out, err = vector.AppendBatch(out, b)
		if err != nil {
			return nil, err
		}
		ctx.Stats.RowsScanned += int64(b.N)
	}
	return out, nil
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

// reader assembles the engine's verified data-file reader from its
// current fields; everything the scan does per file goes through it.
func (e *Engine) reader() scan.Reader {
	return scan.Reader{Res: e.Res, Log: e.Log, Obs: e.Obs, Cache: e.scanCache,
		Site: "scan", SkipQuarantined: e.Opts.SkipQuarantined}
}

// readFiles reads the columns cols of the surviving files through the
// verified reader — resident ones synchronously, the rest in parallel
// worker tracks — and merges what the predicates select. Predicates on
// columns a file does not store (partition columns, consumed by
// pruning) are dropped per file by the reader.
func (e *Engine) readFiles(ctx *QueryContext, store *objstore.Store, cred objstore.Credential, t catalog.Table, files []bigmeta.FileEntry, cols scan.Columns, preds []colfmt.Predicate) (*vector.Batch, error) {
	// Each file contributes a decoded batch and the rows of it the
	// predicates select; the merge below filters and concatenates in
	// one pass.
	results := make([]vector.Selection, len(files))
	rd := e.reader()
	src := scan.Source{Table: t, Store: store, Cred: cred, Budget: ctx.Budget, Principal: string(ctx.Principal)}

	// Warm pass: the quarantine gate and the generation-keyed cache,
	// synchronously. A hit needs no worker, just a predicate pass over
	// the resident batch. On the steady-state hot path (every surviving
	// file already decoded) the scan completes here with no goroutines,
	// channels, or clock tracks at all; only cold files fall through to
	// the parallel fetch below.
	var cold []int
	for i, f := range files {
		skip, err := rd.Gate(&src, f)
		if err != nil {
			return nil, err
		}
		if skip {
			ctx.Stats.QuarantineSkips++
			continue
		}
		b, ok := rd.Resident(&src, f, cols)
		if !ok {
			cold = append(cold, i)
			continue
		}
		var fsp *obs.Span
		if ctx.Span != nil {
			fsp = ctx.Span.Child("read " + f.Key)
			fsp.SetInt("bytes", f.Size)
			fsp.SetStr("cache", "hit")
		}
		sel, err := scan.Select(ctx.mem.Al, b, cols, preds, f.Partition, t.Schema)
		if err != nil {
			fsp.End()
			return nil, err
		}
		fsp.SetInt("rows", int64(sel.N))
		fsp.End()
		results[i] = sel
		ctx.Stats.CacheHits++
	}
	if len(cold) > 0 {
		if err := e.readColdFiles(ctx, rd, src, files, cold, results, cols, preds); err != nil {
			return nil, err
		}
	}

	// One sized pass drawing from the query arena: each surviving value
	// is copied once, from its file's (cached) decode straight into the
	// merged column; dictionary columns stay encoded.
	out, err := vector.FilterConcatWith(ctx.mem, results)
	if err != nil {
		return nil, err
	}
	if out == nil {
		out = vector.EmptyBatch(cols.Project(t.Schema))
	}
	ctx.Stats.FilesScanned += int64(len(files))
	for _, f := range files {
		ctx.Stats.BytesScanned += f.Size
	}
	ctx.Stats.RowsScanned += int64(out.N)
	return out, nil
}

// readColdFiles reads the files the warm pass could not serve from the
// scan cache, in parallel worker tracks. rd and src arrive by value:
// the workers share them, and the warm pass's copies stay off the heap.
func (e *Engine) readColdFiles(ctx *QueryContext, rd scan.Reader, src scan.Source, files []bigmeta.FileEntry, cold []int, results []vector.Selection, cols scan.Columns, preds []colfmt.Predicate) error {
	workers := ScanWorkers
	if len(cold) < workers {
		workers = len(cold)
	}
	outcomes := make([]scan.Outcome, len(cold))
	tracks := startTracks(e.Clock, workers)
	var wg sync.WaitGroup
	errs := make(chan error, len(cold))
	sem := make(chan struct{}, workers)
	for w, fi := range cold {
		wg.Add(1)
		go func(w, i int, f bigmeta.FileEntry) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			tr := tracks[w%workers]
			var fsp *obs.Span
			if ctx.Span != nil {
				fsp = ctx.Span.ChildAt(tr, "read "+f.Key)
				fsp.SetLane(w % workers)
				fsp.SetInt("bytes", f.Size)
			}
			defer fsp.End()

			sel, oc, err := rd.ReadBatch(tr, &src, f, cols, ctx.mem.Al, preds)
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
				errs <- err
				return
			}
			outcomes[w] = oc
			results[i] = sel
		}(w, fi, files[fi])
	}
	wg.Wait()
	// Join tracks before any error return so sim tracks never leak.
	joinTracks(tracks)
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
	return drainErrs(errs)
}

// drainErrs closes the worker error channel and joins every error the
// pool reported — not just the first — so multi-file failures surface
// completely.
func drainErrs(errs chan error) error {
	close(errs)
	var all []error
	for err := range errs {
		all = append(all, err)
	}
	return errors.Join(all...)
}

// scanObjectTable materializes an Object table: the metadata cache
// itself is the data source (§4.1) — each cached object becomes a row.
func (e *Engine) scanObjectTable(ctx *QueryContext, t catalog.Table) (*vector.Batch, error) {
	store, err := e.store(t.Cloud)
	if err != nil {
		return nil, err
	}
	cred, err := e.credForCtx(ctx, t)
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
	return bl.Build(), nil
}

func startTracks(clock *sim.Clock, n int) []*sim.Track {
	tracks := make([]*sim.Track, n)
	for i := range tracks {
		tracks[i] = clock.StartTrack()
	}
	return tracks
}

func joinTracks(tracks []*sim.Track) {
	for _, tr := range tracks {
		tr.Join()
	}
}

// qualifyBatch prefixes every column with "qual." for multi-table
// resolution.
func qualifyBatch(b *vector.Batch, qual string) *vector.Batch {
	fields := make([]vector.Field, len(b.Schema.Fields))
	for i, f := range b.Schema.Fields {
		fields[i] = vector.Field{Name: qual + "." + f.Name, Type: f.Type}
	}
	return &vector.Batch{Schema: vector.Schema{Fields: fields}, Cols: b.Cols, N: b.N}
}

// pushdownPreds extracts `col op literal` conjuncts from a WHERE tree
// that reference the given table qualifier (or are unqualified when
// the query has a single table). It is a best-effort extraction: the
// full predicate is always re-checked after the scan.
func pushdownPreds(where sqlparse.Expr, qualifier string, single bool) []colfmt.Predicate {
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
		op, ok := cmpOpMap[bin.Op]
		if !ok {
			return
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
			return
		}
		if ref.Table != "" && ref.Table != qualifier {
			return
		}
		if ref.Table == "" && !single {
			return
		}
		out = append(out, colfmt.Predicate{Column: ref.Name, Op: op, Value: lit.Value})
	}
	if where != nil {
		walk(where)
	}
	return out
}
