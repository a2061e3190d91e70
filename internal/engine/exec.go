package engine

import (
	"fmt"
	"sort"
	"strings"

	"biglake/internal/colfmt"
	"biglake/internal/obs"
	"biglake/internal/sqlparse"
	"biglake/internal/vector"
)

// execSelect runs a SELECT statement to completion.
func (e *Engine) execSelect(ctx *QueryContext, sel *sqlparse.SelectStmt) (*vector.Batch, error) {
	r, where, err := e.execFromClause(ctx, sel)
	if err != nil {
		return nil, err
	}

	// Residual WHERE: every conjunct the scans did not enforce exactly.
	if where != nil {
		var fsp *obs.Span
		if ctx.Span != nil {
			fsp = ctx.Span.Child("filter")
			fsp.SetInt("in_rows", int64(r.rows()))
		}
		joined, err := e.materialize(ctx, r)
		var mask []bool
		if err == nil {
			mask, err = e.evalBool(ctx, joined, where)
		}
		if err == nil {
			joined, err = vector.FilterWith(ctx.mem, joined, mask)
		}
		if err != nil {
			fsp.End()
			return nil, err
		}
		r = batchRel(joined)
		if fsp != nil {
			fsp.SetInt("rows", int64(joined.N))
		}
		fsp.End()
	}

	// Aggregation vs plain projection. A projection of columns stays the
	// input's pieces: ORDER BY reads them there, and the output is
	// copied once — all of it with no ORDER BY, the rows it keeps with
	// one.
	var out sorted      // the output before ORDER BY
	var b *vector.Batch // the output
	if aggregates(sel) {
		var asp *obs.Span
		if ctx.Span != nil {
			asp = ctx.Span.Child("aggregate")
			asp.SetInt("in_rows", int64(r.rows()))
			asp.SetInt("workers", int64(e.execWorkers()))
		}
		b, err = e.execAggregate(ctx, sel, r, asp)
		if asp != nil && err == nil {
			asp.SetInt("groups", int64(b.N))
			asp.SetInt("rows", int64(b.N))
		}
		asp.End()
		if err == nil && len(sel.OrderBy) > 0 {
			out = outputOf(b)
		}
	} else {
		var psp *obs.Span
		if ctx.Span != nil {
			psp = ctx.Span.Child("project")
			psp.SetInt("in_rows", int64(r.rows()))
		}
		out, err = e.execProject(ctx, sel, r)
		if err == nil && len(sel.OrderBy) == 0 {
			if b, err = e.materialize(ctx, out.r); err == nil {
				b = pick(b, out.schema, out.cols)
			}
		}
		if psp != nil && err == nil {
			psp.SetInt("rows", int64(out.r.rows()))
		}
		psp.End()
	}
	if err != nil {
		return nil, err
	}

	if len(sel.OrderBy) > 0 {
		// LIMIT pushes below ORDER BY: a bounded top-K selection
		// replaces the full sort when both are present.
		limit := -1
		if sel.Limit >= 0 {
			limit = int(sel.Limit)
		}
		var osp *obs.Span
		if ctx.Span != nil {
			osp = ctx.Span.Child("order_by")
			osp.SetInt("in_rows", int64(out.r.rows()))
			if limit >= 0 {
				osp.SetInt("limit", int64(limit))
			}
		}
		b, err = e.execOrderBy(ctx, sel, out, r, limit)
		if osp != nil && err == nil {
			osp.SetInt("rows", int64(b.N))
		}
		osp.End()
		if err != nil {
			return nil, err
		}
	}
	if sel.Limit >= 0 && int64(b.N) > sel.Limit {
		// Column prefix slice: LIMIT costs O(columns), not O(N).
		b = vector.SliceBatch(b, 0, int(sel.Limit))
	}
	return b, nil
}

// sorted is a statement's output before ORDER BY: its columns are the
// columns cols of the relation r, named by schema. A projection of
// columns leaves r the input itself; otherwise r is the output batch.
type sorted struct {
	r      rel
	schema vector.Schema
	cols   []int
	input  bool // r is the statement's input relation
}

// outputOf is the output batch b as a sorted output.
func outputOf(b *vector.Batch) sorted {
	cols := make([]int, b.Schema.Len())
	for i := range cols {
		cols[i] = i
	}
	return sorted{r: batchRel(b), schema: b.Schema, cols: cols}
}

// aggregates reports whether sel groups or aggregates its rows.
func aggregates(sel *sqlparse.SelectStmt) bool {
	for _, item := range sel.Items {
		if !item.Star && sqlparse.IsAggregate(item.Expr) {
			return true
		}
	}
	return len(sel.GroupBy) > 0
}

// execFromClause evaluates the FROM clause (including joins) into one
// qualified relation, and returns the residual of sel's WHERE: the
// conjuncts its scans did not enforce exactly (nil: none). With no
// FROM, a single empty row is produced so constant expressions
// evaluate.
func (e *Engine) execFromClause(ctx *QueryContext, sel *sqlparse.SelectStmt) (rel, sqlparse.Expr, error) {
	if sel.From == nil {
		one := vector.MustBatch(vector.NewSchema(vector.Field{Name: "__one", Type: vector.Int64}),
			[]*vector.Column{vector.NewInt64Column([]int64{0})})
		return batchRel(one), sel.Where, nil
	}

	single := len(sel.Joins) == 0
	qualify := !single || sel.From.Alias != ""

	type source struct {
		ref  *sqlparse.TableRef
		join *sqlparse.Join // nil for the leading table
	}
	sources := []source{{ref: sel.From}}
	for i := range sel.Joins {
		sources = append(sources, source{ref: sel.Joins[i].Table, join: &sel.Joins[i]})
	}

	// Stats-based scan ordering for DPP: execute the most selective /
	// smallest sources first so their join keys can prune the big fact
	// scan. We estimate with cached table statistics when available.
	rels := make([]rel, len(sources))
	var buf [8]sqlparse.Expr
	conj := conjuncts(sel.Where, buf[:0])
	al := ctx.mem.Allocator()
	order := e.scanOrder(al, conj, sources[0].ref, sel.Joins)
	enforced := al.Bools(len(conj))
	limit := int64(-1)
	if single && len(sel.OrderBy) == 0 && !aggregates(sel) {
		limit = sel.Limit
	}

	// dppRanges accumulates join-key ranges learned from executed
	// sides, keyed by "qual.col" of the not-yet-executed side.
	dppRanges := map[string][2]vector.Value{}
	// canPrune reports whether a table scan still to come could take a
	// range on the named source; capturing one for anything else (a
	// source already scanned — always the case after the last scan — or
	// a subquery or TVF, which take no pushdown) is a wasted pass.
	scanned := make([]bool, len(sources))
	canPrune := func(name string) bool {
		for i, src := range sources {
			if !scanned[i] && src.ref.Name != "" && src.ref.DisplayName() == name {
				return true
			}
		}
		return false
	}

	for _, idx := range order {
		src := sources[idx]
		nullable := src.join != nil && src.join.Kind == sqlparse.LeftJoin
		pd := pushdownFor(al, conj, src.ref.DisplayName(), single, enforced, nullable, limit)
		if e.Opts.EnableDPP {
			pd.preds = append(pd.preds, e.dppPredsFor(src.ref, sel, dppRanges)...)
		}
		r, err := e.execTableRef(ctx, sel, src.ref, &pd)
		if err != nil {
			return rel{}, nil, err
		}
		if qualify {
			r.schema = qualifySchema(r.schema, src.ref.DisplayName())
		}
		rels[idx] = r
		scanned[idx] = true
		if e.Opts.EnableDPP {
			e.recordDPPRanges(ctx, sel, src.ref, r, dppRanges, canPrune)
		}
	}

	// Fold joins left-to-right.
	out := rels[0]
	for i := range sel.Joins {
		var err error
		out, err = e.hashJoin(ctx, sel, i, out, rels[i+1])
		if err != nil {
			return rel{}, nil, err
		}
	}
	return out, residual(sel.Where, conj, enforced), nil
}

// residual is where without the conjuncts conj (its own) that enforced
// marks: where itself when none is marked, nil when every one is.
func residual(where sqlparse.Expr, conj []sqlparse.Expr, enforced []bool) sqlparse.Expr {
	var out sqlparse.Expr
	dropped := false
	for k, c := range conj {
		switch {
		case enforced[k]:
			dropped = true
		case out == nil:
			out = c
		default:
			out = sqlparse.Binary{Op: "AND", L: out, R: c}
		}
	}
	if !dropped {
		return where
	}
	return out
}

// scanOrder returns source indices ordered so that sources with
// explicit literal filters run before unfiltered ones (dimension
// tables before facts), enabling dynamic partition pruning.
func (e *Engine) scanOrder(al vector.Alloc, conj []sqlparse.Expr, from *sqlparse.TableRef, joins []sqlparse.Join) []int {
	n := 1 + len(joins)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	if !e.Opts.EnableDPP || n == 1 {
		return order
	}
	single := false
	filtered := func(ref *sqlparse.TableRef) bool {
		return len(pushdownFor(al, conj, ref.DisplayName(), single, nil, false, -1).preds) > 0
	}
	refAt := func(i int) *sqlparse.TableRef {
		if i == 0 {
			return from
		}
		return joins[i-1].Table
	}
	sort.SliceStable(order, func(a, b int) bool {
		fa, fb := filtered(refAt(order[a])), filtered(refAt(order[b]))
		return fa && !fb
	})
	return order
}

// recordDPPRanges captures min/max of join keys on the just-executed
// side of each join — over its surviving rows, piece by piece — for the
// later scans canPrune names.
func (e *Engine) recordDPPRanges(ctx *QueryContext, sel *sqlparse.SelectStmt, executed *sqlparse.TableRef, r rel, ranges map[string][2]vector.Value, canPrune func(string) bool) {
	for _, j := range sel.Joins {
		pairs := equiPairs(j.On)
		for _, pr := range pairs {
			var mine, other sqlparse.ColumnRef
			switch executed.DisplayName() {
			case pr[0].Table:
				mine, other = pr[0], pr[1]
			case pr[1].Table:
				mine, other = pr[1], pr[0]
			default:
				continue
			}
			// A LEFT JOIN preserves every row of its left side:
			// unmatched rows must surface null-extended, so a key
			// range learned elsewhere may only prune the joined
			// (right) table — never the preserved side.
			if j.Kind == sqlparse.LeftJoin && other.Table != j.Table.DisplayName() {
				continue
			}
			if !canPrune(other.Table) {
				continue
			}
			i, err := resolveColumn(r.schema, mine)
			if err != nil {
				continue
			}
			ctx.Stats.DPPCaptures++
			// Each piece's range is a task; they fold in piece order, so
			// the first of equal values is kept, as over one batch.
			bounds := make([][2]vector.Value, len(r.pieces))
			big := 0
			for _, p := range r.pieces {
				if p.N >= vector.MorselRows {
					big++
				}
			}
			vector.ParallelEach(len(r.pieces), vector.TaskWorkers(e.execWorkers(), big), func(k int) {
				p := r.pieces[k]
				bounds[k][0], bounds[k][1], _ = vector.MinMax(p.Batch.Cols[i], p.Rows(0, p.N))
			})
			var min, max vector.Value
			for _, rg := range bounds {
				if lo := rg[0]; !lo.IsNull() && (min.IsNull() || below(lo, min)) {
					min = lo
				}
				if hi := rg[1]; !hi.IsNull() && (max.IsNull() || below(max, hi)) {
					max = hi
				}
			}
			if min.IsNull() {
				continue
			}
			key := other.Table + "." + other.Name
			ranges[key] = [2]vector.Value{min, max}
		}
	}
}

// below reports whether a sorts strictly before b, two non-NULL values
// of one column: integers exactly, as MinMax ranges them.
func below(a, b vector.Value) bool {
	switch a.Type {
	case vector.Int64, vector.Timestamp:
		return a.I < b.I
	case vector.Float64:
		return a.F < b.F
	}
	return a.Compare(b) < 0
}

// dppPredsFor converts recorded join-key ranges into pushdown
// predicates for a table about to be scanned.
func (e *Engine) dppPredsFor(ref *sqlparse.TableRef, sel *sqlparse.SelectStmt, ranges map[string][2]vector.Value) []colfmt.Predicate {
	var out []colfmt.Predicate
	for key, r := range ranges {
		i := strings.LastIndexByte(key, '.')
		tbl, col := key[:i], key[i+1:]
		if tbl != ref.DisplayName() {
			continue
		}
		out = append(out,
			colfmt.Predicate{Column: col, Op: vector.GE, Value: r[0]},
			colfmt.Predicate{Column: col, Op: vector.LE, Value: r[1]},
		)
	}
	return out
}

// equiPairs extracts column-equality pairs from a join condition.
func equiPairs(on sqlparse.Expr) [][2]sqlparse.ColumnRef {
	var out [][2]sqlparse.ColumnRef
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
		if bin.Op != "=" {
			return
		}
		l, lok := bin.L.(sqlparse.ColumnRef)
		r, rok := bin.R.(sqlparse.ColumnRef)
		if lok && rok {
			out = append(out, [2]sqlparse.ColumnRef{l, r})
		}
	}
	walk(on)
	return out
}

// execTableRef evaluates one FROM source of sel. A table is read for
// the columns sel names, under pd (nil: no predicates); a subquery
// projects itself, and a TVF's input (sel nil) is read whole. Only a
// table scan enforces any of pd exactly.
func (e *Engine) execTableRef(ctx *QueryContext, sel *sqlparse.SelectStmt, ref *sqlparse.TableRef, pd *pushdown) (rel, error) {
	var b *vector.Batch
	var err error
	switch {
	case ref.TVF != nil:
		fn, ok := e.tvf(ref.TVF.Name)
		if !ok {
			return rel{}, fmt.Errorf("%w: %s", ErrNoSuchFunc, ref.TVF.Name)
		}
		var input rel
		if input, err = e.execTableRef(ctx, nil, ref.TVF.Input, nil); err != nil {
			return rel{}, err
		}
		var in *vector.Batch
		if in, err = e.materialize(ctx, input); err != nil {
			return rel{}, err
		}
		b, err = fn(ctx, ref.TVF.Model, in)
	case ref.Subquery != nil:
		b, err = e.execSelect(ctx, ref.Subquery)
	case ref.Name != "":
		return e.scanTable(ctx, sel, ref, pd)
	default:
		return rel{}, fmt.Errorf("%w: empty table reference", ErrSemantic)
	}
	if err != nil {
		return rel{}, err
	}
	return batchRel(b), nil
}

// hashJoin executes sel's join i between the left and right qualified
// relations. The build (right) side is materialized; the probe reads
// the left side's keys through its pieces. When every left row matched
// exactly one right row the left side passes on as the same pieces —
// its columns not copied — each piece's batch extended by the build
// columns gathered into the piece's own rows; so, as for a scan, the
// result may alias a shared immutable batch and nothing downstream may
// write through it. Otherwise the left side is materialized and both
// sides gathered. Of the build side only the columns read after the
// join are gathered (readAfterJoin); the others leave the schema.
func (e *Engine) hashJoin(ctx *QueryContext, sel *sqlparse.SelectStmt, i int, left, right rel) (out rel, err error) {
	j := sel.Joins[i]
	var sp *obs.Span
	if ctx.Span != nil {
		sp = ctx.Span.Child("join")
		sp.SetInt("left_rows", int64(left.rows()))
		sp.SetInt("right_rows", int64(right.rows()))
		sp.SetInt("workers", int64(e.execWorkers()))
		defer func() {
			if err == nil {
				sp.SetInt("rows", int64(out.rows()))
			}
			sp.End()
		}()
	}
	pairs := equiPairs(j.On)
	if len(pairs) == 0 {
		return rel{}, fmt.Errorf("%w: JOIN requires at least one column equality, got %s", ErrUnsupported, j.On)
	}
	var leftKeys, rightKeys []int
	for _, pr := range pairs {
		a, b := pr[0], pr[1]
		li, errA := resolveColumn(left.schema, a)
		if errA != nil {
			// a belongs to the right side; swap the pair.
			var err error
			li, err = resolveColumn(left.schema, b)
			if err != nil {
				return rel{}, fmt.Errorf("%w: join key %s matches neither side", ErrSemantic, b)
			}
			b = a
		}
		ri, err := resolveColumn(right.schema, b)
		if err != nil {
			return rel{}, err
		}
		leftKeys = append(leftKeys, li)
		rightKeys = append(rightKeys, ri)
	}

	kind := vector.InnerJoin
	if j.Kind == sqlparse.LeftJoin {
		kind = vector.LeftOuterJoin
	}
	rb, err := e.materialize(ctx, right)
	if err != nil {
		return rel{}, err
	}
	workers := e.execWorkers()
	res, err := vector.HashJoinWith(ctx.mem, left.pieces, rb, leftKeys, rightKeys, kind, workers)
	if err != nil {
		return rel{}, err
	}

	fields := append([]vector.Field(nil), left.schema.Fields...)
	build := rb.Cols
	if read := readAfterJoin(sel, i, right.schema); read != nil {
		build = nil
		for k, f := range right.schema.Fields {
			if read[k] {
				fields = append(fields, f)
				build = append(build, rb.Cols[k])
			}
		}
	} else {
		fields = append(fields, right.schema.Fields...)
	}
	schema := vector.Schema{Fields: fields}
	sp.SetStr("strategy", res.Strategy.String())
	sp.SetInt("build_cols", int64(len(build)))
	if res.LeftIdentity {
		sp.SetInt("passthrough_cols", int64(len(left.schema.Fields)))
		return rel{schema: schema, pieces: vector.Extend(ctx.mem, left.pieces, build, res.Right, schema, workers)}, nil
	}
	sp.SetInt("passthrough_cols", 0)

	// Output rows: matched pairs in probe order, then the null-extended
	// unmatched left rows (right index -1 = NULL). Only that second part
	// needs an index of its own built.
	lb, err := e.materialize(ctx, left)
	if err != nil {
		return rel{}, err
	}
	leftIdx, rightIdx := res.Left, res.Right
	if nOuter := len(res.LeftOuter); nOuter > 0 {
		al := ctx.mem.Allocator()
		nOut := len(res.Left) + nOuter
		leftIdx = al.Int32s(nOut)
		copy(leftIdx[copy(leftIdx, res.Left):], res.LeftOuter)
		rightIdx = al.Int32s(nOut)
		for i := copy(rightIdx, res.Right); i < nOut; i++ {
			rightIdx[i] = -1
		}
	}
	cols := make([]*vector.Column, len(lb.Cols)+len(build))
	vector.GatherNullColsWith(ctx.mem, cols, lb.Cols, leftIdx, workers)
	vector.GatherNullColsWith(ctx.mem, cols[len(lb.Cols):], build, rightIdx, workers)
	b, err := vector.NewBatch(schema, cols)
	if err != nil {
		return rel{}, err
	}
	return batchRel(b), nil
}

// readAfterJoin reports, per column of schema (join i's build side),
// whether sel reads it after that join — in its select list, WHERE,
// GROUP BY, ORDER BY or a later join's condition — by its qualified
// name or, unqualified, by its bare one, as resolveColumn would find it.
// A `*`, or an expression it cannot classify, reads every column (nil).
func readAfterJoin(sel *sqlparse.SelectStmt, i int, schema vector.Schema) []bool {
	read := make([]bool, schema.Len())
	if !stmtRefs(sel, i+1, func(r sqlparse.ColumnRef) {
		for k, f := range schema.Fields {
			if r.Table != "" {
				read[k] = read[k] || f.Name == r.Table+"."+r.Name
			} else {
				read[k] = read[k] || f.Name == r.Name || strings.HasSuffix(f.Name, "."+r.Name)
			}
		}
	}) {
		return nil
	}
	return read
}

// execProject evaluates the projection list over in. A list of columns
// (and `*`) leaves the rows in in's pieces, naming the columns it takes;
// an expression is evaluated over in materialized (exprColumns).
func (e *Engine) execProject(ctx *QueryContext, sel *sqlparse.SelectStmt, in rel) (sorted, error) {
	x := exprColumns{e: e, ctx: ctx, in: in}
	var fields []vector.Field
	var cols []int
	for pos, item := range sel.Items {
		if item.Star {
			for i, f := range in.schema.Fields {
				if f.Name == "__one" {
					continue
				}
				name := f.Name
				if i2 := strings.LastIndexByte(name, '.'); i2 >= 0 && in.schema.Index(name[i2+1:]) < 0 {
					// Unqualify when unambiguous for readable output.
					bare := name[i2+1:]
					conflict := false
					for k, other := range in.schema.Fields {
						if k != i && strings.HasSuffix(other.Name, "."+bare) {
							conflict = true
						}
					}
					if !conflict {
						name = bare
					}
				}
				fields = append(fields, vector.Field{Name: name, Type: f.Type})
				cols = append(cols, i)
			}
			continue
		}
		i, err := x.column(item.Expr)
		if err != nil {
			return sorted{}, err
		}
		r := x.rel()
		fields = append(fields, vector.Field{Name: outputName(item, pos), Type: r.col(i).Type})
		cols = append(cols, i)
	}
	return sorted{r: x.rel(), schema: vector.Schema{Fields: fields}, cols: cols, input: true}, nil
}

// exprColumns resolves expressions to columns of the relation in: a
// column reference to its own column, any other expression to a column
// evaluated over in materialized (ext), after in's columns — the
// relation the columns then index being that one batch.
type exprColumns struct {
	e   *Engine
	ctx *QueryContext
	in  rel
	ext *vector.Batch
}

// column returns the column of x.rel() that expr reads.
func (x *exprColumns) column(expr sqlparse.Expr) (int, error) {
	if ref, ok := expr.(sqlparse.ColumnRef); ok {
		return resolveColumn(x.in.schema, ref)
	}
	if x.ext == nil {
		b, err := x.e.materialize(x.ctx, x.in)
		if err != nil {
			return 0, err
		}
		x.ext = &vector.Batch{Schema: b.Schema, Cols: b.Cols[:len(b.Cols):len(b.Cols)], N: b.N}
	}
	c, err := x.e.evalExpr(x.ctx, x.ext, expr)
	if err != nil {
		return 0, err
	}
	x.ext.Cols = append(x.ext.Cols, c)
	x.ext.Schema.Fields = append(x.ext.Schema.Fields[:len(x.ext.Schema.Fields):len(x.ext.Schema.Fields)], vector.Field{Name: expr.String(), Type: c.Type})
	return len(x.ext.Cols) - 1, nil
}

// rel returns the relation x's columns index.
func (x *exprColumns) rel() rel {
	if x.ext == nil {
		return x.in
	}
	return batchRel(x.ext)
}

// execAggregate evaluates GROUP BY / aggregate queries over in; sp (nil
// when untraced) is the aggregate span, told which grouping kernel ran.
// Group keys and aggregate arguments that are columns are read in in's
// pieces; with an expression among them the grouping reads in
// materialized, the expression's column beside it (exprColumns).
func (e *Engine) execAggregate(ctx *QueryContext, sel *sqlparse.SelectStmt, in rel, sp *obs.Span) (*vector.Batch, error) {
	x := exprColumns{e: e, ctx: ctx, in: in}
	// Group key columns.
	keyIdx := make([]int, len(sel.GroupBy))
	for i, g := range sel.GroupBy {
		k, err := x.column(g)
		if err != nil {
			return nil, err
		}
		keyIdx[i] = k
	}

	// Resolve aggregate argument expressions once over the whole input.
	// Select lists are a handful of items, so the dedup tables here (and
	// below) are linear slices, not maps — the same lookup cost at this
	// width without a per-query map allocation.
	type argCol struct {
		key string
		col int
	}
	var argCols []argCol
	findArg := func(key string) int {
		for _, a := range argCols {
			if a.key == key {
				return a.col
			}
		}
		return -1
	}
	var prepare func(expr sqlparse.Expr) error
	prepare = func(expr sqlparse.Expr) error {
		call, ok := expr.(sqlparse.Call)
		if !ok || !sqlparse.AggregateFuncs[call.Name] {
			return nil
		}
		if call.Star || len(call.Args) == 0 {
			return nil
		}
		key := call.Args[0].String()
		if findArg(key) >= 0 {
			return nil
		}
		c, err := x.column(call.Args[0])
		if err != nil {
			return err
		}
		argCols = append(argCols, argCol{key: key, col: c})
		return nil
	}
	for _, item := range sel.Items {
		if item.Star {
			return nil, fmt.Errorf("%w: SELECT * with GROUP BY", ErrUnsupported)
		}
		if err := prepare(item.Expr); err != nil {
			return nil, err
		}
	}
	in = x.rel()
	keyCols := make([]*vector.Column, len(keyIdx))
	for i, k := range keyIdx {
		keyCols[i] = in.col(k)
	}

	workers := e.execWorkers()
	grouping := vector.GroupKeysWith(ctx.mem, in.pieces, keyCols, workers)
	sp.SetStr("grouping", grouping.Strategy.String())

	// Classify select items into aggregate specs (deduplicated; AVG
	// decomposes into SUM + COUNT) and group-key references. Errors are
	// deferred to match the oracle's row-at-a-time semantics: with zero
	// groups no item is ever evaluated, so nothing can fail.
	groupKeys := newGroupKeyNames(sel)
	type itemPlan struct {
		specA  int // primary spec (-1 = group key reference)
		specB  int // COUNT spec for AVG, else -1
		keyIdx int
	}
	var specs []vector.AggSpec
	addSpec := func(kind vector.AggKind, col *vector.Column) int {
		for i, sp := range specs {
			if sp.Kind == kind && sp.Col == col {
				return i
			}
		}
		specs = append(specs, vector.AggSpec{Kind: kind, Col: col})
		return len(specs) - 1
	}
	plans := make([]itemPlan, len(sel.Items))
	var itemErr error
	for i, item := range sel.Items {
		plans[i] = itemPlan{specA: -1, specB: -1, keyIdx: -1}
		classify := func() error {
			if call, ok := item.Expr.(sqlparse.Call); ok && sqlparse.AggregateFuncs[call.Name] {
				if call.Name == "COUNT" && (call.Star || len(call.Args) == 0) {
					plans[i].specA = addSpec(vector.AggCount, nil)
					return nil
				}
				if len(call.Args) != 1 {
					return fmt.Errorf("%w: %s expects one argument", ErrSemantic, call.Name)
				}
				arg := findArg(call.Args[0].String())
				if arg < 0 {
					return fmt.Errorf("%w: aggregate argument %s not prepared", ErrSemantic, call.Args[0])
				}
				col := in.col(arg)
				switch call.Name {
				case "COUNT":
					plans[i].specA = addSpec(vector.AggCount, col)
				case "SUM":
					plans[i].specA = addSpec(vector.AggSum, col)
				case "MIN":
					plans[i].specA = addSpec(vector.AggMin, col)
				case "MAX":
					plans[i].specA = addSpec(vector.AggMax, col)
				case "AVG":
					plans[i].specA = addSpec(vector.AggSum, col)
					plans[i].specB = addSpec(vector.AggCount, col)
				default:
					return fmt.Errorf("%w: aggregate %s", ErrUnsupported, call.Name)
				}
				return nil
			}
			if k := groupKeys.index(item.Expr); k >= 0 {
				plans[i].keyIdx = k
				return nil
			}
			return fmt.Errorf("%w: %s must appear in GROUP BY or an aggregate", ErrSemantic, item.Expr)
		}
		if err := classify(); err != nil && itemErr == nil {
			itemErr = err
		}
	}
	if grouping.NumGroups > 0 && itemErr != nil {
		return nil, itemErr
	}

	results := vector.GroupAggregateWith(ctx.mem, in.pieces, grouping.IDs, grouping.NumGroups, specs, workers)

	// One typed column per select item: an aggregate's is its spec's, a
	// group key's is the key column at each group's first-encounter row
	// (the keys' first rows copied once, however many items name them).
	var keyOut []*vector.Column
	for _, p := range plans {
		if p.keyIdx >= 0 {
			keyOut = take(ctx, in, grouping.Rep, keyIdx)
			for i, c := range keyOut {
				keyOut[i] = c.Decode()
			}
			break
		}
	}
	fields := make([]vector.Field, len(sel.Items))
	cols := make([]*vector.Column, len(sel.Items))
	for i, item := range sel.Items {
		var c *vector.Column
		switch p := plans[i]; {
		case p.specB >= 0:
			c = avgColumn(ctx.mem, results[p.specA], results[p.specB])
		case p.specA >= 0:
			c = results[p.specA]
		case p.keyIdx >= 0:
			// Decoded: a result's encoding shows (egress accounting
			// charges a Dict column its whole dictionary), and group
			// keys have always left here plain.
			c = keyOut[p.keyIdx]
		}
		c = vector.AggOutput(ctx.mem, c, grouping.NumGroups)
		fields[i] = vector.Field{Name: outputName(item, i), Type: c.Type}
		cols[i] = c
	}
	return &vector.Batch{Schema: vector.Schema{Fields: fields}, Cols: cols, N: grouping.NumGroups}, nil
}

// groupKeyNames holds, per GROUP BY expression, its rendering and (for
// a column reference) its bare name: the two spellings a select item
// may use for it.
type groupKeyNames struct {
	rendered, bare []string
}

func newGroupKeyNames(sel *sqlparse.SelectStmt) groupKeyNames {
	n := len(sel.GroupBy)
	names := make([]string, 2*n)
	g := groupKeyNames{rendered: names[:n], bare: names[n:]}
	for i, expr := range sel.GroupBy {
		g.rendered[i] = expr.String()
		if ref, ok := expr.(sqlparse.ColumnRef); ok {
			g.bare[i] = ref.Name // allow unqualified reuse
		}
	}
	return g
}

// index returns the position of the GROUP BY key a select item names
// (-1 if none): by the item's rendering, else by a column reference's
// bare name. Where several keys answer to one spelling the last wins.
func (g groupKeyNames) index(item sqlparse.Expr) int {
	find := func(name string) int {
		for i := len(g.rendered) - 1; i >= 0; i-- {
			if g.rendered[i] == name || g.bare[i] == name {
				return i
			}
		}
		return -1
	}
	if k := find(item.String()); k >= 0 {
		return k
	}
	if ref, ok := item.(sqlparse.ColumnRef); ok {
		return find(ref.Name)
	}
	return -1
}

// avgColumn is SUM / COUNT per group: NULL where the sum is (no non-NULL
// input), Float64 otherwise.
func avgColumn(m vector.Mem, sum, cnt *vector.Column) *vector.Column {
	al := m.Allocator()
	out := &vector.Column{Type: vector.Float64, Len: sum.Len, Enc: vector.Plain, Floats: al.Float64s(sum.Len), Pooled: m.Pooled()}
	for g, n := range cnt.Ints {
		switch {
		case n == 0 || (sum.Nulls != nil && sum.Nulls[g]):
			if out.Nulls == nil {
				out.Nulls = al.Bools(sum.Len)
			}
			out.Nulls[g] = true
		case sum.Type == vector.Float64:
			out.Floats[g] = sum.Floats[g] / float64(n)
		default:
			out.Floats[g] = float64(sum.Ints[g]) / float64(n)
		}
	}
	return out
}

// execOrderBy sorts the statement's output out and returns its first
// limit rows (-1: all). ORDER BY keys may reference output aliases or
// input columns (in, the input rows). Keys that are columns of out's
// relation are read there — in the input's pieces, for a projection of
// columns — and only the rows the sort keeps are copied; an expression
// key is evaluated over the output materialized (or, failing that, over
// the input, when it has the output's rows). A non-negative limit
// bounds the sort to vector.TopK's selection — same result as the full
// stable sort followed by LIMIT, in O(N log K).
func (e *Engine) execOrderBy(ctx *QueryContext, sel *sqlparse.SelectStmt, out sorted, in rel, limit int) (*vector.Batch, error) {
	r, cols := out.r, out.cols
	keyCols := make([]int, len(sel.OrderBy))
	for i, item := range sel.OrderBy {
		k, ok := orderColumn(out, item.Expr)
		if !ok {
			var err error
			if r, cols, keyCols, err = e.orderExprs(ctx, sel, out, in); err != nil {
				return nil, err
			}
			break
		}
		keyCols[i] = k
	}
	// Each key is extracted once into typed slices, so a comparison is
	// two slice reads — not two encoding walks and two boxed Values.
	al := ctx.mem.Allocator()
	keys := make([]vector.SortKey, len(sel.OrderBy))
	for i, item := range sel.OrderBy {
		keys[i] = vector.ExtractSortKey(al, r.pieces, r.col(keyCols[i]), item.Desc)
	}
	// Strict total order: ORDER BY keys, then position — the order a
	// stable sort produces.
	k := r.rows()
	if limit >= 0 {
		k = limit
	}
	pos := vector.TopK(ctx.mem, r.pieces, keys, k)
	return &vector.Batch{Schema: out.schema, Cols: take(ctx, r, pos, cols), N: len(pos)}, nil
}

// orderColumn resolves an ORDER BY key that is a column of out's
// relation: an output column by its bare name (aliases and group keys,
// whose output names drop the table qualifier) or as a reference, else —
// for a projection of columns — an input column.
func orderColumn(out sorted, x sqlparse.Expr) (int, bool) {
	ref, ok := x.(sqlparse.ColumnRef)
	if !ok {
		return 0, false
	}
	if i := out.schema.Index(ref.Name); i >= 0 {
		return out.cols[i], true
	}
	if i, err := resolveColumn(out.schema, ref); err == nil {
		return out.cols[i], true
	}
	if out.input {
		if i, err := resolveColumn(out.r.schema, ref); err == nil {
			return i, true
		}
	}
	return 0, false
}

// orderExprs is execOrderBy's relation when a key is an expression: the
// output materialized, each key's column after its columns — an output
// column by its bare name, else the key evaluated over the output, or
// over the input when that fails and the input has the output's rows.
func (e *Engine) orderExprs(ctx *QueryContext, sel *sqlparse.SelectStmt, out sorted, in rel) (rel, []int, []int, error) {
	ob, err := e.materialize(ctx, out.r)
	if err != nil {
		return rel{}, nil, nil, err
	}
	ob = pick(ob, out.schema, out.cols)
	ext := ob.Cols[:len(ob.Cols):len(ob.Cols)]
	keyCols := make([]int, len(sel.OrderBy))
	var ib *vector.Batch
	for i, item := range sel.OrderBy {
		if ref, ok := item.Expr.(sqlparse.ColumnRef); ok {
			if idx := ob.Schema.Index(ref.Name); idx >= 0 {
				keyCols[i] = idx
				continue
			}
		}
		c, err := e.evalExpr(ctx, ob, item.Expr)
		if err != nil {
			if in.rows() != ob.N {
				return rel{}, nil, nil, err
			}
			if ib == nil {
				if ib, err = e.materialize(ctx, in); err != nil {
					return rel{}, nil, nil, err
				}
			}
			if c, err = e.evalExpr(ctx, ib, item.Expr); err != nil {
				return rel{}, nil, nil, err
			}
		}
		keyCols[i] = len(ext)
		ext = append(ext, c)
	}
	cols := make([]int, len(ob.Cols))
	for i := range cols {
		cols[i] = i
	}
	b := &vector.Batch{Schema: ob.Schema, Cols: ext, N: ob.N}
	return rel{schema: ob.Schema, pieces: []vector.Selection{vector.Whole(b)}}, cols, keyCols, nil
}

// --- DML dispatch ---

func (e *Engine) requireMutator(ctx *QueryContext) (Mutator, error) {
	if ctx.Mutator != nil {
		return ctx.Mutator, nil
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.mutator == nil {
		return nil, fmt.Errorf("%w: no DML handler configured", ErrUnsupported)
	}
	return e.mutator, nil
}

func (e *Engine) execInsert(ctx *QueryContext, ins *sqlparse.InsertStmt) (*Result, error) {
	m, err := e.requireMutator(ctx)
	if err != nil {
		return nil, err
	}
	if err := e.Auth.CheckWrite(ctx.Principal, ins.Table); err != nil {
		return nil, err
	}
	t, err := e.Catalog.Table(ins.Table)
	if err != nil {
		return nil, err
	}
	var rows *vector.Batch
	if ins.Select != nil {
		rows, err = e.execSelect(ctx, ins.Select)
		if err != nil {
			return nil, err
		}
	} else {
		cols := ins.Columns
		if len(cols) == 0 {
			for _, f := range t.Schema.Fields {
				cols = append(cols, f.Name)
			}
		}
		schema, err := t.Schema.Select(cols)
		if err != nil {
			return nil, err
		}
		builder := vector.NewBuilder(schema)
		for _, row := range ins.Rows {
			if len(row) != len(cols) {
				return nil, fmt.Errorf("%w: INSERT row arity %d != %d columns", ErrSemantic, len(row), len(cols))
			}
			vals := make([]vector.Value, len(row))
			for i, expr := range row {
				lit, ok := expr.(sqlparse.Literal)
				if !ok {
					return nil, fmt.Errorf("%w: INSERT VALUES must be literals", ErrUnsupported)
				}
				v := coerce(lit.Value, schema.Fields[i].Type)
				if !v.IsNull() && v.Type != schema.Fields[i].Type {
					return nil, fmt.Errorf("%w: value %s is %v, column %q is %v",
						ErrSemantic, v, v.Type, schema.Fields[i].Name, schema.Fields[i].Type)
				}
				vals[i] = v
			}
			builder.Append(vals...)
		}
		rows = builder.Build()
	}
	// The mutator may retain rows past this statement (a transaction
	// session buffers them until COMMIT), so detach any arena-backed
	// columns first.
	rows = vector.DetachBatch(rows)
	if err := m.Insert(ctx, ins.Table, rows); err != nil {
		return nil, err
	}
	return &Result{Batch: vector.EmptyBatch(t.Schema)}, nil
}

// coerce adapts a literal to a column type (int literals into float or
// timestamp columns).
func coerce(v vector.Value, t vector.Type) vector.Value {
	if v.IsNull() || v.Type == t {
		return v
	}
	switch t {
	case vector.Float64:
		if v.Type == vector.Int64 {
			return vector.FloatValue(float64(v.I))
		}
	case vector.Timestamp:
		if v.Type == vector.Int64 {
			return vector.TimestampValue(v.I)
		}
	case vector.Bytes:
		if v.Type == vector.String {
			return vector.Value{Type: vector.Bytes, S: v.S}
		}
	}
	return v
}

func (e *Engine) whereFunc(ctx *QueryContext, where sqlparse.Expr) func(*vector.Batch) ([]bool, error) {
	return func(b *vector.Batch) ([]bool, error) {
		if where == nil {
			mask := make([]bool, b.N)
			for i := range mask {
				mask[i] = true
			}
			return mask, nil
		}
		return e.evalBool(ctx, b, where)
	}
}

func (e *Engine) execDelete(ctx *QueryContext, del *sqlparse.DeleteStmt) (*Result, error) {
	m, err := e.requireMutator(ctx)
	if err != nil {
		return nil, err
	}
	if err := e.Auth.CheckWrite(ctx.Principal, del.Table); err != nil {
		return nil, err
	}
	n, err := m.Delete(ctx, del.Table, e.whereFunc(ctx, del.Where))
	if err != nil {
		return nil, err
	}
	out := vector.MustBatch(vector.NewSchema(vector.Field{Name: "rows_deleted", Type: vector.Int64}),
		[]*vector.Column{vector.NewInt64Column([]int64{n})})
	return &Result{Batch: out}, nil
}

func (e *Engine) execUpdate(ctx *QueryContext, upd *sqlparse.UpdateStmt) (*Result, error) {
	m, err := e.requireMutator(ctx)
	if err != nil {
		return nil, err
	}
	if err := e.Auth.CheckWrite(ctx.Principal, upd.Table); err != nil {
		return nil, err
	}
	set := func(b *vector.Batch) (*vector.Batch, error) {
		cols := append([]*vector.Column(nil), b.Cols...)
		for col, expr := range upd.Set {
			i := b.Schema.Index(col)
			if i < 0 {
				return nil, fmt.Errorf("%w: unknown column %q in UPDATE", ErrSemantic, col)
			}
			c, err := e.evalExpr(ctx, b, expr)
			if err != nil {
				return nil, err
			}
			if c.Type != b.Schema.Fields[i].Type {
				// Coerce literals (e.g. int into float column).
				dec := c.Decode()
				builder := vector.NewBuilder(vector.NewSchema(b.Schema.Fields[i]))
				for r := 0; r < dec.Len; r++ {
					builder.Append(coerce(dec.Value(r), b.Schema.Fields[i].Type))
				}
				c = builder.Build().Cols[0]
			}
			cols[i] = c
		}
		return vector.NewBatch(b.Schema, cols)
	}
	n, err := m.Update(ctx, upd.Table, set, e.whereFunc(ctx, upd.Where))
	if err != nil {
		return nil, err
	}
	out := vector.MustBatch(vector.NewSchema(vector.Field{Name: "rows_updated", Type: vector.Int64}),
		[]*vector.Column{vector.NewInt64Column([]int64{n})})
	return &Result{Batch: out}, nil
}

func (e *Engine) execCTAS(ctx *QueryContext, cta *sqlparse.CreateTableAsStmt) (*Result, error) {
	m, err := e.requireMutator(ctx)
	if err != nil {
		return nil, err
	}
	rows, err := e.execSelect(ctx, cta.Select)
	if err != nil {
		return nil, err
	}
	// Detach: the mutator may buffer rows (txn CTAS) and the Result
	// below outlives the query arena.
	rows = vector.DetachBatch(rows)
	if err := m.CreateTableAs(ctx, cta.Table, cta.OrReplace, rows); err != nil {
		return nil, err
	}
	return &Result{Batch: rows}, nil
}
