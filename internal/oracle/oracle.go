// Package oracle implements a deliberately slow, obviously-correct
// reference executor for the SQL subset the engine supports, plus a
// seeded query/DML generator and a differential harness that
// cross-checks every acceleration path (metadata caching, partition
// and file pruning, DPP, vectorized kernels, BLMT compaction, chaos
// retries) against this oracle.
//
// The executor interprets queries row-at-a-time over plain Go slices
// of vector.Value. It shares no code with the engine's scan, prune,
// cache or kernel layers: its only inputs are the parsed AST and the
// in-memory table rows, so any divergence between the two implicates
// the engine's fast paths, not a shared bug. Where the engine's
// semantics are deliberate (two-valued boolean logic with NULL
// treated as false, integer division producing float, NULL on divide
// by zero, first-encounter group ordering, NULLs-first sorting) the
// oracle mirrors them from the SQL semantics definition, not from the
// engine's code paths.
package oracle

import (
	"fmt"
	"math"
	"math/big"
	"sort"
	"strings"

	"biglake/internal/sqlparse"
	"biglake/internal/vector"
)

// Table is one in-memory reference table: a schema with bare column
// names and the authoritative row set.
type Table struct {
	Name   string // full "dataset.table" name
	Schema vector.Schema
	Rows   [][]vector.Value
}

// Clone deep-copies the table (rows are copied; values are value
// types already).
func (t *Table) Clone() *Table {
	rows := make([][]vector.Value, len(t.Rows))
	for i, r := range t.Rows {
		rows[i] = append([]vector.Value(nil), r...)
	}
	return &Table{Name: t.Name, Schema: t.Schema, Rows: rows}
}

// DB is the oracle's world: the set of reference tables DML mutates.
type DB struct {
	Tables map[string]*Table
}

// NewDB builds an empty oracle database.
func NewDB() *DB { return &DB{Tables: map[string]*Table{}} }

// Add installs a table (replacing any previous definition).
func (db *DB) Add(t *Table) { db.Tables[t.Name] = t }

// Clone deep-copies the database.
func (db *DB) Clone() *DB {
	out := NewDB()
	for _, t := range db.Tables {
		out.Add(t.Clone())
	}
	return out
}

// Governed returns the database as the restricted principal of the
// policies sees it — the reference for governance: per policy, only the
// table's rows every filter predicate holds on (a NULL holds on none),
// the masked column NULL in each — or, under MaskDefault, its type's
// zero value; under MaskLastFour, worked out here and not by
// vector.ApplyMask, the string's last four bytes after an X for each
// byte before them — the denied column gone. A table without a policy
// is shared as is.
func (db *DB) Governed(pols []GenPolicy) *DB {
	out := NewDB()
	for name, t := range db.Tables {
		out.Tables[name] = t
	}
	for _, pol := range pols {
		t, ok := db.Tables[pol.Table]
		if !ok {
			continue
		}
		masked, denied := t.Schema.Index(pol.Masked), t.Schema.Index(pol.Denied)
		g := &Table{Name: t.Name}
		for i, f := range t.Schema.Fields {
			if i != denied {
				g.Schema.Fields = append(g.Schema.Fields, f)
			}
		}
	rows:
		for _, row := range t.Rows {
			for _, p := range pol.Filter {
				v := row[t.Schema.Index(p.Column)]
				if v.IsNull() || !p.Op.Eval(v.Compare(p.Value)) {
					continue rows
				}
			}
			var seen []vector.Value
			for i, v := range row {
				switch i {
				case denied:
					continue
				case masked:
					switch pol.Mask {
					case vector.MaskDefault:
						// Type alone is the zero value: 0, 0.0, "", false.
						v = vector.Value{Type: t.Schema.Fields[i].Type}
					case vector.MaskLastFour:
						if n := len(v.S) - 4; n > 0 {
							v.S = strings.Repeat("X", n) + v.S[n:]
						}
					default:
						v = vector.NullValue
					}
				}
				seen = append(seen, v)
			}
			g.Rows = append(g.Rows, seen)
		}
		out.Tables[pol.Table] = g
	}
	return out
}

// Resultset is the oracle's answer to a statement: ordered rows with
// named, typed columns — the reference shape engine batches are
// compared against.
type Resultset struct {
	Names []string
	Types []vector.Type
	Rows  [][]vector.Value
}

// ExecSQL parses and executes one statement against the database.
func (db *DB) ExecSQL(sql string) (*Resultset, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	return db.Exec(stmt)
}

// Exec executes a parsed statement. SELECT returns its rows; DML
// mutates the database and returns the same result shape the engine
// reports (rows_deleted / rows_updated counts, empty batch for
// INSERT).
func (db *DB) Exec(stmt sqlparse.Statement) (*Resultset, error) {
	switch s := stmt.(type) {
	case *sqlparse.SelectStmt:
		r, err := db.execSelect(s)
		if err != nil {
			return nil, err
		}
		return r.toResultset(), nil
	case *sqlparse.InsertStmt:
		return db.execInsert(s)
	case *sqlparse.DeleteStmt:
		return db.execDelete(s)
	case *sqlparse.UpdateStmt:
		return db.execUpdate(s)
	case *sqlparse.CreateTableAsStmt:
		return db.execCTAS(s)
	}
	return nil, fmt.Errorf("oracle: unsupported statement %T", stmt)
}

// rel is an intermediate relation: column names (possibly
// "qualifier.column"), column types, and rows.
type rel struct {
	names []string
	types []vector.Type
	rows  [][]vector.Value
}

func (r *rel) toResultset() *Resultset {
	return &Resultset{Names: r.names, Types: r.types, Rows: r.rows}
}

// index returns the position of an exact column name, or -1.
func (r *rel) index(name string) int {
	for i, n := range r.names {
		if n == name {
			return i
		}
	}
	return -1
}

// resolve finds the column a reference names: exact match first, then
// a unique ".name" suffix for bare references over qualified schemas.
func (r *rel) resolve(ref sqlparse.ColumnRef) (int, error) {
	if ref.Table != "" {
		if i := r.index(ref.Table + "." + ref.Name); i >= 0 {
			return i, nil
		}
		return -1, fmt.Errorf("oracle: unknown column %s.%s", ref.Table, ref.Name)
	}
	if i := r.index(ref.Name); i >= 0 {
		return i, nil
	}
	found := -1
	for i, n := range r.names {
		if strings.HasSuffix(n, "."+ref.Name) {
			if found >= 0 {
				return -1, fmt.Errorf("oracle: ambiguous column %q", ref.Name)
			}
			found = i
		}
	}
	if found < 0 {
		return -1, fmt.Errorf("oracle: unknown column %q", ref.Name)
	}
	return found, nil
}

// typeOf statically types an expression the way the engine's column
// pipeline would, surfacing the same class of semantic errors
// (unknown columns, non-boolean conditions, arithmetic over
// non-numeric types) even over zero rows.
func (r *rel) typeOf(e sqlparse.Expr) (vector.Type, error) {
	switch ex := e.(type) {
	case sqlparse.ColumnRef:
		i, err := r.resolve(ex)
		if err != nil {
			return vector.Invalid, err
		}
		return r.types[i], nil
	case sqlparse.Literal:
		if ex.Value.IsNull() {
			return vector.Int64, nil // typed-NULL columns are INT64
		}
		return ex.Value.Type, nil
	case sqlparse.Not:
		if err := r.boolCheck(ex.E); err != nil {
			return vector.Invalid, err
		}
		return vector.Bool, nil
	case sqlparse.Binary:
		switch ex.Op {
		case "AND", "OR":
			if err := r.boolCheck(ex.L); err != nil {
				return vector.Invalid, err
			}
			if err := r.boolCheck(ex.R); err != nil {
				return vector.Invalid, err
			}
			return vector.Bool, nil
		case "=", "!=", "<", "<=", ">", ">=":
			// Comparisons type-check their operands only as columns.
			if _, err := r.cmpOperandType(ex); err != nil {
				return vector.Invalid, err
			}
			return vector.Bool, nil
		case "+", "-", "*", "/":
			lt, err := r.typeOf(ex.L)
			if err != nil {
				return vector.Invalid, err
			}
			rt, err := r.typeOf(ex.R)
			if err != nil {
				return vector.Invalid, err
			}
			if !numericType(lt) || !numericType(rt) {
				if ex.Op == "+" && (lt == vector.String || rt == vector.String) {
					return vector.String, nil
				}
				return vector.Invalid, fmt.Errorf("oracle: arithmetic over %v and %v", lt, rt)
			}
			if ex.Op == "/" || lt == vector.Float64 || rt == vector.Float64 {
				return vector.Float64, nil
			}
			return vector.Int64, nil
		}
		return vector.Invalid, fmt.Errorf("oracle: operator %q", ex.Op)
	case sqlparse.Call:
		if sqlparse.AggregateFuncs[ex.Name] {
			return vector.Invalid, fmt.Errorf("oracle: aggregate %s outside GROUP BY context", ex.Name)
		}
		return vector.Invalid, fmt.Errorf("oracle: no such function %s", ex.Name)
	}
	return vector.Invalid, fmt.Errorf("oracle: expression %T", e)
}

// cmpOperandType types both sides of a comparison. The engine's
// comparison kernels accept any operand types, so this only surfaces
// resolution/arithmetic errors from the operand subtrees.
func (r *rel) cmpOperandType(ex sqlparse.Binary) (vector.Type, error) {
	// Mirror the engine's evaluation order: with a literal on the
	// right only the left side is evaluated, and vice versa.
	if _, ok := ex.R.(sqlparse.Literal); ok {
		return r.typeOf(ex.L)
	}
	if _, ok := ex.L.(sqlparse.Literal); ok {
		return r.typeOf(ex.R)
	}
	if _, err := r.typeOf(ex.L); err != nil {
		return vector.Invalid, err
	}
	return r.typeOf(ex.R)
}

// boolCheck requires the expression to be statically boolean.
func (r *rel) boolCheck(e sqlparse.Expr) error {
	t, err := r.typeOf(e)
	if err != nil {
		return err
	}
	if t != vector.Bool {
		return fmt.Errorf("oracle: expected BOOL condition, got %v", t)
	}
	return nil
}

func numericType(t vector.Type) bool {
	return t == vector.Int64 || t == vector.Float64 || t == vector.Timestamp
}

var cmpOpMap = map[string]vector.CmpOp{
	"=": vector.EQ, "!=": vector.NE, "<": vector.LT, "<=": vector.LE, ">": vector.GT, ">=": vector.GE,
}

// evalRow evaluates a scalar expression over one row.
func (r *rel) evalRow(row []vector.Value, e sqlparse.Expr) (vector.Value, error) {
	switch ex := e.(type) {
	case sqlparse.ColumnRef:
		i, err := r.resolve(ex)
		if err != nil {
			return vector.NullValue, err
		}
		return row[i], nil
	case sqlparse.Literal:
		return ex.Value, nil
	case sqlparse.Not:
		b, err := r.evalBoolRow(row, ex.E)
		if err != nil {
			return vector.NullValue, err
		}
		return vector.BoolValue(!b), nil
	case sqlparse.Binary:
		return r.evalBinaryRow(row, ex)
	case sqlparse.Call:
		if sqlparse.AggregateFuncs[ex.Name] {
			return vector.NullValue, fmt.Errorf("oracle: aggregate %s outside GROUP BY context", ex.Name)
		}
		return vector.NullValue, fmt.Errorf("oracle: no such function %s", ex.Name)
	}
	return vector.NullValue, fmt.Errorf("oracle: expression %T", e)
}

// evalBoolRow evaluates a boolean condition over one row with SQL's
// two-valued semantics: NULL counts as false.
func (r *rel) evalBoolRow(row []vector.Value, e sqlparse.Expr) (bool, error) {
	if err := r.boolCheck(e); err != nil {
		return false, err
	}
	v, err := r.evalRow(row, e)
	if err != nil {
		return false, err
	}
	return !v.IsNull() && v.B, nil
}

func (r *rel) evalBinaryRow(row []vector.Value, ex sqlparse.Binary) (vector.Value, error) {
	switch ex.Op {
	case "AND", "OR":
		// Both sides are always evaluated (no short-circuit), like the
		// engine's mask kernels.
		l, err := r.evalBoolRow(row, ex.L)
		if err != nil {
			return vector.NullValue, err
		}
		rv, err := r.evalBoolRow(row, ex.R)
		if err != nil {
			return vector.NullValue, err
		}
		if ex.Op == "AND" {
			return vector.BoolValue(l && rv), nil
		}
		return vector.BoolValue(l || rv), nil
	}

	if op, ok := cmpOpMap[ex.Op]; ok {
		// Literal-vs-column comparisons evaluate only the non-literal
		// side; NULL operands compare false.
		if lit, ok := ex.R.(sqlparse.Literal); ok {
			lv, err := r.evalRow(row, ex.L)
			if err != nil {
				return vector.NullValue, err
			}
			if lv.IsNull() {
				return vector.BoolValue(false), nil
			}
			return vector.BoolValue(op.Eval(lv.Compare(lit.Value))), nil
		}
		if lit, ok := ex.L.(sqlparse.Literal); ok {
			rv, err := r.evalRow(row, ex.R)
			if err != nil {
				return vector.NullValue, err
			}
			if rv.IsNull() {
				return vector.BoolValue(false), nil
			}
			return vector.BoolValue(flipOp(op).Eval(rv.Compare(lit.Value))), nil
		}
		lv, err := r.evalRow(row, ex.L)
		if err != nil {
			return vector.NullValue, err
		}
		rv, err := r.evalRow(row, ex.R)
		if err != nil {
			return vector.NullValue, err
		}
		if lv.IsNull() || rv.IsNull() {
			return vector.BoolValue(false), nil
		}
		return vector.BoolValue(op.Eval(lv.Compare(rv))), nil
	}

	switch ex.Op {
	case "+", "-", "*", "/":
		t, err := r.typeOf(ex)
		if err != nil {
			return vector.NullValue, err
		}
		lv, err := r.evalRow(row, ex.L)
		if err != nil {
			return vector.NullValue, err
		}
		rv, err := r.evalRow(row, ex.R)
		if err != nil {
			return vector.NullValue, err
		}
		if t == vector.String { // concatenation
			if lv.IsNull() || rv.IsNull() {
				return vector.NullValue, nil
			}
			return vector.StringValue(lv.String() + rv.String()), nil
		}
		if lv.IsNull() || rv.IsNull() {
			return vector.NullValue, nil
		}
		if t == vector.Float64 {
			x, y := lv.AsFloat(), rv.AsFloat()
			switch ex.Op {
			case "+":
				return vector.FloatValue(x + y), nil
			case "-":
				return vector.FloatValue(x - y), nil
			case "*":
				return vector.FloatValue(x * y), nil
			case "/":
				if y == 0 {
					return vector.NullValue, nil
				}
				return vector.FloatValue(x / y), nil
			}
		}
		x, y := lv.AsInt(), rv.AsInt()
		switch ex.Op {
		case "+":
			return vector.IntValue(x + y), nil
		case "-":
			return vector.IntValue(x - y), nil
		case "*":
			return vector.IntValue(x * y), nil
		}
	}
	return vector.NullValue, fmt.Errorf("oracle: operator %q", ex.Op)
}

func flipOp(op vector.CmpOp) vector.CmpOp {
	switch op {
	case vector.LT:
		return vector.GT
	case vector.LE:
		return vector.GE
	case vector.GT:
		return vector.LT
	case vector.GE:
		return vector.LE
	}
	return op
}

// --- SELECT ---

func (db *DB) execSelect(sel *sqlparse.SelectStmt) (*rel, error) {
	in, err := db.execFrom(sel)
	if err != nil {
		return nil, err
	}

	if sel.Where != nil {
		if err := in.boolCheck(sel.Where); err != nil {
			return nil, err
		}
		var kept [][]vector.Value
		for _, row := range in.rows {
			ok, err := in.evalBoolRow(row, sel.Where)
			if err != nil {
				return nil, err
			}
			if ok {
				kept = append(kept, row)
			}
		}
		in = &rel{names: in.names, types: in.types, rows: kept}
	}

	hasAgg := len(sel.GroupBy) > 0
	for _, item := range sel.Items {
		if !item.Star && sqlparse.IsAggregate(item.Expr) {
			hasAgg = true
		}
	}
	var out *rel
	if hasAgg {
		out, err = db.execAggregate(sel, in)
	} else {
		out, err = db.execProject(sel, in)
	}
	if err != nil {
		return nil, err
	}

	if len(sel.OrderBy) > 0 {
		out, err = execOrderBy(sel, out, in)
		if err != nil {
			return nil, err
		}
	}
	if sel.Limit >= 0 && int64(len(out.rows)) > sel.Limit {
		out = &rel{names: out.names, types: out.types, rows: out.rows[:sel.Limit]}
	}
	return out, nil
}

// execFrom evaluates the FROM clause, qualifying columns when more
// than one source (or an alias) is present and folding joins
// left-to-right.
func (db *DB) execFrom(sel *sqlparse.SelectStmt) (*rel, error) {
	if sel.From == nil {
		return &rel{
			names: []string{"__one"},
			types: []vector.Type{vector.Int64},
			rows:  [][]vector.Value{{vector.IntValue(0)}},
		}, nil
	}
	qualify := len(sel.Joins) > 0 || sel.From.Alias != ""

	load := func(ref *sqlparse.TableRef) (*rel, error) {
		r, err := db.execTableRef(ref)
		if err != nil {
			return nil, err
		}
		if qualify {
			q := ref.DisplayName()
			names := make([]string, len(r.names))
			for i, n := range r.names {
				names[i] = q + "." + n
			}
			r = &rel{names: names, types: r.types, rows: r.rows}
		}
		return r, nil
	}

	out, err := load(sel.From)
	if err != nil {
		return nil, err
	}
	for i := range sel.Joins {
		right, err := load(sel.Joins[i].Table)
		if err != nil {
			return nil, err
		}
		out, err = hashJoin(out, right, sel.Joins[i])
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (db *DB) execTableRef(ref *sqlparse.TableRef) (*rel, error) {
	switch {
	case ref.Subquery != nil:
		return db.execSelect(ref.Subquery)
	case ref.Name != "":
		t, ok := db.Tables[ref.Name]
		if !ok {
			return nil, fmt.Errorf("oracle: no such table %q", ref.Name)
		}
		names := make([]string, len(t.Schema.Fields))
		types := make([]vector.Type, len(t.Schema.Fields))
		for i, f := range t.Schema.Fields {
			names[i] = f.Name
			types[i] = f.Type
		}
		rows := make([][]vector.Value, len(t.Rows))
		copy(rows, t.Rows)
		return &rel{names: names, types: types, rows: rows}, nil
	}
	return nil, fmt.Errorf("oracle: unsupported table reference")
}

// equiPairs extracts the column-equality conjunction from a join
// condition; everything else in ON is ignored, exactly as the
// engine's planner does.
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

func renderKey(vals []vector.Value) (string, bool) {
	var sb strings.Builder
	for _, v := range vals {
		if v.IsNull() {
			return "", true
		}
		fmt.Fprintf(&sb, "%d|%s|", v.Type, v.String())
	}
	return sb.String(), false
}

// hashJoin mirrors the engine's join: build on the right, probe with
// the left in order, and for LEFT JOIN append unmatched left rows
// null-extended after all matched rows.
func hashJoin(left, right *rel, j sqlparse.Join) (*rel, error) {
	pairs := equiPairs(j.On)
	if len(pairs) == 0 {
		return nil, fmt.Errorf("oracle: JOIN requires at least one column equality, got %s", j.On)
	}
	var leftKeys, rightKeys []int
	for _, pr := range pairs {
		a, b := pr[0], pr[1]
		li, errA := left.resolve(a)
		if errA != nil {
			var err error
			li, err = left.resolve(b)
			if err != nil {
				return nil, fmt.Errorf("oracle: join key %s matches neither side", b)
			}
			b = a
		}
		ri, err := right.resolve(b)
		if err != nil {
			return nil, err
		}
		leftKeys = append(leftKeys, li)
		rightKeys = append(rightKeys, ri)
	}

	keyVals := func(row []vector.Value, keys []int) []vector.Value {
		out := make([]vector.Value, len(keys))
		for i, k := range keys {
			out[i] = row[k]
		}
		return out
	}
	build := map[string][]int{}
	for ri, row := range right.rows {
		key, null := renderKey(keyVals(row, rightKeys))
		if null {
			continue
		}
		build[key] = append(build[key], ri)
	}

	names := append(append([]string(nil), left.names...), right.names...)
	types := append(append([]vector.Type(nil), left.types...), right.types...)
	var rows [][]vector.Value
	var leftOnly [][]vector.Value
	for _, lrow := range left.rows {
		key, null := renderKey(keyVals(lrow, leftKeys))
		matches := build[key]
		if null || len(matches) == 0 {
			if j.Kind == sqlparse.LeftJoin {
				ext := append(append([]vector.Value(nil), lrow...), make([]vector.Value, len(right.names))...)
				leftOnly = append(leftOnly, ext)
			}
			continue
		}
		for _, ri := range matches {
			rows = append(rows, append(append([]vector.Value(nil), lrow...), right.rows[ri]...))
		}
	}
	rows = append(rows, leftOnly...)
	return &rel{names: names, types: types, rows: rows}, nil
}

// outputName mirrors the engine's projection naming.
func outputName(item sqlparse.SelectItem, pos int) string {
	if item.Alias != "" {
		return item.Alias
	}
	if ref, ok := item.Expr.(sqlparse.ColumnRef); ok {
		return ref.Name
	}
	if call, ok := item.Expr.(sqlparse.Call); ok {
		return fmt.Sprintf("%s_%d", strings.ToLower(strings.ReplaceAll(call.Name, ".", "_")), pos)
	}
	return fmt.Sprintf("f%d", pos)
}

// execProject evaluates a plain (non-aggregate) projection.
func (db *DB) execProject(sel *sqlparse.SelectStmt, in *rel) (*rel, error) {
	var names []string
	var types []vector.Type
	var pick []func(row []vector.Value) (vector.Value, error)

	for pos, item := range sel.Items {
		if item.Star {
			for i, n := range in.names {
				if n == "__one" {
					continue
				}
				name := n
				if i2 := strings.LastIndexByte(name, '.'); i2 >= 0 && in.index(name[i2+1:]) < 0 {
					// Unqualify when unambiguous.
					bare := name[i2+1:]
					conflict := false
					for k, other := range in.names {
						if k != i && strings.HasSuffix(other, "."+bare) {
							conflict = true
						}
					}
					if !conflict {
						name = bare
					}
				}
				names = append(names, name)
				types = append(types, in.types[i])
				i := i
				pick = append(pick, func(row []vector.Value) (vector.Value, error) { return row[i], nil })
			}
			continue
		}
		t, err := in.typeOf(item.Expr)
		if err != nil {
			return nil, err
		}
		names = append(names, outputName(item, pos))
		types = append(types, t)
		expr := item.Expr
		pick = append(pick, func(row []vector.Value) (vector.Value, error) { return in.evalRow(row, expr) })
	}

	rows := make([][]vector.Value, len(in.rows))
	for ri, row := range in.rows {
		out := make([]vector.Value, len(pick))
		for i, f := range pick {
			v, err := f(row)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		rows[ri] = out
	}
	return &rel{names: names, types: types, rows: rows}, nil
}

// execAggregate mirrors the engine's GROUP BY operator: groups are
// keyed by a type-tagged rendering of the key values and emitted in
// first-encounter order; output column types are inferred from the
// first non-null value (INT64 when a column is entirely null or the
// result is empty).
func (db *DB) execAggregate(sel *sqlparse.SelectStmt, in *rel) (*rel, error) {
	// Evaluate group keys per row.
	for _, g := range sel.GroupBy {
		if _, err := in.typeOf(g); err != nil {
			return nil, err
		}
	}
	type group struct {
		rows []int
		key  []vector.Value
	}
	groups := map[string]*group{}
	var orderKeys []string
	for ri, row := range in.rows {
		key := make([]vector.Value, len(sel.GroupBy))
		var sb strings.Builder
		for i, g := range sel.GroupBy {
			v, err := in.evalRow(row, g)
			if err != nil {
				return nil, err
			}
			key[i] = v
			fmt.Fprintf(&sb, "%d|%s|", v.Type, v.String())
		}
		ks := sb.String()
		grp, ok := groups[ks]
		if !ok {
			grp = &group{key: key}
			groups[ks] = grp
			orderKeys = append(orderKeys, ks)
		}
		grp.rows = append(grp.rows, ri)
	}
	if len(sel.GroupBy) == 0 && len(groups) == 0 {
		groups[""] = &group{}
		orderKeys = append(orderKeys, "")
	}

	// Pre-typecheck aggregate arguments (the engine evaluates them
	// eagerly over the whole input, so resolution errors surface even
	// when every group is empty).
	argType := map[string]vector.Type{}
	argExpr := map[string]sqlparse.Expr{}
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
		if _, ok := argType[key]; ok {
			return nil
		}
		t, err := in.typeOf(call.Args[0])
		if err != nil {
			return err
		}
		argType[key] = t
		argExpr[key] = call.Args[0]
		return nil
	}
	for _, item := range sel.Items {
		if item.Star {
			return nil, fmt.Errorf("oracle: SELECT * with GROUP BY")
		}
		if err := prepare(item.Expr); err != nil {
			return nil, err
		}
	}

	groupExprIndex := map[string]int{}
	for i, g := range sel.GroupBy {
		groupExprIndex[g.String()] = i
		if ref, ok := g.(sqlparse.ColumnRef); ok {
			groupExprIndex[ref.Name] = i
		}
	}

	evalAgg := func(call sqlparse.Call, g *group) (vector.Value, error) {
		if call.Name == "COUNT" && (call.Star || len(call.Args) == 0) {
			return vector.IntValue(int64(len(g.rows))), nil
		}
		if len(call.Args) != 1 {
			return vector.NullValue, fmt.Errorf("oracle: %s expects one argument", call.Name)
		}
		key := call.Args[0].String()
		at, ok := argType[key]
		if !ok {
			return vector.NullValue, fmt.Errorf("oracle: aggregate argument %s not prepared", call.Args[0])
		}
		expr := argExpr[key]
		var vals []vector.Value
		for _, ri := range g.rows {
			v, err := in.evalRow(in.rows[ri], expr)
			if err != nil {
				return vector.NullValue, err
			}
			if !v.IsNull() {
				vals = append(vals, v)
			}
		}
		switch call.Name {
		case "COUNT":
			return vector.IntValue(int64(len(vals))), nil
		case "SUM", "AVG":
			if len(vals) == 0 {
				return vector.NullValue, nil
			}
			var sum vector.Value
			if at == vector.Float64 {
				fs := make([]float64, len(vals))
				for i, v := range vals {
					fs[i] = v.F
				}
				sum = vector.FloatValue(ExactSum(fs))
			} else {
				var n int64
				for _, v := range vals {
					n += v.I
				}
				sum = vector.IntValue(n)
			}
			if call.Name == "SUM" {
				return sum, nil
			}
			return vector.FloatValue(sum.AsFloat() / float64(len(vals))), nil
		case "MIN", "MAX":
			if len(vals) == 0 {
				return vector.NullValue, nil
			}
			acc := vals[0]
			for _, v := range vals[1:] {
				cmp := v.Compare(acc)
				if (call.Name == "MIN" && cmp < 0) || (call.Name == "MAX" && cmp > 0) {
					acc = v
				}
			}
			return acc, nil
		}
		return vector.NullValue, fmt.Errorf("oracle: aggregate %s", call.Name)
	}

	evalItem := func(item sqlparse.SelectItem, g *group) (vector.Value, error) {
		if call, ok := item.Expr.(sqlparse.Call); ok && sqlparse.AggregateFuncs[call.Name] {
			return evalAgg(call, g)
		}
		if i, ok := groupExprIndex[item.Expr.String()]; ok {
			return g.key[i], nil
		}
		if ref, ok := item.Expr.(sqlparse.ColumnRef); ok {
			if i, ok := groupExprIndex[ref.Name]; ok {
				return g.key[i], nil
			}
		}
		return vector.NullValue, fmt.Errorf("oracle: %s must appear in GROUP BY or an aggregate", item.Expr)
	}

	var rows [][]vector.Value
	for _, ks := range orderKeys {
		g := groups[ks]
		row := make([]vector.Value, len(sel.Items))
		for i, item := range sel.Items {
			v, err := evalItem(item, g)
			if err != nil {
				return nil, err
			}
			row[i] = v
		}
		rows = append(rows, row)
	}

	names := make([]string, len(sel.Items))
	types := make([]vector.Type, len(sel.Items))
	for i, item := range sel.Items {
		t := vector.Int64
		for _, row := range rows {
			if !row[i].IsNull() {
				t = row[i].Type
				break
			}
		}
		names[i] = outputName(item, i)
		types[i] = t
	}
	return &rel{names: names, types: types, rows: rows}, nil
}

// compareForSort orders values with NULLs first.
func compareForSort(a, b vector.Value) int {
	switch {
	case a.IsNull() && b.IsNull():
		return 0
	case a.IsNull():
		return -1
	case b.IsNull():
		return 1
	}
	return a.Compare(b)
}

// execOrderBy mirrors the engine's sort resolution: an ORDER BY
// column reference binds to the output schema by bare name first;
// other expressions evaluate over the output, falling back to the
// pre-projection input when the row counts line up.
func execOrderBy(sel *sqlparse.SelectStmt, out, in *rel) (*rel, error) {
	n := len(out.rows)
	keys := make([][]vector.Value, len(sel.OrderBy))
	for i, item := range sel.OrderBy {
		if ref, ok := item.Expr.(sqlparse.ColumnRef); ok {
			if idx := out.index(ref.Name); idx >= 0 {
				col := make([]vector.Value, n)
				for ri, row := range out.rows {
					col[ri] = row[idx]
				}
				keys[i] = col
				continue
			}
		}
		col, err := evalColumn(out, item.Expr)
		if err != nil {
			if in == nil || len(in.rows) != n {
				return nil, err
			}
			col, err = evalColumn(in, item.Expr)
			if err != nil {
				return nil, err
			}
		}
		keys[i] = col
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		for k, item := range sel.OrderBy {
			cmp := compareForSort(keys[k][idx[a]], keys[k][idx[b]])
			if cmp == 0 {
				continue
			}
			if item.Desc {
				return cmp > 0
			}
			return cmp < 0
		}
		return false
	})
	rows := make([][]vector.Value, n)
	for i, j := range idx {
		rows[i] = out.rows[j]
	}
	return &rel{names: out.names, types: out.types, rows: rows}, nil
}

// evalColumn evaluates an expression over every row of a relation.
func evalColumn(r *rel, e sqlparse.Expr) ([]vector.Value, error) {
	if _, err := r.typeOf(e); err != nil {
		return nil, err
	}
	out := make([]vector.Value, len(r.rows))
	for i, row := range r.rows {
		v, err := r.evalRow(row, e)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// --- DML ---

// coerce adapts a literal to a column type (int literals into float
// or timestamp columns, strings into bytes), mirroring the engine.
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

func (db *DB) table(name string) (*Table, error) {
	t, ok := db.Tables[name]
	if !ok {
		return nil, fmt.Errorf("oracle: no such table %q", name)
	}
	return t, nil
}

func (db *DB) execInsert(ins *sqlparse.InsertStmt) (*Resultset, error) {
	t, err := db.table(ins.Table)
	if err != nil {
		return nil, err
	}
	if ins.Select != nil {
		return nil, fmt.Errorf("oracle: INSERT ... SELECT not supported")
	}
	cols := ins.Columns
	if len(cols) == 0 {
		for _, f := range t.Schema.Fields {
			cols = append(cols, f.Name)
		}
	}
	colIdx := make([]int, len(cols))
	for i, c := range cols {
		idx := t.Schema.Index(c)
		if idx < 0 {
			return nil, fmt.Errorf("oracle: no column %q in %s", c, ins.Table)
		}
		colIdx[i] = idx
	}
	for _, row := range ins.Rows {
		if len(row) != len(cols) {
			return nil, fmt.Errorf("oracle: INSERT row arity %d != %d columns", len(row), len(cols))
		}
		full := make([]vector.Value, len(t.Schema.Fields)) // NULL-filled
		for i, expr := range row {
			lit, ok := expr.(sqlparse.Literal)
			if !ok {
				return nil, fmt.Errorf("oracle: INSERT VALUES must be literals")
			}
			ft := t.Schema.Fields[colIdx[i]].Type
			v := coerce(lit.Value, ft)
			if !v.IsNull() && v.Type != ft {
				return nil, fmt.Errorf("oracle: value %s is %v, column %q is %v",
					v, v.Type, cols[i], ft)
			}
			full[colIdx[i]] = v
		}
		t.Rows = append(t.Rows, full)
	}
	names := make([]string, len(t.Schema.Fields))
	types := make([]vector.Type, len(t.Schema.Fields))
	for i, f := range t.Schema.Fields {
		names[i] = f.Name
		types[i] = f.Type
	}
	return &Resultset{Names: names, Types: types}, nil
}

// tableRel exposes a stored table as a relation with bare names.
func tableRel(t *Table) *rel {
	names := make([]string, len(t.Schema.Fields))
	types := make([]vector.Type, len(t.Schema.Fields))
	for i, f := range t.Schema.Fields {
		names[i] = f.Name
		types[i] = f.Type
	}
	return &rel{names: names, types: types, rows: t.Rows}
}

func (db *DB) execDelete(del *sqlparse.DeleteStmt) (*Resultset, error) {
	t, err := db.table(del.Table)
	if err != nil {
		return nil, err
	}
	r := tableRel(t)
	var kept [][]vector.Value
	deleted := int64(0)
	for _, row := range t.Rows {
		match := true
		if del.Where != nil {
			match, err = r.evalBoolRow(row, del.Where)
			if err != nil {
				return nil, err
			}
		}
		if match {
			deleted++
		} else {
			kept = append(kept, row)
		}
	}
	t.Rows = kept
	return &Resultset{
		Names: []string{"rows_deleted"},
		Types: []vector.Type{vector.Int64},
		Rows:  [][]vector.Value{{vector.IntValue(deleted)}},
	}, nil
}

func (db *DB) execUpdate(upd *sqlparse.UpdateStmt) (*Resultset, error) {
	t, err := db.table(upd.Table)
	if err != nil {
		return nil, err
	}
	r := tableRel(t)
	// Static checks first: the engine type-checks SET expressions over
	// the whole batch before looking at the mask.
	setIdx := map[string]int{}
	setType := map[string]vector.Type{}
	for col, expr := range upd.Set {
		i := t.Schema.Index(col)
		if i < 0 {
			return nil, fmt.Errorf("oracle: unknown column %q in UPDATE", col)
		}
		st, err := r.typeOf(expr)
		if err != nil {
			return nil, err
		}
		setIdx[col] = i
		setType[col] = st
	}
	updated := int64(0)
	for ri, row := range t.Rows {
		match := true
		if upd.Where != nil {
			match, err = r.evalBoolRow(row, upd.Where)
			if err != nil {
				return nil, err
			}
		}
		// SET expressions are evaluated against the original row.
		newRow := append([]vector.Value(nil), row...)
		for col, expr := range upd.Set {
			v, err := r.evalRow(row, expr)
			if err != nil {
				return nil, err
			}
			ft := t.Schema.Fields[setIdx[col]].Type
			if setType[col] != ft {
				v = coerce(v, ft)
			}
			newRow[setIdx[col]] = v
		}
		if match {
			t.Rows[ri] = newRow
			updated++
		}
	}
	return &Resultset{
		Names: []string{"rows_updated"},
		Types: []vector.Type{vector.Int64},
		Rows:  [][]vector.Value{{vector.IntValue(updated)}},
	}, nil
}

func (db *DB) execCTAS(cta *sqlparse.CreateTableAsStmt) (*Resultset, error) {
	out, err := db.execSelect(cta.Select)
	if err != nil {
		return nil, err
	}
	if _, exists := db.Tables[cta.Table]; exists && !cta.OrReplace {
		return nil, fmt.Errorf("oracle: table %q already exists", cta.Table)
	}
	fields := make([]vector.Field, len(out.names))
	for i := range out.names {
		fields[i] = vector.Field{Name: out.names[i], Type: out.types[i]}
	}
	rows := make([][]vector.Value, len(out.rows))
	copy(rows, out.rows)
	db.Add(&Table{Name: cta.Table, Schema: vector.Schema{Fields: fields}, Rows: rows})
	return out.toResultset(), nil
}

// FromBatch converts an engine batch into the oracle's result shape
// for comparison.
func FromBatch(b *vector.Batch) *Resultset {
	rs := &Resultset{}
	for _, f := range b.Schema.Fields {
		rs.Names = append(rs.Names, f.Name)
		rs.Types = append(rs.Types, f.Type)
	}
	for r := 0; r < b.N; r++ {
		row := make([]vector.Value, len(b.Cols))
		for c, col := range b.Cols {
			row[c] = col.Value(r)
		}
		rs.Rows = append(rs.Rows, row)
	}
	return rs
}

// ExactSum is the float SUM by definition: the exact sum of vals,
// computed in math/big and rounded once to the nearest float64 (ties to
// even). NaN if any value is NaN or both infinities occur, else an
// infinity that occurs; an exact zero is −0 only when every value is
// −0. AVG divides it once by the count.
func ExactSum(vals []float64) float64 {
	var nan, pos, neg bool
	allNegZero := true
	acc, term := new(big.Int), new(big.Int)
	for _, v := range vals {
		switch {
		case v != v:
			nan = true
		case math.IsInf(v, 1):
			pos = true
		case math.IsInf(v, -1):
			neg = true
		default:
			if v != 0 || !math.Signbit(v) {
				allNegZero = false
			}
			// v × 2^1074 is an integer for every finite float64.
			f := new(big.Float).SetFloat64(v)
			f.SetMantExp(f, 1074)
			f.Int(term)
			acc.Add(acc, term)
		}
	}
	switch {
	case nan || (pos && neg):
		return math.NaN()
	case pos:
		return math.Inf(1)
	case neg:
		return math.Inf(-1)
	case acc.Sign() == 0 && allNegZero:
		return math.Copysign(0, -1)
	}
	f := new(big.Float).SetInt(acc)
	f.SetMantExp(f, -1074)
	r, _ := f.Float64()
	return r
}
