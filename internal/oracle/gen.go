package oracle

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"biglake/internal/colfmt"
	"biglake/internal/sim"
	"biglake/internal/vector"
)

// GenTable describes one generated table: where it lives, its schema,
// its partition column (BigLake tables only), and the initial rows.
type GenTable struct {
	Full         string // "ds.t0"
	Managed      bool
	PartitionCol string // "" for managed tables
	// KeyCol is a null-free INT64 key whose initial rows ascend, mostly
	// unique, so files store it Plain and a cached scan finds its
	// predicates' rows by binary search ("" for CTAS and star tables).
	KeyCol string
	Schema vector.Schema
	Rows   [][]vector.Value
}

// GenQuery is one generated SELECT plus the comparison contract it
// supports: Ordered queries carry an ORDER BY over every output
// column, so engine and oracle must agree on the exact row sequence;
// unordered queries are compared as multisets.
type GenQuery struct {
	SQL     string
	Ordered bool
	drawn   bool // drawn by Query, not one of the fixed shapes
}

// Gen is the seeded statement generator. All randomness flows from
// one sim.RNG, so a (seed, call sequence) pair is fully reproducible.
type Gen struct {
	rng *sim.RNG
	seq int // fresh-alias counter
}

// NewGen builds a generator for the seed.
func NewGen(seed uint64) *Gen { return &Gen{rng: sim.NewRNG(seed)} }

func (g *Gen) intn(n int) int        { return g.rng.Intn(n) }
func (g *Gen) chance(p float64) bool { return g.rng.Float64() < p }
func (g *Gen) pick(n int) int        { return g.rng.Intn(n) }

var stringPool = []string{"alpha", "beta", "gamma", "delta", "omega"}
var partitionPool = []string{"pa", "pb", "pc", "pd"}

// Tables generates the trial's world: two partitioned BigLake tables
// and one managed (DML-able) table, with globally unique bare column
// names so unqualified references never become ambiguous. Each ends
// with its ascending key id<i>.
func (g *Gen) Tables() []*GenTable {
	var out []*GenTable
	for i := 0; i < 2; i++ {
		schema := vector.NewSchema(
			vector.Field{Name: fmt.Sprintf("p%d", i), Type: vector.String},
			vector.Field{Name: fmt.Sprintf("k%d", i), Type: vector.Int64},
			vector.Field{Name: fmt.Sprintf("v%d", i), Type: vector.Int64},
			vector.Field{Name: fmt.Sprintf("f%d", i), Type: vector.Float64},
			vector.Field{Name: fmt.Sprintf("s%d", i), Type: vector.String},
			vector.Field{Name: fmt.Sprintf("b%d", i), Type: vector.Bool},
			vector.Field{Name: fmt.Sprintf("ts%d", i), Type: vector.Timestamp},
			vector.Field{Name: fmt.Sprintf("id%d", i), Type: vector.Int64},
		)
		t := &GenTable{
			Full:         fmt.Sprintf("ds.t%d", i),
			PartitionCol: fmt.Sprintf("p%d", i),
			KeyCol:       fmt.Sprintf("id%d", i),
			Schema:       schema,
		}
		nparts := 2 + g.intn(3)
		rows := 30 + g.intn(50)
		id := int64(g.intn(5))
		for r := 0; r < rows; r++ {
			t.Rows = append(t.Rows, []vector.Value{
				vector.StringValue(partitionPool[g.intn(nparts)]),
				vector.IntValue(int64(g.intn(10))),
				g.maybeNull(0.15, vector.IntValue(int64(g.intn(50)))),
				g.maybeNull(0.10, g.float()),
				g.maybeNull(0.10, vector.StringValue(stringPool[g.intn(len(stringPool))])),
				g.maybeNull(0.10, vector.BoolValue(g.chance(0.5))),
				g.maybeNull(0.10, vector.TimestampValue(int64(20240100+g.intn(100)))),
				vector.IntValue(id),
			})
			id += nextKey(g)
		}
		out = append(out, t)
	}
	m := &GenTable{
		Full:    "ds.m2",
		Managed: true,
		KeyCol:  "id2",
		Schema: vector.NewSchema(
			vector.Field{Name: "k2", Type: vector.Int64},
			vector.Field{Name: "v2", Type: vector.Int64},
			vector.Field{Name: "f2", Type: vector.Float64},
			vector.Field{Name: "s2", Type: vector.String},
			vector.Field{Name: "b2", Type: vector.Bool},
			vector.Field{Name: "id2", Type: vector.Int64},
		),
	}
	rows := 25 + g.intn(40)
	id := int64(g.intn(5))
	for r := 0; r < rows; r++ {
		m.Rows = append(m.Rows, []vector.Value{
			vector.IntValue(int64(g.intn(10))),
			g.maybeNull(0.15, vector.IntValue(int64(g.intn(50)))),
			g.maybeNull(0.10, g.float()),
			g.maybeNull(0.10, vector.StringValue(stringPool[g.intn(len(stringPool))])),
			g.maybeNull(0.10, vector.BoolValue(g.chance(0.5))),
			vector.IntValue(id),
		})
		id += nextKey(g)
	}
	out = append(out, m)
	return out
}

// nextKey is the step from one row's ascending key to the next: one,
// or zero one time in ten, so a few keys repeat.
func nextKey(g *Gen) int64 {
	if g.chance(0.1) {
		return 0
	}
	return 1
}

// dyadic returns a non-negative float that is exactly representable
// with few mantissa bits (k * 0.25): a literal, or a value whose sums
// never round.
func (g *Gen) dyadic() vector.Value {
	return vector.FloatValue(float64(g.intn(8000)) * 0.25)
}

// float draws a stored FLOAT64 value: mostly dyadic, else one whose
// sums round, so an aggregate's answer depends on adding exactly — a
// non-dyadic decimal, ±1e16 beside small values (a large
// cancellation), a subnormal — or a signed zero.
func (g *Gen) float() vector.Value {
	switch g.pick(10) {
	case 0, 1:
		return vector.FloatValue(float64(g.intn(20000)-10000) / 10)
	case 2:
		return vector.FloatValue([]float64{1e16, -1e16}[g.intn(2)])
	case 3:
		return vector.FloatValue(math.Ldexp(float64(1+g.intn(1000)), -1074))
	case 4:
		return vector.FloatValue([]float64{0, math.Copysign(0, -1)}[g.intn(2)])
	}
	return g.dyadic()
}

func (g *Gen) maybeNull(p float64, v vector.Value) vector.Value {
	if g.chance(p) {
		return vector.NullValue
	}
	return v
}

// --- literal rendering ---

func renderValue(v vector.Value) string {
	switch v.Type {
	case vector.Invalid:
		return "NULL"
	case vector.Int64, vector.Timestamp:
		return strconv.FormatInt(v.I, 10)
	case vector.Float64:
		s := strconv.FormatFloat(v.F, 'f', -1, 64)
		if !strings.Contains(s, ".") {
			s += ".0"
		}
		return s
	case vector.Bool:
		if v.B {
			return "TRUE"
		}
		return "FALSE"
	case vector.String:
		return "'" + strings.ReplaceAll(v.S, "'", "''") + "'"
	}
	return "NULL"
}

// scopeCol is one referencable column while generating a query.
type scopeCol struct {
	qual string // table alias/qualifier; "" when unqualified is fine
	name string
	typ  vector.Type
	t    *GenTable
	idx  int // column index in t.Schema
}

func (c scopeCol) ref(g *Gen) string {
	if c.qual != "" && g.chance(0.7) {
		return c.qual + "." + c.name
	}
	return c.name
}

// litFor draws a comparison literal for the column: usually an actual
// data value (so predicates are selective and pruning boundaries get
// exercised), otherwise a fresh random value of the right type.
func (g *Gen) litFor(c scopeCol) string {
	if len(c.t.Rows) > 0 && g.chance(0.7) {
		for try := 0; try < 4; try++ {
			v := c.t.Rows[g.intn(len(c.t.Rows))][c.idx]
			if !v.IsNull() {
				return renderValue(v)
			}
		}
	}
	switch c.typ {
	case vector.Int64:
		return strconv.Itoa(g.intn(60))
	case vector.Float64:
		return renderValue(g.dyadic())
	case vector.String:
		return renderValue(vector.StringValue(stringPool[g.intn(len(stringPool))]))
	case vector.Bool:
		return renderValue(vector.BoolValue(g.chance(0.5)))
	case vector.Timestamp:
		return strconv.Itoa(20240100 + g.intn(100))
	}
	return "0"
}

var numOps = []string{"=", "!=", "<", "<=", ">", ">="}

// predicate generates a boolean expression tree over the scope.
func (g *Gen) predicate(scope []scopeCol, depth int) string {
	if depth > 0 && g.chance(0.4) {
		switch g.pick(3) {
		case 0:
			return "(" + g.predicate(scope, depth-1) + " AND " + g.predicate(scope, depth-1) + ")"
		case 1:
			return "(" + g.predicate(scope, depth-1) + " OR " + g.predicate(scope, depth-1) + ")"
		default:
			return "NOT (" + g.predicate(scope, depth-1) + ")"
		}
	}
	return g.leaf(scope)
}

func (g *Gen) leaf(scope []scopeCol) string {
	// The ascending key gets extra weight, as an equality, a range or a
	// BETWEEN, so a cached scan's binary search fires.
	for _, sc := range scope {
		if sc.name == sc.t.KeyCol && g.chance(0.2) {
			switch g.pick(3) {
			case 0:
				return sc.ref(g) + " = " + g.litFor(sc)
			case 1:
				return sc.ref(g) + " " + numOps[2+g.intn(4)] + " " + g.litFor(sc)
			default:
				return sc.ref(g) + " BETWEEN " + g.litFor(sc) + " AND " + g.litFor(sc)
			}
		}
	}
	c := scope[g.intn(len(scope))]
	// Partition columns get extra weight so partition pruning fires.
	for _, sc := range scope {
		if sc.t.PartitionCol == sc.name && g.chance(0.25) {
			c = sc
			break
		}
	}
	switch {
	case c.typ == vector.Bool && g.chance(0.4):
		if g.chance(0.5) {
			return c.ref(g)
		}
		return "NOT " + c.ref(g)
	case g.chance(0.12): // col op col of the same type
		for try := 0; try < 6; try++ {
			o := scope[g.intn(len(scope))]
			if o.typ == c.typ && !(o.qual == c.qual && o.name == c.name) {
				return c.ref(g) + " " + numOps[g.intn(len(numOps))] + " " + o.ref(g)
			}
		}
		fallthrough
	case g.chance(0.12) && c.typ != vector.Bool: // IN list
		n := 2 + g.intn(3)
		items := make([]string, n)
		for i := range items {
			items[i] = g.litFor(c)
		}
		if g.chance(0.25) {
			return c.ref(g) + " NOT IN (" + strings.Join(items, ", ") + ")"
		}
		return c.ref(g) + " IN (" + strings.Join(items, ", ") + ")"
	case g.chance(0.12) && numericType(c.typ): // BETWEEN range
		lo, hi := g.litFor(c), g.litFor(c)
		if g.chance(0.2) {
			return c.ref(g) + " NOT BETWEEN " + lo + " AND " + hi
		}
		return c.ref(g) + " BETWEEN " + lo + " AND " + hi
	case g.chance(0.10) && c.typ == vector.Int64: // arithmetic comparand
		return "(" + c.ref(g) + " + " + strconv.Itoa(g.intn(5)) + ") " + numOps[g.intn(len(numOps))] + " " + g.litFor(c)
	case g.chance(0.06) && c.typ == vector.Float64: // division, incl. by zero
		return "(" + c.ref(g) + " / " + strconv.Itoa(g.intn(3)) + ".0) >= " + g.litFor(c)
	}
	return g.comparison(c)
}

// comparison is `c op literal`, the shape a scan is pushed.
func (g *Gen) comparison(c scopeCol) string {
	ops := numOps
	if c.typ == vector.String {
		ops = []string{"=", "!=", "<", ">"}
	}
	if c.typ == vector.Bool {
		ops = []string{"=", "!="}
	}
	return c.ref(g) + " " + ops[g.intn(len(ops))] + " " + g.litFor(c)
}

// tableScope lists a table's columns under a qualifier.
func tableScope(t *GenTable, qual string) []scopeCol {
	var out []scopeCol
	for i, f := range t.Schema.Fields {
		out = append(out, scopeCol{qual: qual, name: f.Name, typ: f.Type, t: t, idx: i})
	}
	return out
}

// Query generates one SELECT over the given tables.
func (g *Gen) Query(tables []*GenTable) GenQuery {
	// Choose sources: one table, or a two-table join. Joins need an
	// INT64 key on both sides (CTAS tables may have none).
	t1 := tables[g.intn(len(tables))]
	join := len(tables) > 1 && g.chance(0.4) && hasIntCol(t1)
	var joinable []*GenTable
	if join {
		for _, t := range tables {
			if t != t1 && hasIntCol(t) {
				joinable = append(joinable, t)
			}
		}
		join = len(joinable) > 0
	}
	var scope []scopeCol
	var from string
	if join {
		t2 := joinable[g.intn(len(joinable))]
		s1, s2 := tableScope(t1, "ga"), tableScope(t2, "gb")
		// Join on same-type int columns so keys actually collide.
		k1 := g.intCol(s1)
		k2 := g.intCol(s2)
		on := "ga." + k1 + " = gb." + k2
		if g.chance(0.2) {
			on += " AND ga." + g.intCol(s1) + " = gb." + g.intCol(s2)
		}
		kind := "JOIN"
		if g.chance(0.3) {
			kind = "LEFT JOIN"
		}
		from = t1.Full + " AS ga " + kind + " " + t2.Full + " AS gb ON " + on
		scope = append(s1, s2...)
	} else if g.chance(0.25) {
		from = t1.Full + " AS ga"
		scope = tableScope(t1, "ga")
	} else {
		from = t1.Full
		scope = tableScope(t1, "")
	}

	var q GenQuery
	if g.chance(0.35) {
		q = g.aggQuery(from, scope)
	} else {
		q = g.plainQuery(from, scope)
	}
	q.drawn = true
	return q
}

func hasIntCol(t *GenTable) bool {
	for _, f := range t.Schema.Fields {
		if f.Type == vector.Int64 {
			return true
		}
	}
	return false
}

func (g *Gen) intCol(scope []scopeCol) string {
	var ints []string
	for _, c := range scope {
		if c.typ == vector.Int64 {
			ints = append(ints, c.name)
		}
	}
	return ints[g.intn(len(ints))]
}

// plainQuery generates a non-aggregate SELECT.
func (g *Gen) plainQuery(from string, scope []scopeCol) GenQuery {
	items, outNames := g.selectList(scope)
	var sb strings.Builder
	sb.WriteString("SELECT " + strings.Join(items, ", ") + " FROM " + from)
	if g.chance(0.7) {
		sb.WriteString(" WHERE " + g.predicate(scope, 2))
	}

	ordered := false
	if g.chance(0.7) {
		// Total order: every output column, shuffled, random direction.
		ordered = true
		sb.WriteString(" ORDER BY " + g.orderList(outNames))
		if g.chance(0.4) {
			sb.WriteString(" LIMIT " + strconv.Itoa(g.intn(40)))
		}
	} else if g.chance(0.4) {
		// Partial order over an input column (possibly unprojected):
		// exercises the engine's input-batch fallback. Compared as a
		// multiset, no LIMIT.
		c := scope[g.intn(len(scope))]
		sb.WriteString(" ORDER BY " + c.ref(g))
		if g.chance(0.5) {
			sb.WriteString(" DESC")
		}
	}
	return GenQuery{SQL: sb.String(), Ordered: ordered}
}

// selectList draws a plain SELECT's items over scope — `*`, or a few
// columns and perhaps a computed one — and their output names.
func (g *Gen) selectList(scope []scopeCol) (items, outNames []string) {
	if g.chance(0.2) {
		items = []string{"*"}
		for _, c := range scope {
			outNames = append(outNames, c.name) // unique bare names unqualify
		}
	} else {
		n := 1 + g.intn(4)
		perm := g.perm(len(scope))
		for i := 0; i < n && i < len(scope); i++ {
			c := scope[perm[i]]
			items = append(items, c.ref(g))
			outNames = append(outNames, c.name)
		}
		if g.chance(0.35) {
			expr, name := g.computedItem(scope)
			items = append(items, expr+" AS "+name)
			outNames = append(outNames, name)
		}
	}
	return items, outNames
}

// LimitQueries draws n single-table SELECTs with a LIMIT and no ORDER
// BY, whose right answers are any LIMIT rows of the unlimited answer
// (diffAnswer). Half their WHEREs are one or two `column op literal`
// conjuncts, so a scan may stop reading once it holds the LIMIT's rows
// (it does when every conjunct is exact); the rest are drawn as any
// other WHERE, or left out. Like ProjectionQueries they draw from a
// generator of their own, so the random statements of a seed stay what
// they were.
func (g *Gen) LimitQueries(tables []*GenTable, n int) []GenQuery {
	out := make([]GenQuery, n)
	for i := range out {
		t := tables[g.intn(len(tables))]
		from, scope := t.Full, tableScope(t, "")
		if g.chance(0.25) {
			from, scope = t.Full+" AS ga", tableScope(t, "ga")
		}
		items, _ := g.selectList(scope)
		var sb strings.Builder
		sb.WriteString("SELECT " + strings.Join(items, ", ") + " FROM " + from)
		switch {
		case g.chance(0.5):
			sb.WriteString(" WHERE " + g.comparison(scope[g.intn(len(scope))]))
			if g.chance(0.5) {
				sb.WriteString(" AND " + g.comparison(scope[g.intn(len(scope))]))
			}
		case g.chance(0.8):
			sb.WriteString(" WHERE " + g.predicate(scope, 2))
		}
		sb.WriteString(" LIMIT " + strconv.Itoa(g.intn(16)))
		out[i] = GenQuery{SQL: sb.String()}
	}
	return out
}

// computedItem returns an expression with a fresh alias.
func (g *Gen) computedItem(scope []scopeCol) (expr, name string) {
	g.seq++
	name = fmt.Sprintf("x%d", g.seq)
	var ints, floats, strs []scopeCol
	for _, c := range scope {
		switch c.typ {
		case vector.Int64:
			ints = append(ints, c)
		case vector.Float64:
			floats = append(floats, c)
		case vector.String:
			strs = append(strs, c)
		}
	}
	switch {
	case len(floats) > 0 && g.chance(0.35):
		c := floats[g.intn(len(floats))]
		if g.chance(0.4) { // division incl. by zero -> NULL
			d := scope[g.intn(len(scope))]
			if d.typ == vector.Int64 || d.typ == vector.Float64 {
				return "(" + c.ref(g) + " / " + d.ref(g) + ")", name
			}
		}
		return "(" + c.ref(g) + " * " + strconv.Itoa(1+g.intn(4)) + ")", name
	case len(strs) > 1 && g.chance(0.3):
		a, b := strs[g.intn(len(strs))], strs[g.intn(len(strs))]
		return "(" + a.ref(g) + " + " + b.ref(g) + ")", name
	case len(ints) > 0:
		c := ints[g.intn(len(ints))]
		switch g.pick(3) {
		case 0:
			return "(" + c.ref(g) + " + " + strconv.Itoa(g.intn(10)) + ")", name
		case 1:
			return "(" + c.ref(g) + " * " + strconv.Itoa(1+g.intn(5)) + ")", name
		default: // int division is float division
			return "(" + c.ref(g) + " / " + strconv.Itoa(g.intn(4)) + ")", name
		}
	}
	c := scope[g.intn(len(scope))]
	return c.ref(g), name
}

// aggQuery generates a GROUP BY / aggregate SELECT.
func (g *Gen) aggQuery(from string, scope []scopeCol) GenQuery {
	var items, groupBy, outNames []string

	global := g.chance(0.35)
	if !global {
		nKeys := 1 + g.intn(2)
		perm := g.perm(len(scope))
		used := 0
		for _, pi := range perm {
			if used == nKeys {
				break
			}
			c := scope[pi]
			if c.typ == vector.Float64 && g.chance(0.5) {
				continue // prefer low-cardinality keys
			}
			key := c.ref(g)
			if c.typ == vector.Int64 && g.chance(0.15) {
				key = "(" + key + " * 2)" // expression group key
			}
			groupBy = append(groupBy, key)
			// Project the key under an alias so ORDER BY binds cleanly.
			g.seq++
			alias := fmt.Sprintf("gk%d", g.seq)
			items = append(items, key+" AS "+alias)
			outNames = append(outNames, alias)
			used++
		}
	}

	nAggs := 1 + g.intn(3)
	for i := 0; i < nAggs; i++ {
		g.seq++
		alias := fmt.Sprintf("ag%d", g.seq)
		items = append(items, g.aggCall(scope)+" AS "+alias)
		outNames = append(outNames, alias)
	}

	var sb strings.Builder
	sb.WriteString("SELECT " + strings.Join(items, ", ") + " FROM " + from)
	if g.chance(0.6) {
		sb.WriteString(" WHERE " + g.predicate(scope, 2))
	}
	if len(groupBy) > 0 {
		sb.WriteString(" GROUP BY " + strings.Join(groupBy, ", "))
	}
	// Three in four global aggregates go unordered: over one table with
	// COUNT/SUM/MIN/MAX items and a conjunctive WHERE, that is the shape
	// an aggregate Read API session answers (readShapeOf), and the only
	// random statements that reach it.
	ordered := false
	if !global && g.chance(0.7) || global && g.chance(0.25) {
		ordered = true
		sb.WriteString(" ORDER BY " + g.orderList(outNames))
		if g.chance(0.3) {
			sb.WriteString(" LIMIT " + strconv.Itoa(g.intn(20)))
		}
	}
	return GenQuery{SQL: sb.String(), Ordered: ordered}
}

// aggCall picks an aggregate over suitable columns. Aggregate
// arguments never contain division: quotients are not exactly
// representable, so their sums would depend on accumulation order.
func (g *Gen) aggCall(scope []scopeCol) string {
	var nums, any []scopeCol
	for _, c := range scope {
		any = append(any, c)
		if numericType(c.typ) {
			nums = append(nums, c)
		}
	}
	switch g.pick(6) {
	case 0:
		return "COUNT(*)"
	case 1:
		c := any[g.intn(len(any))]
		return "COUNT(" + c.ref(g) + ")"
	case 2:
		if len(nums) == 0 {
			return "COUNT(*)"
		}
		c := nums[g.intn(len(nums))]
		return "SUM(" + c.ref(g) + ")"
	case 3:
		if len(nums) == 0 {
			return "COUNT(*)"
		}
		c := nums[g.intn(len(nums))]
		return "AVG(" + c.ref(g) + ")"
	case 4:
		c := any[g.intn(len(any))]
		return "MIN(" + c.ref(g) + ")"
	default:
		c := any[g.intn(len(any))]
		if g.chance(0.2) && len(nums) > 0 {
			n := nums[g.intn(len(nums))]
			return "SUM(" + n.ref(g) + " * 2)"
		}
		return "MAX(" + c.ref(g) + ")"
	}
}

func (g *Gen) orderList(outNames []string) string {
	perm := g.perm(len(outNames))
	parts := make([]string, len(outNames))
	for i, pi := range perm {
		parts[i] = outNames[pi]
		if g.chance(0.5) {
			parts[i] += " DESC"
		}
	}
	return strings.Join(parts, ", ")
}

func (g *Gen) perm(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := g.intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// --- projection shapes and governance ---

// colsOfType lists the table's columns of one type.
func colsOfType(t *GenTable, typ vector.Type) []string {
	var out []string
	for _, f := range t.Schema.Fields {
		if f.Type == typ {
			out = append(out, f.Name)
		}
	}
	return out
}

// ProjectionQueries returns, for every table, the statement shapes
// column projection has to get right — where the scan's column set is
// not the select list: a count that names no column, statements that
// touch only the hive partition column, an ORDER BY key outside the
// select list, an ORDER BY on an output alias, `*`, plain filtered
// projections, and a join whose columns are all unqualified. Random
// queries meet these by chance; every trial runs them by construction.
func (g *Gen) ProjectionQueries(tables []*GenTable) []GenQuery {
	var out []GenQuery
	add := func(ordered bool, format string, args ...any) {
		out = append(out, GenQuery{SQL: fmt.Sprintf(format, args...), Ordered: ordered})
	}
	for _, t := range tables {
		scope := tableScope(t, "")
		add(true, "SELECT COUNT(*) AS n FROM %s", t.Full)
		if p := t.PartitionCol; p != "" {
			add(true, "SELECT COUNT(*) AS n FROM %s WHERE %s = '%s'", t.Full, p, partitionPool[g.intn(len(partitionPool))])
			add(true, "SELECT %s AS gk, COUNT(*) AS n FROM %s GROUP BY %s ORDER BY gk, n", p, t.Full, p)
		}
		add(false, "SELECT * FROM %s WHERE %s", t.Full, g.leaf(scope))
		ints := colsOfType(t, vector.Int64)
		// Shapes the Storage Read API answers alone (readShape), so its
		// arm runs by construction: a comparison on the last STRING
		// column — the one Policies masks — an integer range, and
		// aggregates over that range, which an aggregate session answers.
		if strs := colsOfType(t, vector.String); len(strs) > 0 && len(ints) > 0 {
			s, lit := strs[len(strs)-1], stringPool[g.intn(len(stringPool))]
			hi := 10 + g.intn(40)
			add(false, "SELECT %s, %s FROM %s WHERE %s != '%s'", ints[0], s, t.Full, s, lit)
			add(false, "SELECT %s, %s FROM %s WHERE %s = '%s' AND %s < %d", s, ints[0], t.Full, s, lit, ints[0], hi)
			add(false, "SELECT * FROM %s WHERE %s >= %d", t.Full, ints[len(ints)-1], g.intn(30))
			aggs := fmt.Sprintf("COUNT(%s), SUM(%s), MIN(%s), MAX(%s)", s, ints[0], s, ints[len(ints)-1])
			if fs := colsOfType(t, vector.Float64); len(fs) > 0 {
				aggs += fmt.Sprintf(", SUM(%s), MIN(%s)", fs[0], fs[0])
			}
			add(false, "SELECT %s FROM %s WHERE %s < %d", aggs, t.Full, ints[0], hi)
		}
		if len(ints) < 2 {
			continue
		}
		perm := g.perm(len(ints))
		a, b := ints[perm[0]], ints[perm[1]]
		add(false, "SELECT %s FROM %s ORDER BY %s DESC", a, t.Full, b)
		add(true, "SELECT (%s + %d) AS x, %s FROM %s ORDER BY x DESC, %s", a, g.intn(5), b, t.Full, b)
	}
	// Bare names are unique across the generated tables, so a join can
	// leave every reference unqualified.
	for i := 0; i+1 < len(tables); i++ {
		l, r := tables[i], tables[i+1]
		li, ri := colsOfType(l, vector.Int64), colsOfType(r, vector.Int64)
		if len(li) < 2 || len(ri) == 0 {
			continue
		}
		add(false, "SELECT %s, %s FROM %s AS ga JOIN %s AS gb ON %s = %s WHERE %s < %d",
			li[1], r.Schema.Fields[len(r.Schema.Fields)-1].Name, l.Full, r.Full, li[0], ri[0], li[1], 10+g.intn(30))
	}
	return out
}

// starDimKeys is how many rows the star family's dimension has; its key
// dk runs 0..starDimKeys-1, each once.
const starDimKeys = 12

// StarTables generates the star family's world: a managed fact table
// ds.sf (installed as many small files, coalesced by the post phase's
// Optimize) and a one-file dimension ds.sd. The shapes that choose the
// join and grouping kernels are in the columns:
//
//	sf.fa  never NULL, always a key of sd.dk: every probe row matches once
//	sf.fb  NULL at times and past sd.dk's range at others: probe rows miss
//	sf.fs  a few strings, NULL at times: reaches GROUP BY dictionary-encoded
//	sf.fw  more values than a file dictionary-encodes: a plain integer key
//	sf.fx  a plain integer key whose range is just within the grouping's
//	       density cap (vector.DenseCap), sf.fz one just beyond it; each range
//	       negative, small, or against MinInt64 or MaxInt64
//	sf.fy  sd.dx of the row's fa: a unique join key every probe row
//	       matches, spaced so the build range is within the join's
//	       density cap or just beyond it, placed like fx
//	sd.dk  unique; sd.dr repeats (dk mod 3); sd.dg is a few strings
//
// Bare names are distinct from every Tables() column.
func (g *Gen) StarTables() []*GenTable {
	sf := &GenTable{Full: "ds.sf", Managed: true, Schema: vector.NewSchema(
		vector.Field{Name: "fa", Type: vector.Int64},
		vector.Field{Name: "fb", Type: vector.Int64},
		vector.Field{Name: "fv", Type: vector.Int64},
		vector.Field{Name: "ff", Type: vector.Float64},
		vector.Field{Name: "fs", Type: vector.String},
		vector.Field{Name: "fw", Type: vector.Int64},
		vector.Field{Name: "fx", Type: vector.Int64},
		vector.Field{Name: "fz", Type: vector.Int64},
		vector.Field{Name: "fy", Type: vector.Int64},
	)}
	rows := 90 + g.intn(60)
	// Ranges of exactly spanX and spanZ values: the first two rows hold
	// each range's ends.
	capRows := vector.DenseCap(rows)
	spanX := capRows - g.intn(rows)
	spanZ := capRows + 1 + g.intn(rows)
	baseX, baseZ := g.keyBase(spanX), g.keyBase(spanZ)
	// The widest spacing whose build range fits the join's cap, one
	// narrower, or one wider (which does not fit).
	fit := int64((vector.DenseCap(starDimKeys) - 1) / (starDimKeys - 1))
	step := fit - 1 + int64(g.intn(3))
	baseY := g.keyBase(int((starDimKeys-1)*step + 1))
	end := func(r, span int) int64 {
		switch r {
		case 0:
			return 0
		case 1:
			return int64(span - 1)
		}
		return int64(g.intn(span))
	}
	for r := 0; r < rows; r++ {
		fa := int64(g.intn(starDimKeys))
		sf.Rows = append(sf.Rows, []vector.Value{
			vector.IntValue(fa),
			g.maybeNull(0.1, vector.IntValue(int64(g.intn(starDimKeys+4)))),
			g.maybeNull(0.1, vector.IntValue(int64(g.intn(50)))),
			g.maybeNull(0.1, g.float()),
			g.maybeNull(0.1, vector.StringValue(stringPool[g.intn(3)])),
			vector.IntValue(int64(g.intn(40))),
			vector.IntValue(baseX + end(r, spanX)),
			vector.IntValue(baseZ + end(r, spanZ)),
			vector.IntValue(baseY + fa*step),
		})
	}
	sd := &GenTable{Full: "ds.sd", PartitionCol: "dp", Schema: vector.NewSchema(
		vector.Field{Name: "dp", Type: vector.String},
		vector.Field{Name: "dk", Type: vector.Int64},
		vector.Field{Name: "dr", Type: vector.Int64},
		vector.Field{Name: "dg", Type: vector.String},
		vector.Field{Name: "dw", Type: vector.Int64},
		vector.Field{Name: "dx", Type: vector.Int64},
	)}
	for _, k := range g.perm(starDimKeys) {
		sd.Rows = append(sd.Rows, []vector.Value{
			vector.StringValue(partitionPool[0]),
			vector.IntValue(int64(k)), vector.IntValue(int64(k % 3)),
			vector.StringValue(stringPool[g.intn(4)]),
			vector.IntValue(int64(g.intn(20))),
			vector.IntValue(baseY + int64(k)*step),
		})
	}
	return []*GenTable{sf, sd}
}

// keyBase draws where a key range of span values starts: below zero,
// just above it, at MinInt64, or ending at MaxInt64 — a few values off
// each, so a range's arithmetic meets both int64 extremes.
func (g *Gen) keyBase(span int) int64 {
	off := int64(g.intn(4))
	switch g.pick(4) {
	case 0:
		return -int64(span) - int64(g.intn(100000))
	case 1:
		return off
	case 2:
		return math.MinInt64 + off
	}
	return math.MaxInt64 - int64(span-1) - off
}

// StarQueries returns the star family over StarTables' pair: the
// statement shapes by which the join and the grouping choose a kernel
// — an N:1 join on the unique key grouped by a dimension column, the
// same with a filter on the dimension so fact rows miss, its LEFT JOIN
// forms (all matching, and with NULL and out-of-range keys), a join on
// the repeating key, GROUP BY on a dictionary-encoded string, on a
// plain integer and on two keys, and a projection through the join (the
// fact columns pass through it). probe, when non-nil, is a further fact table: its
// first INT64 column is joined to the unique key too (the trial's
// managed table, which DML rewrites and row policies filter).
func (g *Gen) StarQueries(probe *GenTable) []GenQuery {
	var out []GenQuery
	add := func(ordered bool, format string, args ...any) {
		out = append(out, GenQuery{SQL: fmt.Sprintf(format, args...), Ordered: ordered})
	}
	const grouped = "SELECT gb.dg AS g, COUNT(*) AS n, SUM(ga.fv) AS sv, SUM(ga.ff) AS sx, AVG(ga.fv) AS av FROM ds.sf AS ga %s ds.sd AS gb ON ga.%s = gb.%s%s GROUP BY gb.dg ORDER BY g, n, sv, sx, av"
	add(true, grouped, "JOIN", "fa", "dk", "")
	add(true, grouped, "JOIN", "fa", "dk", fmt.Sprintf(" WHERE gb.dw < %d", 5+g.intn(10)))
	add(true, grouped, "LEFT JOIN", "fa", "dk", "")
	add(true, grouped, "LEFT JOIN", "fb", "dk", "")
	add(true, grouped, "JOIN", "fb", "dk", fmt.Sprintf(" WHERE ga.fv >= %d", g.intn(25)))
	add(true, grouped, "JOIN", "fa", "dr", "")
	add(true, grouped, "LEFT JOIN", "fb", "dr", "")
	add(true, "SELECT fs AS g, COUNT(*) AS n, SUM(fv) AS sv, MIN(ff) AS mn, MAX(fs) AS mx FROM ds.sf GROUP BY fs ORDER BY g, n, sv, mn, mx")
	add(true, "SELECT fw AS g, COUNT(*) AS n, SUM(fv) AS sv FROM ds.sf WHERE fv >= %d GROUP BY fw ORDER BY g, n, sv", g.intn(25))
	// Keys near the int64 extremes are compared as multisets: ORDER BY
	// in the reference ranks integers through float64, which ties them.
	add(false, "SELECT fx AS g, COUNT(*) AS n, SUM(fv) AS sv, MIN(ff) AS mn FROM ds.sf GROUP BY fx")
	add(false, "SELECT fz AS g, COUNT(*) AS n, SUM(fv) AS sv FROM ds.sf GROUP BY fz")
	add(true, "SELECT gb.dg AS g, COUNT(*) AS n, SUM(ga.fv) AS sv FROM ds.sf AS ga JOIN ds.sd AS gb ON ga.fy = gb.dx GROUP BY gb.dg ORDER BY g, n, sv")
	add(true, "SELECT fs AS g, fa AS h, COUNT(*) AS n, SUM(ff) AS sx FROM ds.sf GROUP BY fs, fa ORDER BY g, h, n, sx")
	add(false, "SELECT ga.fv, ga.ff, ga.fs, gb.dg FROM ds.sf AS ga JOIN ds.sd AS gb ON ga.fa = gb.dk")
	add(false, "SELECT ga.fv, ga.fs, gb.dg, gb.dw FROM ds.sf AS ga LEFT JOIN ds.sd AS gb ON ga.fb = gb.dk WHERE ga.fw < %d", 10+g.intn(25))
	if probe != nil {
		if ints := colsOfType(probe, vector.Int64); len(ints) > 1 {
			add(true, "SELECT gb.dg AS g, COUNT(*) AS n, SUM(ga.%s) AS sv FROM %s AS ga JOIN ds.sd AS gb ON ga.%s = gb.dk GROUP BY gb.dg ORDER BY g, n, sv",
				ints[1], probe.Full, ints[0])
		}
	}
	return out
}

// GenPolicy is the governance a trial puts on one table for the
// restricted principal: a row policy, and — where set — a column the
// principal sees masked and one it may not read.
type GenPolicy struct {
	Table  string
	Filter []colfmt.Predicate
	Masked string
	// Mask is how Masked reads: NULLs (MaskNullify), its type's zero
	// value in every row (MaskDefault) — which predicates match, so a
	// predicate that reached the stored values instead shows — or, the
	// column being a string, its last four bytes after X's
	// (MaskLastFour): a value computed from the stored one, row by row.
	Mask   vector.MaskKind
	Denied string
}

// Policies generates one policy per initial table. The row policy
// filters on an INT64 column the statements rarely select, so the scan
// must add it to its column set on its own.
func (g *Gen) Policies(tables []*GenTable) []GenPolicy {
	var out []GenPolicy
	for _, t := range tables {
		ints := colsOfType(t, vector.Int64)
		if t.KeyCol != "" {
			ints = ints[:len(ints)-1] // the key is the last; statements often select it
		}
		pol := GenPolicy{Table: t.Full, Filter: []colfmt.Predicate{{
			Column: ints[len(ints)-1], Op: vector.LT, Value: vector.IntValue(int64(15 + g.intn(30))),
		}}}
		if strs := colsOfType(t, vector.String); len(strs) > 0 {
			pol.Masked = strs[len(strs)-1]
			pol.Mask = []vector.MaskKind{vector.MaskNullify, vector.MaskDefault, vector.MaskLastFour}[g.pick(3)]
		}
		// Denied: nothing, a column of no other interest, or the very
		// column the row policy filters on.
		switch bools := colsOfType(t, vector.Bool); g.pick(3) {
		case 0:
			pol.Denied = pol.Filter[0].Column
		case 1:
			if len(bools) > 0 {
				pol.Denied = bools[0]
			}
		}
		out = append(out, pol)
	}
	return out
}

// --- DML ---

// DML generates one INSERT/UPDATE/DELETE against a managed table.
// Expressions that produce stored values avoid division so stored
// floats stay exactly representable.
func (g *Gen) DML(t *GenTable) string {
	scope := tableScope(t, "")
	switch {
	case g.chance(0.45):
		return g.insert(t)
	case g.chance(0.55):
		return g.update(t, scope)
	default:
		sql := "DELETE FROM " + t.Full
		if g.chance(0.9) {
			sql += " WHERE " + g.predicate(scope, 1)
		}
		return sql
	}
}

func (g *Gen) insert(t *GenTable) string {
	cols := make([]string, 0, len(t.Schema.Fields))
	idxs := make([]int, 0, len(t.Schema.Fields))
	subset := g.chance(0.3)
	for i, f := range t.Schema.Fields {
		if subset && g.chance(0.3) && len(t.Schema.Fields)-i > 1 {
			continue
		}
		cols = append(cols, f.Name)
		idxs = append(idxs, i)
	}
	nRows := 1 + g.intn(4)
	rows := make([]string, nRows)
	for r := range rows {
		vals := make([]string, len(cols))
		for i, ci := range idxs {
			f := t.Schema.Fields[ci]
			if g.chance(0.12) {
				vals[i] = "NULL"
				continue
			}
			switch f.Type {
			case vector.Int64:
				vals[i] = strconv.Itoa(g.intn(50))
			case vector.Float64:
				if g.chance(0.3) {
					vals[i] = strconv.Itoa(g.intn(40)) // int literal coerces
				} else {
					vals[i] = renderValue(g.dyadic())
				}
			case vector.String:
				vals[i] = renderValue(vector.StringValue(stringPool[g.intn(len(stringPool))]))
			case vector.Bool:
				vals[i] = renderValue(vector.BoolValue(g.chance(0.5)))
			case vector.Timestamp:
				vals[i] = strconv.Itoa(20240100 + g.intn(100))
			}
		}
		rows[r] = "(" + strings.Join(vals, ", ") + ")"
	}
	return "INSERT INTO " + t.Full + " (" + strings.Join(cols, ", ") + ") VALUES " + strings.Join(rows, ", ")
}

func (g *Gen) update(t *GenTable, scope []scopeCol) string {
	n := 1 + g.intn(2)
	perm := g.perm(len(scope))
	var sets []string
	for i := 0; i < n && i < len(scope); i++ {
		c := scope[perm[i]]
		var expr string
		switch c.typ {
		case vector.Int64:
			if g.chance(0.5) {
				expr = c.name + " + " + strconv.Itoa(g.intn(5))
			} else {
				expr = strconv.Itoa(g.intn(50))
			}
		case vector.Float64:
			switch g.pick(3) {
			case 0:
				expr = c.name + " * 2"
			case 1:
				expr = strconv.Itoa(g.intn(30)) // int into float column
			default:
				expr = renderValue(g.dyadic())
			}
		case vector.String:
			if g.chance(0.4) {
				expr = c.name + " + 'x'"
			} else {
				expr = renderValue(vector.StringValue(stringPool[g.intn(len(stringPool))]))
			}
		case vector.Bool:
			expr = renderValue(vector.BoolValue(g.chance(0.5)))
		case vector.Timestamp:
			expr = strconv.Itoa(20240100 + g.intn(100))
		}
		sets = append(sets, c.name+" = "+expr)
	}
	sql := "UPDATE " + t.Full + " SET " + strings.Join(sets, ", ")
	if g.chance(0.85) {
		sql += " WHERE " + g.predicate(scope, 1)
	}
	return sql
}

// CTAS generates a CREATE OR REPLACE TABLE over the managed table and
// returns the resulting table shape so later queries can target it.
// Items are plain column projections (plus one optional arithmetic
// column), all aliased, so the result schema is statically known.
func (g *Gen) CTAS(src *GenTable, name string) (string, *GenTable) {
	scope := tableScope(src, "")
	perm := g.perm(len(scope))
	n := 2 + g.intn(len(scope)-1)
	var items []string
	var fields []vector.Field
	for i := 0; i < n && i < len(scope); i++ {
		c := scope[perm[i]]
		g.seq++
		alias := fmt.Sprintf("cx%d", g.seq)
		items = append(items, c.name+" AS "+alias)
		fields = append(fields, vector.Field{Name: alias, Type: c.typ})
	}
	if g.chance(0.4) {
		ints := make([]scopeCol, 0, len(scope))
		for _, c := range scope {
			if c.typ == vector.Int64 {
				ints = append(ints, c)
			}
		}
		if len(ints) > 0 {
			c := ints[g.intn(len(ints))]
			g.seq++
			alias := fmt.Sprintf("cx%d", g.seq)
			items = append(items, "("+c.name+" * 3) AS "+alias)
			fields = append(fields, vector.Field{Name: alias, Type: vector.Int64})
		}
	}
	sql := "CREATE OR REPLACE TABLE " + name + " AS SELECT " + strings.Join(items, ", ") + " FROM " + src.Full
	if g.chance(0.5) {
		sql += " WHERE " + g.predicate(scope, 1)
	}
	out := &GenTable{Full: name, Managed: true, Schema: vector.Schema{Fields: fields}}
	return sql, out
}
