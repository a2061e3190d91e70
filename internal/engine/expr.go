package engine

import (
	"fmt"
	"strings"

	"biglake/internal/sqlparse"
	"biglake/internal/vector"
)

// resolveColumn finds the schema index a column reference names.
// Scans over multiple tables qualify fields as "alias.col"; bare refs
// resolve by exact match first, then by unique ".col" suffix.
func resolveColumn(schema vector.Schema, ref sqlparse.ColumnRef) (int, error) {
	if ref.Table != "" {
		want := ref.Table + "." + ref.Name
		if i := schema.Index(want); i >= 0 {
			return i, nil
		}
		return -1, fmt.Errorf("%w: unknown column %s", ErrSemantic, want)
	}
	if i := schema.Index(ref.Name); i >= 0 {
		return i, nil
	}
	found := -1
	for i, f := range schema.Fields {
		if strings.HasSuffix(f.Name, "."+ref.Name) {
			if found >= 0 {
				return -1, fmt.Errorf("%w: ambiguous column %q", ErrSemantic, ref.Name)
			}
			found = i
		}
	}
	if found < 0 {
		return -1, fmt.Errorf("%w: unknown column %q in %v", ErrSemantic, ref.Name, schema)
	}
	return found, nil
}

// constColumn materializes a literal as an n-row column.
func constColumn(v vector.Value, n int) *vector.Column {
	t := v.Type
	if v.IsNull() {
		t = vector.Int64 // typed NULL column; all rows null
		c := &vector.Column{Type: t, Len: n, Enc: vector.Plain, Ints: make([]int64, n), Nulls: make([]bool, n)}
		for i := range c.Nulls {
			c.Nulls[i] = true
		}
		return c
	}
	c := &vector.Column{Type: t, Len: n, Enc: vector.Plain}
	switch t {
	case vector.Int64, vector.Timestamp:
		c.Ints = make([]int64, n)
		for i := range c.Ints {
			c.Ints[i] = v.I
		}
	case vector.Float64:
		c.Floats = make([]float64, n)
		for i := range c.Floats {
			c.Floats[i] = v.F
		}
	case vector.Bool:
		c.Bools = make([]bool, n)
		for i := range c.Bools {
			c.Bools[i] = v.B
		}
	case vector.String, vector.Bytes:
		c.Strs = make([]string, n)
		for i := range c.Strs {
			c.Strs[i] = v.S
		}
	}
	return c
}

// evalExpr evaluates a scalar expression over a batch, producing one
// column of b.N rows. Aggregate calls are rejected here — they are
// handled by the aggregation operator.
func (e *Engine) evalExpr(ctx *QueryContext, b *vector.Batch, expr sqlparse.Expr) (*vector.Column, error) {
	switch ex := expr.(type) {
	case sqlparse.ColumnRef:
		i, err := resolveColumn(b.Schema, ex)
		if err != nil {
			return nil, err
		}
		return b.Cols[i], nil
	case sqlparse.Literal:
		return constColumn(ex.Value, b.N), nil
	case sqlparse.Not:
		return e.boolCol(ctx, b, ex)
	case sqlparse.Binary:
		if isBoolOp(ex.Op) {
			return e.boolCol(ctx, b, ex)
		}
		switch ex.Op {
		case "+", "-", "*", "/":
			l, err := e.evalExpr(ctx, b, ex.L)
			if err != nil {
				return nil, err
			}
			r, err := e.evalExpr(ctx, b, ex.R)
			if err != nil {
				return nil, err
			}
			return arith(ctx.mem.Allocator(), ex.Op, l, r)
		}
		return nil, fmt.Errorf("%w: operator %q", ErrUnsupported, ex.Op)
	case sqlparse.Call:
		if sqlparse.AggregateFuncs[ex.Name] {
			return nil, fmt.Errorf("%w: aggregate %s outside GROUP BY context", ErrSemantic, ex.Name)
		}
		fn, ok := e.scalar(ex.Name)
		if !ok {
			return nil, fmt.Errorf("%w: %s", ErrNoSuchFunc, ex.Name)
		}
		args := make([]*vector.Column, len(ex.Args))
		for i, a := range ex.Args {
			c, err := e.evalExpr(ctx, b, a)
			if err != nil {
				return nil, err
			}
			args[i] = c
		}
		return fn(ctx, args)
	}
	return nil, fmt.Errorf("%w: expression %T", ErrUnsupported, expr)
}

var cmpOpMap = map[string]vector.CmpOp{
	"=": vector.EQ, "!=": vector.NE, "<": vector.LT, "<=": vector.LE, ">": vector.GT, ">=": vector.GE,
}

// isBoolOp reports whether a binary operator yields a boolean: those
// are evaluated by evalBool, as masks.
func isBoolOp(op string) bool {
	_, cmp := cmpOpMap[op]
	return cmp || op == "AND" || op == "OR"
}

// boolCol evaluates a boolean expression used as a value (a projected
// condition) and wraps its mask in a column, carrying the pooled flag
// so it is detached if it escapes into the result batch.
func (e *Engine) boolCol(ctx *QueryContext, b *vector.Batch, expr sqlparse.Expr) (*vector.Column, error) {
	mask, err := e.evalBool(ctx, b, expr)
	if err != nil {
		return nil, err
	}
	c := vector.NewBoolColumn(mask)
	c.Pooled = ctx.mem.Pooled()
	return c, nil
}

// evalBool evaluates an expression that must produce booleans and
// returns it as a selection mask (NULL = false). Comparisons, AND, OR
// and NOT stay masks from the compare kernel up — no Bool column is
// built and read back in between. The mask is always fresh, from the
// query's allocator, so each node combines into its operand's in place.
func (e *Engine) evalBool(ctx *QueryContext, b *vector.Batch, expr sqlparse.Expr) ([]bool, error) {
	al := ctx.mem.Allocator()
	switch ex := expr.(type) {
	case sqlparse.Not:
		mask, err := e.evalBool(ctx, b, ex.E)
		if err != nil {
			return nil, err
		}
		for i, v := range mask {
			mask[i] = !v
		}
		return mask, nil
	case sqlparse.Binary:
		if ex.Op == "AND" || ex.Op == "OR" {
			l, err := e.evalBool(ctx, b, ex.L)
			if err != nil {
				return nil, err
			}
			r, err := e.evalBool(ctx, b, ex.R)
			if err != nil {
				return nil, err
			}
			if ex.Op == "AND" {
				for i := range l {
					l[i] = l[i] && r[i]
				}
			} else {
				for i := range l {
					l[i] = l[i] || r[i]
				}
			}
			return l, nil
		}
		if op, ok := cmpOpMap[ex.Op]; ok {
			// Use the constant kernel when one side is a literal (the
			// vectorized fast path).
			if lit, ok := ex.R.(sqlparse.Literal); ok {
				l, err := e.evalExpr(ctx, b, ex.L)
				if err != nil {
					return nil, err
				}
				return vector.CompareConstWith(al, l, op, lit.Value), nil
			}
			if lit, ok := ex.L.(sqlparse.Literal); ok {
				r, err := e.evalExpr(ctx, b, ex.R)
				if err != nil {
					return nil, err
				}
				return vector.CompareConstWith(al, r, flipOp(op), lit.Value), nil
			}
			l, err := e.evalExpr(ctx, b, ex.L)
			if err != nil {
				return nil, err
			}
			r, err := e.evalExpr(ctx, b, ex.R)
			if err != nil {
				return nil, err
			}
			return vector.CompareCols(al, l, r, op)
		}
	}
	c, err := e.evalExpr(ctx, b, expr)
	if err != nil {
		return nil, err
	}
	if c.Type != vector.Bool {
		return nil, fmt.Errorf("%w: expected BOOL condition, got %v", ErrSemantic, c.Type)
	}
	return vector.TruthMask(al, c), nil
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
	return op // EQ, NE symmetric
}

func numericType(t vector.Type) bool {
	return t == vector.Int64 || t == vector.Float64 || t == vector.Timestamp
}

// arith computes elementwise arithmetic. Integer inputs stay integer
// except for '/', which is float.
func arith(al vector.Alloc, op string, l, r *vector.Column) (*vector.Column, error) {
	if l.Len != r.Len {
		return nil, fmt.Errorf("%w: arithmetic over different lengths", ErrSemantic)
	}
	concat := op == "+" && (l.Type == vector.String || r.Type == vector.String)
	if !concat && (!numericType(l.Type) || !numericType(r.Type)) {
		return nil, fmt.Errorf("%w: arithmetic over %v and %v", ErrSemantic, l.Type, r.Type)
	}
	return vector.Arith(al, op[0], l, r)
}

// outputName picks the column name for a select item.
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
