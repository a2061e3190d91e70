package sqlparse

import (
	"maps"
	"slices"
	"strconv"
	"strings"

	"biglake/internal/vector"
)

// A Template is a parsed statement with its literals lifted out, so a
// statement of the same shape (Lexed.Key) is bound to its own literals
// instead of parsed. Its skeleton is the statement's AST with a hole
// where each slot's literal goes; the slot table beside it maps each
// hole to the token it is bound from. A slot is a number or string
// token that the expression grammar turned into a Literal (a minus
// folded into a number included). Every other literal token — a LIMIT
// count, a TIMESTAMP('…') argument — is fixed: a statement binds only
// if its fixed tokens match the template's verbatim.
//
// A Template is immutable and safe to share: Bind copies the path from
// the root to each hole and shares every literal-free subtree.
type Template struct {
	skel  Statement
	slots []slot
	fixed []fixedTok
	// unbound lists the slots no hole stands for (the first of two SET
	// assignments to one column): they are only checked to parse.
	unbound []int
	nToks   int
}

// slot is one literal of a template: the token it is bound from, and
// whether a minus before that token folded into it.
type slot struct {
	tok int
	neg bool
}

// fixedTok is a literal token a bound statement must repeat verbatim.
type fixedTok struct {
	tok  int
	text string
}

// hole stands for slot n's literal in a template's skeleton. It never
// leaves the package: Bind replaces every hole with a Literal.
type hole struct{ n int }

func (hole) expr() {}

func (h hole) String() string { return "?" + strconv.Itoa(h.n) }

// Parse parses the lexed statement into a template of its shape and
// the statement bound from it, which equals Parse of the same text.
func (lx *Lexed) Parse() (*Template, Statement, error) {
	p := parser{toks: lx.toks, tmpl: true}
	skel, err := p.parse()
	if err != nil {
		return nil, nil, err
	}
	t := &Template{skel: skel, slots: p.slots, nToks: len(lx.toks)}
	next := 0 // slots are recorded in token order
	for i, tok := range lx.toks {
		if tok.kind != tokNumber && tok.kind != tokString {
			continue
		}
		if next < len(t.slots) && t.slots[next].tok == i {
			next++
			continue
		}
		t.fixed = append(t.fixed, fixedTok{tok: i, text: tok.text})
	}
	b := binder{toks: lx.toks, slots: t.slots, ok: true, seen: make([]bool, len(t.slots))}
	stmt := b.stmt(skel)
	for n, seen := range b.seen {
		if !seen {
			t.unbound = append(t.unbound, n)
		}
	}
	return t, stmt, nil
}

// Bind returns the statement the template's shape makes of lx, which
// must have the template's key. It reports false when lx cannot be
// bound — a fixed token differs, or a literal is out of range — and
// the caller parses it in full instead, so its errors are the parser's.
func (t *Template) Bind(lx *Lexed) (Statement, bool) {
	if len(lx.toks) != t.nToks {
		return nil, false
	}
	for _, f := range t.fixed {
		if lx.toks[f.tok].text != f.text {
			return nil, false
		}
	}
	for _, n := range t.unbound {
		if _, ok := tokenValue(lx.toks[t.slots[n].tok], t.slots[n].neg); !ok {
			return nil, false
		}
	}
	b := binder{toks: lx.toks, slots: t.slots, ok: true}
	stmt := b.stmt(t.skel)
	if !b.ok {
		return nil, false
	}
	return stmt, true
}

// literal is a number or string token read as an expression: a Literal,
// or in a template a hole with the token as its slot. A number that
// does not fit its type fails here, in both.
func (p *parser) literal(tok int, neg bool) (Expr, error) {
	v, ok := tokenValue(p.toks[tok], neg)
	if !ok {
		text := p.toks[tok].text
		if neg {
			text = "-" + text
		}
		return nil, p.errf("bad number %q", text)
	}
	if !p.tmpl {
		return Literal{Value: v}, nil
	}
	p.slots = append(p.slots, slot{tok: tok, neg: neg})
	return hole{n: len(p.slots) - 1}, nil
}

// tokenValue is the value of a number or string token, negated when a
// minus folded into it: a number with a '.' is a Float64, any other an
// Int64 (-2^63 included), a string a String.
func tokenValue(t token, neg bool) (vector.Value, bool) {
	if t.kind == tokString {
		return vector.StringValue(t.text), true
	}
	if strings.IndexByte(t.text, '.') >= 0 {
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return vector.Value{}, false
		}
		if neg {
			f = -f
		}
		return vector.FloatValue(f), true
	}
	u, err := strconv.ParseUint(t.text, 10, 64)
	switch {
	case err != nil, u > 1<<63, u == 1<<63 && !neg:
		return vector.Value{}, false
	case neg:
		return vector.IntValue(int64(-u)), true
	}
	return vector.IntValue(int64(u)), true
}

// binder copies a skeleton with its holes bound to one statement's
// tokens. Each method returns its node and whether the node changed; an
// unchanged node is the skeleton's own, shared.
type binder struct {
	toks  []token
	slots []slot
	ok    bool   // false once a literal failed to bind
	seen  []bool // when set, marks each slot a hole stood for
}

func (b *binder) stmt(s Statement) Statement {
	switch st := s.(type) {
	case *SelectStmt:
		sel, _ := b.sel(st)
		return sel
	case *InsertStmt:
		rows, rc := bindEach(st.Rows, func(row []Expr) ([]Expr, bool) { return bindEach(row, b.expr) })
		sel, sc := b.sel(st.Select)
		if !rc && !sc {
			return st
		}
		return &InsertStmt{Table: st.Table, Columns: st.Columns, Rows: rows, Select: sel}
	case *UpdateStmt:
		where, wc := b.expr(st.Where)
		var set map[string]Expr
		for col, e := range st.Set {
			if ne, c := b.expr(e); c {
				if set == nil {
					set = maps.Clone(st.Set)
				}
				set[col] = ne
			}
		}
		if !wc && set == nil {
			return st
		}
		if set == nil {
			set = st.Set
		}
		return &UpdateStmt{Table: st.Table, Set: set, Where: where}
	case *DeleteStmt:
		where, wc := b.expr(st.Where)
		if !wc {
			return st
		}
		return &DeleteStmt{Table: st.Table, Where: where}
	case *CreateTableAsStmt:
		sel, sc := b.sel(st.Select)
		if !sc {
			return st
		}
		return &CreateTableAsStmt{Table: st.Table, OrReplace: st.OrReplace, Select: sel}
	}
	return s // BEGIN, COMMIT, ROLLBACK
}

func (b *binder) sel(s *SelectStmt) (*SelectStmt, bool) {
	if s == nil {
		return nil, false
	}
	items, ic := bindEach(s.Items, func(it SelectItem) (SelectItem, bool) {
		e, c := b.expr(it.Expr)
		it.Expr = e
		return it, c
	})
	from, fc := b.ref(s.From)
	joins, jc := bindEach(s.Joins, func(j Join) (Join, bool) {
		tbl, tc := b.ref(j.Table)
		on, oc := b.expr(j.On)
		j.Table, j.On = tbl, on
		return j, tc || oc
	})
	where, wc := b.expr(s.Where)
	group, gc := bindEach(s.GroupBy, b.expr)
	order, oc := bindEach(s.OrderBy, func(o OrderItem) (OrderItem, bool) {
		e, c := b.expr(o.Expr)
		o.Expr = e
		return o, c
	})
	if !ic && !fc && !jc && !wc && !gc && !oc {
		return s, false
	}
	out := *s
	out.Items, out.From, out.Joins, out.Where, out.GroupBy, out.OrderBy = items, from, joins, where, group, order
	return &out, true
}

func (b *binder) ref(r *TableRef) (*TableRef, bool) {
	if r == nil {
		return nil, false
	}
	sub, sc := b.sel(r.Subquery)
	var in *TableRef
	ic := false
	if r.TVF != nil {
		in, ic = b.ref(r.TVF.Input)
	}
	if !sc && !ic {
		return r, false
	}
	out := *r
	out.Subquery = sub
	if ic {
		tvf := *r.TVF
		tvf.Input = in
		out.TVF = &tvf
	}
	return &out, true
}

// bindEach binds each element of xs, copying xs at the first element
// that changes; it reports whether one did.
func bindEach[T any](xs []T, bind func(T) (T, bool)) ([]T, bool) {
	var out []T
	for i, x := range xs {
		if nx, c := bind(x); c {
			if out == nil {
				out = slices.Clone(xs)
			}
			out[i] = nx
		}
	}
	if out == nil {
		return xs, false
	}
	return out, true
}

func (b *binder) expr(e Expr) (Expr, bool) {
	switch x := e.(type) {
	case hole:
		if b.seen != nil {
			b.seen[x.n] = true
		}
		s := b.slots[x.n]
		v, ok := tokenValue(b.toks[s.tok], s.neg)
		if !ok {
			b.ok = false
		}
		return Literal{Value: v}, true
	case Binary:
		l, lc := b.expr(x.L)
		r, rc := b.expr(x.R)
		if !lc && !rc {
			return e, false
		}
		return Binary{Op: x.Op, L: l, R: r}, true
	case Not:
		in, c := b.expr(x.E)
		if !c {
			return e, false
		}
		return Not{E: in}, true
	case Call:
		args, c := bindEach(x.Args, b.expr)
		if !c {
			return e, false
		}
		x.Args = args
		return x, true
	}
	return e, false // nil, ColumnRef, Literal
}
