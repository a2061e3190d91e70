package sqlparse

import (
	"fmt"
	"strconv"
	"strings"

	"biglake/internal/vector"
)

// Parse parses one SQL statement.
func Parse(src string) (Statement, error) {
	lx, err := Lex(src)
	if err != nil {
		return nil, err
	}
	defer lx.Release()
	p := parser{toks: lx.toks}
	return p.parse()
}

// ParseSelect parses a statement and requires it to be a SELECT.
func ParseSelect(src string) (*SelectStmt, error) {
	stmt, err := Parse(src)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*SelectStmt)
	if !ok {
		return nil, fmt.Errorf("sqlparse: expected a SELECT statement")
	}
	return sel, nil
}

type parser struct {
	toks []token
	i    int
	// tmpl parses a template: each number or string literal the
	// expression grammar reads becomes a hole, its token recorded in
	// slots (see template.go).
	tmpl  bool
	slots []slot
}

// parse reads one statement, an optional ';', and the end of input.
func (p *parser) parse() (Statement, error) {
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	p.accept(";")
	if !p.atEOF() {
		return nil, p.errf("trailing input starting at %q", p.peek().text)
	}
	return stmt, nil
}

func (p *parser) peek() token { return p.toks[p.i] }
func (p *parser) atEOF() bool { return p.peek().kind == tokEOF }
func (p *parser) next() token { t := p.toks[p.i]; p.i++; return t }
func (p *parser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("sqlparse: "+format, args...)
}

// isKeyword reports whether the current token is the given keyword
// (case-insensitive).
func (p *parser) isKeyword(kw string) bool {
	t := p.peek()
	return t.kind == tokIdent && strings.EqualFold(t.text, kw)
}

// acceptKeyword consumes the keyword if present.
func (p *parser) acceptKeyword(kw string) bool {
	if p.isKeyword(kw) {
		p.i++
		return true
	}
	return false
}

// expectKeyword consumes the keyword or errors.
func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errf("expected %s, found %q", kw, p.peek().text)
	}
	return nil
}

// accept consumes an operator token if it matches.
func (p *parser) accept(op string) bool {
	t := p.peek()
	if t.kind == tokOp && t.text == op {
		p.i++
		return true
	}
	return false
}

// expect consumes an operator token or errors.
func (p *parser) expect(op string) error {
	if !p.accept(op) {
		return p.errf("expected %q, found %q", op, p.peek().text)
	}
	return nil
}

func (p *parser) parseStatement() (Statement, error) {
	switch {
	case p.isKeyword("SELECT"):
		return p.parseSelect()
	case p.isKeyword("INSERT"):
		return p.parseInsert()
	case p.isKeyword("UPDATE"):
		return p.parseUpdate()
	case p.isKeyword("DELETE"):
		return p.parseDelete()
	case p.isKeyword("CREATE"):
		return p.parseCreateTableAs()
	case p.isKeyword("BEGIN"):
		p.i++
		p.acceptKeyword("TRANSACTION")
		return &BeginStmt{}, nil
	case p.isKeyword("COMMIT"):
		p.i++
		p.acceptKeyword("TRANSACTION")
		return &CommitStmt{}, nil
	case p.isKeyword("ROLLBACK"):
		p.i++
		p.acceptKeyword("TRANSACTION")
		return &RollbackStmt{}, nil
	}
	return nil, p.errf("expected a statement, found %q", p.peek().text)
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	sel := &SelectStmt{Limit: -1}

	// Projection list.
	for {
		if p.accept("*") {
			sel.Items = append(sel.Items, SelectItem{Star: true})
		} else {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := SelectItem{Expr: e}
			if p.acceptKeyword("AS") {
				t := p.next()
				if t.kind != tokIdent {
					return nil, p.errf("expected alias after AS, found %q", t.text)
				}
				item.Alias = t.text
			} else if p.peek().kind == tokIdent && !p.isSelectClauseKeyword() {
				item.Alias = p.next().text
			}
			sel.Items = append(sel.Items, item)
		}
		if !p.accept(",") {
			break
		}
	}

	if p.acceptKeyword("FROM") {
		ref, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		sel.From = ref
		for {
			kind := InnerJoin
			switch {
			case p.acceptKeyword("JOIN"):
			case p.isKeyword("INNER"):
				p.i++
				if err := p.expectKeyword("JOIN"); err != nil {
					return nil, err
				}
			case p.isKeyword("LEFT"):
				p.i++
				p.acceptKeyword("OUTER")
				if err := p.expectKeyword("JOIN"); err != nil {
					return nil, err
				}
				kind = LeftJoin
			default:
				goto joinsDone
			}
			jref, err := p.parseTableRef()
			if err != nil {
				return nil, err
			}
			if err := p.expectKeyword("ON"); err != nil {
				return nil, err
			}
			cond, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			sel.Joins = append(sel.Joins, Join{Kind: kind, Table: jref, On: cond})
		}
	}
joinsDone:

	if p.acceptKeyword("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Where = e
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			sel.GroupBy = append(sel.GroupBy, e)
			if !p.accept(",") {
				break
			}
		}
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.acceptKeyword("DESC") {
				item.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			sel.OrderBy = append(sel.OrderBy, item)
			if !p.accept(",") {
				break
			}
		}
	}
	if p.acceptKeyword("LIMIT") {
		t := p.next()
		if t.kind != tokNumber {
			return nil, p.errf("expected number after LIMIT, found %q", t.text)
		}
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errf("bad LIMIT %q", t.text)
		}
		sel.Limit = n
	}
	return sel, nil
}

// isSelectClauseKeyword guards implicit aliasing against clause
// keywords.
func (p *parser) isSelectClauseKeyword() bool {
	for _, kw := range []string{"FROM", "WHERE", "GROUP", "ORDER", "LIMIT", "JOIN", "INNER", "LEFT", "ON", "AS", "ASC", "DESC"} {
		if p.isKeyword(kw) {
			return true
		}
	}
	return false
}

func (p *parser) parseTableRef() (*TableRef, error) {
	// Subquery.
	if p.accept("(") {
		sub, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		ref := &TableRef{Subquery: sub}
		p.parseOptionalAlias(ref)
		return ref, nil
	}

	t := p.peek()
	if t.kind != tokIdent {
		return nil, p.errf("expected table name, found %q", t.text)
	}

	// ML table-valued functions: `ML.<fn>(` — the trailing paren
	// distinguishes the TVF from an ordinary table in a dataset that
	// happens to be named "ml".
	if strings.EqualFold(t.text, "ML") &&
		p.i+3 < len(p.toks) &&
		p.toks[p.i+1].kind == tokOp && p.toks[p.i+1].text == "." &&
		p.toks[p.i+2].kind == tokIdent &&
		p.toks[p.i+3].kind == tokOp && p.toks[p.i+3].text == "(" {
		return p.parseTVF()
	}

	name := p.next().text
	for p.accept(".") {
		part := p.next()
		if part.kind != tokIdent {
			return nil, p.errf("expected identifier after '.', found %q", part.text)
		}
		name += "." + part.text
	}
	ref := &TableRef{Name: name}
	p.parseOptionalAlias(ref)
	return ref, nil
}

func (p *parser) parseOptionalAlias(ref *TableRef) {
	if p.acceptKeyword("AS") {
		if p.peek().kind == tokIdent {
			ref.Alias = p.next().text
		}
		return
	}
	if p.peek().kind == tokIdent && !p.isSelectClauseKeyword() {
		ref.Alias = p.next().text
	}
}

func (p *parser) parseTVF() (*TableRef, error) {
	p.next() // ML
	if err := p.expect("."); err != nil {
		return nil, err
	}
	fn := p.next()
	if fn.kind != tokIdent {
		return nil, p.errf("expected ML function name, found %q", fn.text)
	}
	name := "ML." + strings.ToUpper(fn.text)
	if err := p.expect("("); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("MODEL"); err != nil {
		return nil, err
	}
	model, err := p.parseDottedName()
	if err != nil {
		return nil, err
	}
	if err := p.expect(","); err != nil {
		return nil, err
	}
	tvf := &TVFCall{Name: name, Model: model}
	switch {
	case p.acceptKeyword("TABLE"):
		tbl, err := p.parseDottedName()
		if err != nil {
			return nil, err
		}
		tvf.Input = &TableRef{Name: tbl}
	case p.accept("("):
		sub, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		tvf.Input = &TableRef{Subquery: sub}
	default:
		return nil, p.errf("expected TABLE or a subquery in %s, found %q", name, p.peek().text)
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	ref := &TableRef{TVF: tvf}
	p.parseOptionalAlias(ref)
	return ref, nil
}

func (p *parser) parseDottedName() (string, error) {
	t := p.next()
	if t.kind != tokIdent {
		return "", p.errf("expected identifier, found %q", t.text)
	}
	name := t.text
	for p.accept(".") {
		part := p.next()
		if part.kind != tokIdent {
			return "", p.errf("expected identifier after '.', found %q", part.text)
		}
		name += "." + part.text
	}
	return name, nil
}

func (p *parser) parseInsert() (Statement, error) {
	p.next() // INSERT
	p.acceptKeyword("INTO")
	table, err := p.parseDottedName()
	if err != nil {
		return nil, err
	}
	ins := &InsertStmt{Table: table}
	if p.accept("(") {
		for {
			t := p.next()
			if t.kind != tokIdent {
				return nil, p.errf("expected column name, found %q", t.text)
			}
			ins.Columns = append(ins.Columns, t.text)
			if !p.accept(",") {
				break
			}
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
	}
	if p.acceptKeyword("VALUES") {
		for {
			if err := p.expect("("); err != nil {
				return nil, err
			}
			var row []Expr
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				row = append(row, e)
				if !p.accept(",") {
					break
				}
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			ins.Rows = append(ins.Rows, row)
			if !p.accept(",") {
				break
			}
		}
		return ins, nil
	}
	if p.isKeyword("SELECT") {
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		ins.Select = sel
		return ins, nil
	}
	return nil, p.errf("expected VALUES or SELECT in INSERT")
}

func (p *parser) parseUpdate() (Statement, error) {
	p.next() // UPDATE
	table, err := p.parseDottedName()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	upd := &UpdateStmt{Table: table, Set: map[string]Expr{}}
	for {
		col := p.next()
		if col.kind != tokIdent {
			return nil, p.errf("expected column in SET, found %q", col.text)
		}
		if _, dup := upd.Set[col.text]; dup {
			return nil, p.errf("column %q assigned twice in SET", col.text)
		}
		if err := p.expect("="); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		upd.Set[col.text] = e
		if !p.accept(",") {
			break
		}
	}
	if p.acceptKeyword("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		upd.Where = e
	}
	return upd, nil
}

func (p *parser) parseDelete() (Statement, error) {
	p.next() // DELETE
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	table, err := p.parseDottedName()
	if err != nil {
		return nil, err
	}
	del := &DeleteStmt{Table: table}
	if p.acceptKeyword("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		del.Where = e
	}
	return del, nil
}

func (p *parser) parseCreateTableAs() (Statement, error) {
	p.next() // CREATE
	orReplace := false
	if p.acceptKeyword("OR") {
		if err := p.expectKeyword("REPLACE"); err != nil {
			return nil, err
		}
		orReplace = true
	}
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	table, err := p.parseDottedName()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("AS"); err != nil {
		return nil, err
	}
	sel, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	return &CreateTableAsStmt{Table: table, OrReplace: orReplace, Select: sel}, nil
}

// Expression grammar (precedence climbing):
//
//	expr    := orExpr
//	orExpr  := andExpr (OR andExpr)*
//	andExpr := notExpr (AND notExpr)*
//	notExpr := NOT notExpr | cmpExpr
//	cmpExpr := addExpr ((= != <> < <= > >=) addExpr)?
//	addExpr := mulExpr ((+ -) mulExpr)*
//	mulExpr := unary ((* /) unary)*
//	unary   := primary
//	primary := literal | - number | - primary | column | call | ( expr )
//
// A minus directly before a number folds into one negative literal
// (-9223372036854775808 included); before anything else it is 0 - x.
func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = Binary{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = Binary{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.acceptKeyword("NOT") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return Not{E: e}, nil
	}
	return p.parseCmp()
}

var cmpOps = map[string]bool{"=": true, "!=": true, "<>": true, "<": true, "<=": true, ">": true, ">=": true}

func (p *parser) parseCmp() (Expr, error) {
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}

	// `x NOT IN (...)` / `x NOT BETWEEN a AND b`.
	if p.isKeyword("NOT") {
		save := p.i
		p.i++
		switch {
		case p.isKeyword("IN"):
			e, err := p.parseIn(l)
			if err != nil {
				return nil, err
			}
			return Not{E: e}, nil
		case p.isKeyword("BETWEEN"):
			e, err := p.parseBetween(l)
			if err != nil {
				return nil, err
			}
			return Not{E: e}, nil
		default:
			p.i = save // the NOT belongs to an outer context
		}
	}
	if p.isKeyword("IN") {
		return p.parseIn(l)
	}
	if p.isKeyword("BETWEEN") {
		return p.parseBetween(l)
	}

	t := p.peek()
	if t.kind == tokOp && cmpOps[t.text] {
		p.i++
		op := t.text
		if op == "<>" {
			op = "!="
		}
		r, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		return Binary{Op: op, L: l, R: r}, nil
	}
	return l, nil
}

// parseIn desugars `x IN (a, b, c)` into `x = a OR x = b OR x = c`, so
// the whole engine (evaluation, pruning) handles it with no new node
// type.
func (p *parser) parseIn(l Expr) (Expr, error) {
	p.i++ // IN
	if err := p.expect("("); err != nil {
		return nil, err
	}
	var out Expr
	for {
		item, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		eq := Binary{Op: "=", L: l, R: item}
		if out == nil {
			out = eq
		} else {
			out = Binary{Op: "OR", L: out, R: eq}
		}
		if !p.accept(",") {
			break
		}
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	if out == nil {
		return nil, p.errf("IN requires at least one value")
	}
	return out, nil
}

// parseBetween desugars `x BETWEEN a AND b` into `x >= a AND x <= b`,
// which the scan layer can push down as two range predicates.
func (p *parser) parseBetween(l Expr) (Expr, error) {
	p.i++ // BETWEEN
	lo, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("AND"); err != nil {
		return nil, err
	}
	hi, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	return Binary{
		Op: "AND",
		L:  Binary{Op: ">=", L: l, R: lo},
		R:  Binary{Op: "<=", L: l, R: hi},
	}, nil
}

func (p *parser) parseAdd() (Expr, error) {
	l, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind != tokOp || (t.text != "+" && t.text != "-") {
			return l, nil
		}
		p.i++
		r, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		l = Binary{Op: t.text, L: l, R: r}
	}
}

func (p *parser) parseMul() (Expr, error) {
	l, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind != tokOp || (t.text != "*" && t.text != "/") {
			return l, nil
		}
		p.i++
		r, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		l = Binary{Op: t.text, L: l, R: r}
	}
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.kind {
	case tokNumber, tokString:
		p.i++
		return p.literal(p.i-1, false)
	case tokOp:
		if t.text == "(" {
			p.i++
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
		if t.text == "-" {
			p.i++
			if p.peek().kind == tokNumber {
				// A minus before a number is part of the literal.
				p.i++
				return p.literal(p.i-1, true)
			}
			e, err := p.parsePrimary()
			if err != nil {
				return nil, err
			}
			return Binary{Op: "-", L: Literal{Value: vector.IntValue(0)}, R: e}, nil
		}
		return nil, p.errf("unexpected %q in expression", t.text)
	case tokIdent:
		switch strings.ToUpper(t.text) {
		case "TRUE":
			p.i++
			return Literal{Value: vector.BoolValue(true)}, nil
		case "FALSE":
			p.i++
			return Literal{Value: vector.BoolValue(false)}, nil
		case "NULL":
			p.i++
			return Literal{Value: vector.NullValue}, nil
		case "TIMESTAMP":
			// TIMESTAMP('...') literal: parse as string payload.
			if p.toks[p.i+1].kind == tokOp && p.toks[p.i+1].text == "(" {
				p.i += 2
				arg := p.next()
				if arg.kind != tokString {
					return nil, p.errf("TIMESTAMP() expects a string literal")
				}
				if err := p.expect(")"); err != nil {
					return nil, err
				}
				return Literal{Value: vector.TimestampValue(hashTimestamp(arg.text))}, nil
			}
		}
		return p.parseIdentExpr()
	}
	return nil, p.errf("unexpected token %q", t.text)
}

// hashTimestamp converts a date-ish string into a monotonic simulated
// timestamp: YYYY-MM-DD maps to nanoseconds preserving order.
func hashTimestamp(s string) int64 {
	var y, m, d int
	if _, err := fmt.Sscanf(s, "%d-%d-%d", &y, &m, &d); err == nil {
		return int64(y)*10000 + int64(m)*100 + int64(d)
	}
	var h int64
	for _, c := range s {
		h = h*31 + int64(c)
	}
	return h
}

// parseIdentExpr handles column refs (a, t.a) and function calls
// (COUNT(x), ML.DECODE_IMAGE(col)).
func (p *parser) parseIdentExpr() (Expr, error) {
	first := p.next().text
	if p.accept("(") {
		return p.finishCall(strings.ToUpper(first))
	}
	if p.accept(".") {
		second := p.next()
		if second.kind != tokIdent {
			return nil, p.errf("expected identifier after '.', found %q", second.text)
		}
		if p.accept("(") {
			return p.finishCall(strings.ToUpper(first) + "." + strings.ToUpper(second.text))
		}
		return ColumnRef{Table: first, Name: second.text}, nil
	}
	return ColumnRef{Name: first}, nil
}

func (p *parser) finishCall(name string) (Expr, error) {
	call := Call{Name: name}
	if p.accept("*") {
		call.Star = true
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		return call, nil
	}
	if p.accept(")") {
		return call, nil
	}
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		call.Args = append(call.Args, e)
		if !p.accept(",") {
			break
		}
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	return call, nil
}
