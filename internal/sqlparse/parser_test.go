package sqlparse

import (
	"math"
	"strings"
	"testing"

	"biglake/internal/vector"
)

func mustSelect(t *testing.T, src string) *SelectStmt {
	t.Helper()
	sel, err := ParseSelect(src)
	if err != nil {
		t.Fatalf("ParseSelect(%q): %v", src, err)
	}
	return sel
}

func TestSimpleSelect(t *testing.T) {
	sel := mustSelect(t, "SELECT a, b FROM ds.t")
	if len(sel.Items) != 2 || sel.From.Name != "ds.t" {
		t.Fatalf("sel = %+v", sel)
	}
	if sel.Items[0].Expr.(ColumnRef).Name != "a" {
		t.Fatal("first item")
	}
	if sel.Limit != -1 {
		t.Fatal("limit default")
	}
}

func TestSelectStar(t *testing.T) {
	sel := mustSelect(t, "SELECT * FROM ds.t")
	if !sel.Items[0].Star {
		t.Fatal("star")
	}
}

func TestSelectNoFrom(t *testing.T) {
	sel := mustSelect(t, "SELECT 1 + 2 AS three")
	if sel.From != nil || sel.Items[0].Alias != "three" {
		t.Fatalf("sel = %+v", sel)
	}
}

func TestWherePrecedence(t *testing.T) {
	sel := mustSelect(t, "SELECT a FROM t WHERE x = 1 OR y = 2 AND z = 3")
	or, ok := sel.Where.(Binary)
	if !ok || or.Op != "OR" {
		t.Fatalf("where = %v", sel.Where)
	}
	and, ok := or.R.(Binary)
	if !ok || and.Op != "AND" {
		t.Fatalf("AND should bind tighter: %v", sel.Where)
	}
}

func TestArithmeticPrecedence(t *testing.T) {
	sel := mustSelect(t, "SELECT a + b * c FROM t")
	add := sel.Items[0].Expr.(Binary)
	if add.Op != "+" {
		t.Fatalf("expr = %v", add)
	}
	if mul := add.R.(Binary); mul.Op != "*" {
		t.Fatalf("* should bind tighter: %v", add)
	}
}

func TestParenthesesOverridePrecedence(t *testing.T) {
	sel := mustSelect(t, "SELECT (a + b) * c FROM t")
	mul := sel.Items[0].Expr.(Binary)
	if mul.Op != "*" {
		t.Fatalf("expr = %v", mul)
	}
	if add := mul.L.(Binary); add.Op != "+" {
		t.Fatalf("paren group lost: %v", mul)
	}
}

func TestNotAndComparisons(t *testing.T) {
	sel := mustSelect(t, "SELECT a FROM t WHERE NOT x >= 5 AND y <> 'q'")
	and := sel.Where.(Binary)
	if _, ok := and.L.(Not); !ok {
		t.Fatalf("NOT lost: %v", and)
	}
	ne := and.R.(Binary)
	if ne.Op != "!=" {
		t.Fatalf("<> should normalize to != : %v", ne)
	}
}

func TestLiterals(t *testing.T) {
	sel := mustSelect(t, "SELECT 42, 3.5, 'it''s', TRUE, FALSE, NULL FROM t")
	vals := []vector.Value{
		vector.IntValue(42), vector.FloatValue(3.5), vector.StringValue("it's"),
		vector.BoolValue(true), vector.BoolValue(false), vector.NullValue,
	}
	for i, want := range vals {
		lit, ok := sel.Items[i].Expr.(Literal)
		if !ok || !lit.Value.Equal(want) {
			t.Fatalf("item %d = %v, want %v", i, sel.Items[i].Expr, want)
		}
	}
}

func TestNegativeNumbers(t *testing.T) {
	// A minus before a number folds into one literal; before anything
	// else it stays 0 - x.
	sel := mustSelect(t, "SELECT a FROM t WHERE x > -5")
	if lit, ok := sel.Where.(Binary).R.(Literal); !ok || lit.Value.AsInt() != -5 {
		t.Fatalf("negative literal = %v", sel.Where.(Binary).R)
	}
	sel = mustSelect(t, "SELECT -9223372036854775808, -0.0, - 2.5, -a, -(1), 3 - -1 FROM t")
	if v := sel.Items[0].Expr.(Literal).Value; v.Type != vector.Int64 || v.I != math.MinInt64 {
		t.Fatalf("-2^63 = %v", v)
	}
	if v := sel.Items[1].Expr.(Literal).Value; v.Type != vector.Float64 || v.F != 0 || !math.Signbit(v.F) {
		t.Fatalf("-0.0 = %v, want negative zero", v)
	}
	if v := sel.Items[2].Expr.(Literal).Value; v.F != -2.5 {
		t.Fatalf("- 2.5 = %v", v)
	}
	for i, want := range []string{"(0 - a)", "(0 - 1)", "(3 - -1)"} {
		if got := sel.Items[3+i].Expr.String(); got != want {
			t.Fatalf("item %d = %s, want %s", 3+i, got, want)
		}
	}
	for _, sql := range []string{"SELECT 9223372036854775808", "SELECT -9223372036854775809"} {
		if _, err := Parse(sql); err == nil || !strings.Contains(err.Error(), "bad number") {
			t.Fatalf("Parse(%q) = %v, want bad number", sql, err)
		}
	}
}

func TestJoins(t *testing.T) {
	sel := mustSelect(t, `SELECT o.order_id, ads.id
		FROM local_dataset.ads_impressions AS ads
		JOIN aws_dataset.customer_orders AS o ON o.customer_id = ads.customer_id`)
	if sel.From.Name != "local_dataset.ads_impressions" || sel.From.Alias != "ads" {
		t.Fatalf("from = %+v", sel.From)
	}
	if len(sel.Joins) != 1 {
		t.Fatal("joins")
	}
	j := sel.Joins[0]
	if j.Table.Alias != "o" || j.Kind != InnerJoin {
		t.Fatalf("join = %+v", j)
	}
	on := j.On.(Binary)
	if on.Op != "=" {
		t.Fatalf("on = %v", on)
	}
}

func TestLeftJoin(t *testing.T) {
	sel := mustSelect(t, "SELECT a FROM t1 LEFT OUTER JOIN t2 ON t1.k = t2.k")
	if sel.Joins[0].Kind != LeftJoin {
		t.Fatal("left join kind")
	}
	sel = mustSelect(t, "SELECT a FROM t1 INNER JOIN t2 ON t1.k = t2.k")
	if sel.Joins[0].Kind != InnerJoin {
		t.Fatal("inner join kind")
	}
}

func TestGroupOrderLimit(t *testing.T) {
	sel := mustSelect(t, "SELECT country, COUNT(*) AS n FROM t GROUP BY country ORDER BY n DESC, country LIMIT 10")
	if len(sel.GroupBy) != 1 || sel.GroupBy[0].(ColumnRef).Name != "country" {
		t.Fatalf("group by = %v", sel.GroupBy)
	}
	if len(sel.OrderBy) != 2 || !sel.OrderBy[0].Desc || sel.OrderBy[1].Desc {
		t.Fatalf("order by = %+v", sel.OrderBy)
	}
	if sel.Limit != 10 {
		t.Fatalf("limit = %d", sel.Limit)
	}
	cnt := sel.Items[1].Expr.(Call)
	if cnt.Name != "COUNT" || !cnt.Star || sel.Items[1].Alias != "n" {
		t.Fatalf("count = %+v", cnt)
	}
}

func TestAggregates(t *testing.T) {
	sel := mustSelect(t, "SELECT SUM(amount), MIN(x), MAX(x), AVG(x), COUNT(id) FROM t")
	names := []string{"SUM", "MIN", "MAX", "AVG", "COUNT"}
	for i, n := range names {
		c := sel.Items[i].Expr.(Call)
		if c.Name != n || len(c.Args) != 1 {
			t.Fatalf("item %d = %+v", i, c)
		}
		if !IsAggregate(c) {
			t.Fatalf("%s should be an aggregate", n)
		}
	}
	if IsAggregate(ColumnRef{Name: "x"}) {
		t.Fatal("column is not an aggregate")
	}
}

func TestSubqueryInFrom(t *testing.T) {
	sel := mustSelect(t, "SELECT x FROM (SELECT a AS x FROM t WHERE a > 1) sub")
	if sel.From.Subquery == nil || sel.From.Alias != "sub" {
		t.Fatalf("from = %+v", sel.From)
	}
	if sel.From.Subquery.Items[0].Alias != "x" {
		t.Fatal("inner alias")
	}
}

func TestMLPredictTVF(t *testing.T) {
	// Listing 1 from the paper.
	sel := mustSelect(t, `SELECT uri, predictions FROM
		ML.PREDICT(
			MODEL dataset1.resnet50,
			(
				SELECT ML.DECODE_IMAGE(data) AS image
				FROM dataset1.files
				WHERE content_type = 'image/jpeg'
				AND create_time > TIMESTAMP('23-11-1')
			)
		)`)
	tvf := sel.From.TVF
	if tvf == nil || tvf.Name != "ML.PREDICT" || tvf.Model != "dataset1.resnet50" {
		t.Fatalf("tvf = %+v", tvf)
	}
	inner := tvf.Input.Subquery
	if inner == nil {
		t.Fatal("tvf input should be a subquery")
	}
	decode := inner.Items[0].Expr.(Call)
	if decode.Name != "ML.DECODE_IMAGE" || inner.Items[0].Alias != "image" {
		t.Fatalf("decode = %+v", decode)
	}
	if inner.From.Name != "dataset1.files" {
		t.Fatal("inner from")
	}
	and := inner.Where.(Binary)
	if and.Op != "AND" {
		t.Fatalf("where = %v", inner.Where)
	}
}

func TestMLProcessDocumentTVF(t *testing.T) {
	// Listing 2 from the paper.
	sel := mustSelect(t, `SELECT *
		FROM ML.PROCESS_DOCUMENT(
			MODEL mydataset.invoice_parser,
			TABLE mydataset.documents
		)`)
	tvf := sel.From.TVF
	if tvf == nil || tvf.Name != "ML.PROCESS_DOCUMENT" || tvf.Model != "mydataset.invoice_parser" {
		t.Fatalf("tvf = %+v", tvf)
	}
	if tvf.Input.Name != "mydataset.documents" {
		t.Fatalf("input = %+v", tvf.Input)
	}
}

func TestInsertValues(t *testing.T) {
	stmt, err := Parse("INSERT INTO ds.t (a, b) VALUES (1, 'x'), (2, 'y')")
	if err != nil {
		t.Fatal(err)
	}
	ins := stmt.(*InsertStmt)
	if ins.Table != "ds.t" || len(ins.Columns) != 2 || len(ins.Rows) != 2 {
		t.Fatalf("ins = %+v", ins)
	}
	if ins.Rows[1][1].(Literal).Value.S != "y" {
		t.Fatal("row value")
	}
}

func TestInsertSelect(t *testing.T) {
	stmt, err := Parse("INSERT INTO ds.t SELECT * FROM ds.src")
	if err != nil {
		t.Fatal(err)
	}
	ins := stmt.(*InsertStmt)
	if ins.Select == nil || ins.Select.From.Name != "ds.src" {
		t.Fatalf("ins = %+v", ins)
	}
}

func TestUpdate(t *testing.T) {
	stmt, err := Parse("UPDATE ds.t SET a = 5, b = 'z' WHERE id = 3")
	if err != nil {
		t.Fatal(err)
	}
	upd := stmt.(*UpdateStmt)
	if upd.Table != "ds.t" || len(upd.Set) != 2 || upd.Where == nil {
		t.Fatalf("upd = %+v", upd)
	}
}

// TestUpdateRejectsRepeatedColumn: SQL assigns a column at most once
// per UPDATE; a second assignment is an error, not a silent overwrite.
func TestUpdateRejectsRepeatedColumn(t *testing.T) {
	_, err := Parse("UPDATE t SET a = 1, a = 2")
	if err == nil || !strings.Contains(err.Error(), `column "a" assigned twice`) {
		t.Fatalf("Parse = %v, want a repeated-column error", err)
	}
	if _, err := Parse("UPDATE t SET a = 1, b = 2"); err != nil {
		t.Fatal(err)
	}
}

func TestDelete(t *testing.T) {
	stmt, err := Parse("DELETE FROM ds.t WHERE id < 100")
	if err != nil {
		t.Fatal(err)
	}
	del := stmt.(*DeleteStmt)
	if del.Table != "ds.t" || del.Where == nil {
		t.Fatalf("del = %+v", del)
	}
	stmt, _ = Parse("DELETE FROM ds.t")
	if stmt.(*DeleteStmt).Where != nil {
		t.Fatal("where should be nil")
	}
}

func TestCreateTableAs(t *testing.T) {
	stmt, err := Parse("CREATE OR REPLACE TABLE ds.dst AS SELECT a FROM ds.src WHERE a > 1")
	if err != nil {
		t.Fatal(err)
	}
	cta := stmt.(*CreateTableAsStmt)
	if cta.Table != "ds.dst" || !cta.OrReplace || cta.Select == nil {
		t.Fatalf("cta = %+v", cta)
	}
	stmt, err = Parse("CREATE TABLE ds.d2 AS SELECT 1")
	if err != nil || stmt.(*CreateTableAsStmt).OrReplace {
		t.Fatalf("plain create: %v", err)
	}
}

func TestKeywordsCaseInsensitive(t *testing.T) {
	if _, err := ParseSelect("select a from t where b = 1 group by a order by a limit 5"); err != nil {
		t.Fatal(err)
	}
}

func TestTrailingSemicolon(t *testing.T) {
	if _, err := Parse("SELECT 1;"); err != nil {
		t.Fatal(err)
	}
}

func TestQuotedIdentifiers(t *testing.T) {
	sel := mustSelect(t, "SELECT `weird name` FROM `ds`.`t`")
	if sel.Items[0].Expr.(ColumnRef).Name != "weird name" {
		t.Fatal("quoted column")
	}
	if sel.From.Name != "ds.t" {
		t.Fatalf("from = %q", sel.From.Name)
	}
}

func TestComments(t *testing.T) {
	sel := mustSelect(t, "SELECT a -- comment here\nFROM t")
	if sel.From.Name != "t" {
		t.Fatal("comment handling")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELEKT a FROM t",
		"SELECT a FROM",
		"SELECT a FROM t WHERE",
		"SELECT a FROM t GROUP",
		"SELECT a FROM t LIMIT x",
		"SELECT 'unterminated FROM t",
		"SELECT a FROM t extra garbage (",
		"INSERT INTO t",
		"UPDATE t SET",
		"DELETE t",
		"CREATE TABLE t",
		"SELECT a FROM ML.PREDICT(dataset1.m, TABLE t)", // missing MODEL
		"SELECT a FROM t WHERE x ~ 3",
		"SELECT a FROM t JOIN u",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestParseSelectRejectsDML(t *testing.T) {
	if _, err := ParseSelect("DELETE FROM t"); err == nil {
		t.Fatal("ParseSelect should reject DML")
	}
}

func TestExprStringRoundTrips(t *testing.T) {
	sel := mustSelect(t, "SELECT a FROM t WHERE x = 1 AND NOT y > 2.5 OR name = 'bob'")
	s := sel.Where.String()
	for _, frag := range []string{"x = 1", "NOT", "y > 2.5", "'bob'", "OR"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("String() = %q missing %q", s, frag)
		}
	}
}

func TestImplicitAlias(t *testing.T) {
	sel := mustSelect(t, "SELECT amount total FROM t x")
	if sel.Items[0].Alias != "total" {
		t.Fatalf("implicit column alias = %q", sel.Items[0].Alias)
	}
	if sel.From.Alias != "x" || sel.From.DisplayName() != "x" {
		t.Fatalf("implicit table alias = %+v", sel.From)
	}
}

func TestTimestampLiteral(t *testing.T) {
	sel := mustSelect(t, "SELECT a FROM t WHERE ts > TIMESTAMP('2024-01-15')")
	cmp := sel.Where.(Binary)
	lit := cmp.R.(Literal)
	if lit.Value.Type != vector.Timestamp {
		t.Fatalf("lit = %+v", lit.Value)
	}
	early := mustSelect(t, "SELECT a FROM t WHERE ts > TIMESTAMP('2023-01-15')").Where.(Binary).R.(Literal)
	if early.Value.I >= lit.Value.I {
		t.Fatal("timestamp ordering not preserved")
	}
}

func TestInDesugarsToOr(t *testing.T) {
	sel := mustSelect(t, "SELECT a FROM t WHERE region IN ('us', 'eu', 'jp')")
	or, ok := sel.Where.(Binary)
	if !ok || or.Op != "OR" {
		t.Fatalf("where = %v", sel.Where)
	}
	// Rightmost equality is the last list element.
	eq := or.R.(Binary)
	if eq.Op != "=" || eq.R.(Literal).Value.S != "jp" {
		t.Fatalf("last eq = %v", eq)
	}
	// Single-element IN is a plain equality.
	sel = mustSelect(t, "SELECT a FROM t WHERE x IN (5)")
	if eq := sel.Where.(Binary); eq.Op != "=" || eq.R.(Literal).Value.AsInt() != 5 {
		t.Fatalf("single IN = %v", sel.Where)
	}
}

func TestNotIn(t *testing.T) {
	sel := mustSelect(t, "SELECT a FROM t WHERE x NOT IN (1, 2)")
	not, ok := sel.Where.(Not)
	if !ok {
		t.Fatalf("where = %v", sel.Where)
	}
	if or := not.E.(Binary); or.Op != "OR" {
		t.Fatalf("inner = %v", not.E)
	}
}

func TestBetweenDesugarsToRange(t *testing.T) {
	sel := mustSelect(t, "SELECT a FROM t WHERE x BETWEEN 10 AND 20")
	and := sel.Where.(Binary)
	if and.Op != "AND" {
		t.Fatalf("where = %v", sel.Where)
	}
	lo, hi := and.L.(Binary), and.R.(Binary)
	if lo.Op != ">=" || lo.R.(Literal).Value.AsInt() != 10 {
		t.Fatalf("lo = %v", lo)
	}
	if hi.Op != "<=" || hi.R.(Literal).Value.AsInt() != 20 {
		t.Fatalf("hi = %v", hi)
	}
}

func TestNotBetween(t *testing.T) {
	sel := mustSelect(t, "SELECT a FROM t WHERE x NOT BETWEEN 1 AND 2 AND y = 3")
	and := sel.Where.(Binary)
	if and.Op != "AND" {
		t.Fatalf("where = %v", sel.Where)
	}
	if _, ok := and.L.(Not); !ok {
		t.Fatalf("left = %v", and.L)
	}
}

func TestNotStillWorksAsBooleanNegation(t *testing.T) {
	sel := mustSelect(t, "SELECT a FROM t WHERE NOT x = 1")
	if _, ok := sel.Where.(Not); !ok {
		t.Fatalf("where = %v", sel.Where)
	}
}

func TestInErrors(t *testing.T) {
	for _, bad := range []string{
		"SELECT a FROM t WHERE x IN ()",
		"SELECT a FROM t WHERE x IN (1",
		"SELECT a FROM t WHERE x BETWEEN 1",
		"SELECT a FROM t WHERE x BETWEEN 1 OR 2",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

func TestDatasetNamedMLIsNotATVF(t *testing.T) {
	sel := mustSelect(t, "SELECT uri FROM ml.images")
	if sel.From.TVF != nil || sel.From.Name != "ml.images" {
		t.Fatalf("from = %+v", sel.From)
	}
}
