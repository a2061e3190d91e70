package engine_test

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"biglake/internal/engine"
	"biglake/internal/oracle"
	"biglake/internal/sqlparse"
)

// benchShapes restates the benchmark's statement shapes (benchmark/
// workloads.go), one text each.
var benchShapes = []string{
	"SELECT COUNT(*) AS n, SUM(amount) AS amt, SUM(price) AS rev FROM bench.orders WHERE id BETWEEN 100 AND 1099",
	"SELECT id, amount, price FROM bench.orders WHERE id = 4242",
	"SELECT k, COUNT(*) AS n, SUM(amount) AS amt FROM bench.fact WHERE amount >= 7 GROUP BY k ORDER BY k",
	"SELECT k, amount, price FROM bench.fact WHERE amount >= 7 ORDER BY price DESC, amount DESC LIMIT 100",
	"SELECT d.grp, COUNT(*) AS n, SUM(f.amount) AS amt, SUM(f.price) AS rev FROM bench.fact AS f JOIN bench.dim AS d ON f.k = d.k WHERE f.amount >= 7 GROUP BY d.grp ORDER BY d.grp",
	"SELECT id, c2 FROM bench.wide WHERE part >= 3 AND part < 7 AND c2 < 100 LIMIT 10",
	"SELECT id, c2, f10, s14 FROM bench.wide WHERE part = 3",
	"SELECT COUNT(*) AS n, SUM(c3) AS s3, SUM(f10) AS sf FROM bench.wide WHERE part = 3",
	insertValues(64),
	"INSERT INTO bench.audit VALUES (3, 192, 64)",
	"BEGIN",
	"COMMIT",
	"SELECT id, amount FROM bench.events WHERE id = 17",
	"SELECT COUNT(*) AS n, SUM(amount) AS amt FROM bench.events WHERE id BETWEEN 17 AND 216",
	"SELECT COUNT(*) AS n, SUM(amount) AS amt FROM bench.events",
}

// insertValues is an ingest_mix INSERT of n rows.
func insertValues(n int) string {
	var sb strings.Builder
	sb.WriteString("INSERT INTO bench.events VALUES ")
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d, %d, 'tag%02d')", 1000+i, i%8, 17*i, i%16)
	}
	return sb.String()
}

// shapeTexts is every statement the shape cache must treat exactly as
// the parser does: the parser corpus (well-formed and malformed), the
// statements the oracle's generator draws for seeds 1–20, and the
// benchmark's shapes.
func shapeTexts(t testing.TB) []string {
	data, err := os.ReadFile("../sqlparse/testdata/corpus.json")
	if err != nil {
		t.Fatal(err)
	}
	var corpus struct{ Parse, Malformed []struct{ SQL string } }
	if err := json.Unmarshal(data, &corpus); err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, c := range append(corpus.Parse, corpus.Malformed...) {
		out = append(out, c.SQL)
	}
	for seed := uint64(1); seed <= 20; seed++ {
		gen := oracle.NewGen(seed)
		tables := gen.Tables()
		for i := 0; i < 30; i++ {
			out = append(out, gen.Query(tables).SQL)
		}
		for _, q := range oracle.NewGen(seed ^ 0xC01C01C01).ProjectionQueries(tables) {
			out = append(out, q.SQL)
		}
		var managed *oracle.GenTable
		for _, tb := range tables {
			if tb.Managed {
				managed = tb
			}
		}
		stars := oracle.NewGen(seed ^ 0x57A257A2)
		stars.StarTables()
		for _, q := range stars.StarQueries(managed) {
			out = append(out, q.SQL)
		}
		for i := 0; i < 8; i++ {
			out = append(out, gen.DML(managed))
		}
		ctas, _ := gen.CTAS(managed, "ds.c0")
		out = append(out, ctas)
	}
	return append(out, benchShapes...)
}

// Replacement literals. A family keeps each literal's sign, so its
// texts share a shape; the values cover 0, 2^53+1, the int64 extremes,
// an int64 overflow, −0.0 and strings holding doubled quotes.
var (
	posInts   = []string{"0", "9007199254740993", "9223372036854775807", "9223372036854775808", "42"}
	negInts   = []string{"-1", "-9223372036854775808", "-9223372036854775809", "-0", "-42"}
	posFloats = []string{"0.0", "2.5", "9007199254740993.0", "0.125"}
	negFloats = []string{"-0.0", "-1.5", "-2.25", "-9007199254740993.0"}
	strLits   = []string{"''", "'it''s'", "''''", "'x'", "'a''b''c'"}
)

// freshLiterals rewrites every number and string literal of sql with
// one drawn by (neg, k): negative numbers when neg (except after a
// minus, which already makes the literal negative), non-negative ones
// otherwise. Identifiers, quoted identifiers and comments are kept.
func freshLiterals(sql string, neg bool, k int) string {
	var sb strings.Builder
	pick := func(pool []string, n int) string { return pool[(k+n)%len(pool)] }
	n := 0
	for i := 0; i < len(sql); {
		c := sql[i]
		j := i + 1
		switch {
		case c == '-' && j < len(sql) && sql[j] == '-':
			for j < len(sql) && sql[j] != '\n' {
				j++
			}
		case c == '`':
			for j < len(sql) && sql[j] != '`' {
				j++
			}
			j = min(j+1, len(sql))
		case c == '_' || c >= 0x80 || (c|0x20) >= 'a' && (c|0x20) <= 'z':
			for j < len(sql) && (sql[j] == '_' || sql[j] >= 0x80 || (sql[j]|0x20) >= 'a' && (sql[j]|0x20) <= 'z' || sql[j] >= '0' && sql[j] <= '9') {
				j++
			}
		case c == '\'':
			for j < len(sql) {
				if sql[j] == '\'' {
					if j+1 < len(sql) && sql[j+1] == '\'' {
						j += 2
						continue
					}
					j++
					break
				}
				j++
			}
			if sql[j-1] == '\'' && j-1 > i {
				sb.WriteString(pick(strLits, n))
				n++
				i = j
				continue
			}
		case c >= '0' && c <= '9':
			dot := false
			for j < len(sql) && (sql[j] >= '0' && sql[j] <= '9' || sql[j] == '.' && !dot) {
				dot = dot || sql[j] == '.'
				j++
			}
			afterMinus := strings.HasSuffix(strings.TrimRight(sb.String(), " "), "-")
			pools := map[[2]bool][]string{{false, false}: posInts, {false, true}: negInts, {true, false}: posFloats, {true, true}: negFloats}
			lit := pick(pools[[2]bool{dot, neg && !afterMinus}], n)
			n++
			sb.WriteString(lit)
			i = j
			continue
		}
		sb.WriteString(sql[i:j])
		i = j
	}
	return sb.String()
}

// floatBits lists the bits of every float an AST holds, in a fixed
// walk order: reflect.DeepEqual takes −0 for 0.
func floatBits(v reflect.Value, out []uint64) []uint64 {
	switch v.Kind() {
	case reflect.Float64:
		return append(out, math.Float64bits(v.Float()))
	case reflect.Pointer, reflect.Interface:
		if !v.IsNil() {
			return floatBits(v.Elem(), out)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			out = floatBits(v.Field(i), out)
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			out = floatBits(v.Index(i), out)
		}
	case reflect.Map:
		keys := v.MapKeys()
		sort.Slice(keys, func(a, b int) bool { return keys[a].String() < keys[b].String() })
		for _, k := range keys {
			out = floatBits(v.MapIndex(k), out)
		}
	}
	return out
}

// checkParse parses sql through e and requires what sqlparse.Parse
// makes of it: the same AST (floats bit for bit) or the same error
// text. It reports whether the engine served a cache hit.
func checkParse(t testing.TB, e *engine.Engine, sql string) bool {
	t.Helper()
	got, hit, gerr := e.Parse(sql)
	want, werr := sqlparse.Parse(sql)
	switch {
	case gerr != nil || werr != nil:
		if gerr == nil || werr == nil || gerr.Error() != werr.Error() {
			t.Fatalf("%q: Engine.Parse error %v (hit %v), sqlparse.Parse error %v", sql, gerr, hit, werr)
		}
	case !reflect.DeepEqual(got, want):
		t.Fatalf("%q: Engine.Parse (hit %v) = %#v, sqlparse.Parse = %#v", sql, hit, got, want)
	case !reflect.DeepEqual(floatBits(reflect.ValueOf(got), nil), floatBits(reflect.ValueOf(want), nil)):
		t.Fatalf("%q: Engine.Parse (hit %v) floats differ in sign or bits from sqlparse.Parse", sql, hit)
	}
	return hit
}

// TestShapeCacheMatchesParse: a statement served from the shape cache
// is exactly the statement sqlparse.Parse makes of its text, and an
// error is the parser's error, byte for byte — for every corpus
// statement, every statement the oracle draws for seeds 1–20 and every
// benchmark shape, each re-parsed with fresh literals.
func TestShapeCacheMatchesParse(t *testing.T) {
	e := new(engine.Engine)
	texts := shapeTexts(t)
	hits, variants := 0, 0
	for _, sql := range texts {
		checkParse(t, e, sql)
		for _, neg := range []bool{false, true} {
			for k := 0; k < 4; k++ {
				variants++
				if checkParse(t, e, freshLiterals(sql, neg, k)) {
					hits++
				}
			}
		}
		if !checkParse(t, e, sql) && !strings.Contains(sql, "TIMESTAMP") && !strings.Contains(sql, "LIMIT") {
			if _, err := sqlparse.Parse(sql); err == nil {
				t.Fatalf("%q: repeated text missed the cache", sql)
			}
		}
	}
	t.Logf("%d texts, %d variants, %d served from the cache", len(texts), variants, hits)
	if hits < variants/2 {
		t.Fatalf("only %d of %d same-shape variants hit the cache", hits, variants)
	}
}

// FuzzShapeCache: any text, then the same text with fresh literals,
// parse through the shape cache exactly as sqlparse.Parse parses them.
func FuzzShapeCache(f *testing.F) {
	for _, sql := range shapeTexts(f) {
		f.Add(sql, false, uint8(0))
	}
	f.Fuzz(func(t *testing.T, sql string, neg bool, k uint8) {
		e := new(engine.Engine)
		checkParse(t, e, sql)
		checkParse(t, e, freshLiterals(sql, neg, int(k)))
		checkParse(t, e, freshLiterals(sql, neg, int(k)+1))
	})
}

// BenchmarkParse: Engine.Parse of a point lookup and a 64-row INSERT,
// as a miss (every text a new shape: a fresh engine per op) and as a hit
// (the shape cached, fresh literals each op).
func BenchmarkParse(b *testing.B) {
	shapes := map[string]func(i int) string{
		"point":     func(i int) string { return fmt.Sprintf("SELECT id, amount, price FROM bench.orders WHERE id = %d", i) },
		"insert-64": func(i int) string { return strings.Replace(insertValues(64), "(1000,", fmt.Sprintf("(%d,", i), 1) },
	}
	for _, name := range []string{"point", "insert-64"} {
		text := shapes[name]
		sqls := make([]string, 256)
		for i := range sqls {
			sqls[i] = text(i)
		}
		b.Run(name+"/miss", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := new(engine.Engine).Parse(sqls[i%len(sqls)]); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/hit", func(b *testing.B) {
			e := new(engine.Engine)
			if _, _, err := e.Parse(sqls[0]); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, hit, err := e.Parse(sqls[i%len(sqls)]); err != nil || !hit {
					b.Fatal(err, hit)
				}
			}
		})
	}
}
