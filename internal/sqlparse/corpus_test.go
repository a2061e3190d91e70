package sqlparse

// Table-driven grammar corpus (testdata/corpus.json, shared with the
// engine's statement-cache tests): one entry per production, each
// pinned to a canonical re-render of the parsed AST, plus malformed
// inputs pinned to their error text (and, for lexer errors, the byte
// offset). When the differential fuzzer reports a SQL failure this
// corpus triages it: if the shape is covered here, the bug is in the
// engine, not the parser. Desugarings (IN → OR chain, BETWEEN →
// range conjunction, unary minus → 0-x unless it folds into a number
// literal, <> → !=) are visible in the canonical form on purpose.

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
)

// canon renders a parsed statement in a canonical textual form.
func canon(s Statement) string {
	switch t := s.(type) {
	case *SelectStmt:
		return canonSelect(t)
	case *InsertStmt:
		var rows []string
		for _, r := range t.Rows {
			parts := make([]string, len(r))
			for i, e := range r {
				parts[i] = e.String()
			}
			rows = append(rows, "("+strings.Join(parts, ", ")+")")
		}
		cols := ""
		if len(t.Columns) > 0 {
			cols = " (" + strings.Join(t.Columns, ", ") + ")"
		}
		return "INSERT " + t.Table + cols + " VALUES " + strings.Join(rows, ", ")
	case *UpdateStmt:
		keys := make([]string, 0, len(t.Set))
		for k := range t.Set {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		sets := make([]string, len(keys))
		for i, k := range keys {
			sets[i] = k + " = " + t.Set[k].String()
		}
		out := "UPDATE " + t.Table + " SET " + strings.Join(sets, ", ")
		if t.Where != nil {
			out += " WHERE " + t.Where.String()
		}
		return out
	case *DeleteStmt:
		out := "DELETE " + t.Table
		if t.Where != nil {
			out += " WHERE " + t.Where.String()
		}
		return out
	case *CreateTableAsStmt:
		out := "CTAS " + t.Table
		if t.OrReplace {
			out = "CTAS-REPLACE " + t.Table
		}
		return out + " AS " + canonSelect(t.Select)
	}
	return fmt.Sprintf("%T", s)
}

func canonSelect(s *SelectStmt) string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	for i, it := range s.Items {
		if i > 0 {
			sb.WriteString(", ")
		}
		if it.Star {
			sb.WriteString("*")
			continue
		}
		sb.WriteString(it.Expr.String())
		if it.Alias != "" {
			sb.WriteString(" AS " + it.Alias)
		}
	}
	if s.From != nil {
		sb.WriteString(" FROM " + canonRef(s.From))
		for _, j := range s.Joins {
			kind := " JOIN "
			if j.Kind == LeftJoin {
				kind = " LEFT-JOIN "
			}
			sb.WriteString(kind + canonRef(j.Table) + " ON " + j.On.String())
		}
	}
	if s.Where != nil {
		sb.WriteString(" WHERE " + s.Where.String())
	}
	if len(s.GroupBy) > 0 {
		parts := make([]string, len(s.GroupBy))
		for i, g := range s.GroupBy {
			parts[i] = g.String()
		}
		sb.WriteString(" GROUP-BY " + strings.Join(parts, ", "))
	}
	for i, o := range s.OrderBy {
		if i == 0 {
			sb.WriteString(" ORDER-BY ")
		} else {
			sb.WriteString(", ")
		}
		sb.WriteString(o.Expr.String())
		if o.Desc {
			sb.WriteString(" DESC")
		}
	}
	if s.Limit >= 0 {
		fmt.Fprintf(&sb, " LIMIT %d", s.Limit)
	}
	return sb.String()
}

func canonRef(t *TableRef) string {
	var out string
	switch {
	case t.Subquery != nil:
		out = "(" + canonSelect(t.Subquery) + ")"
	case t.TVF != nil:
		out = "TVF:" + t.TVF.Name
	default:
		out = t.Name
	}
	if t.Alias != "" {
		out += " AS " + t.Alias
	}
	return out
}

// corpus is testdata/corpus.json: statements with their canonical
// form, and malformed statements with a substring of their error.
type corpus struct {
	Parse []struct {
		Name, SQL, Want string
	}
	Malformed []struct {
		Name, SQL, Err string
	}
}

func loadCorpus(t *testing.T) corpus {
	t.Helper()
	data, err := os.ReadFile("testdata/corpus.json")
	if err != nil {
		t.Fatal(err)
	}
	var c corpus
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestParserCorpus(t *testing.T) {
	for _, tc := range loadCorpus(t).Parse {
		t.Run(tc.Name, func(t *testing.T) {
			stmt, err := Parse(tc.SQL)
			if err != nil {
				t.Fatalf("Parse(%q): %v", tc.SQL, err)
			}
			got := canon(stmt)
			if tc.Want == "" {
				t.Logf("canon: %s", got)
				return
			}
			if got != tc.Want {
				t.Fatalf("Parse(%q)\n  got:  %s\n  want: %s", tc.SQL, got, tc.Want)
			}
		})
	}
}

func TestParserCorpusMalformed(t *testing.T) {
	for _, tc := range loadCorpus(t).Malformed {
		t.Run(tc.Name, func(t *testing.T) {
			_, err := Parse(tc.SQL)
			if err == nil {
				t.Fatalf("Parse(%q) unexpectedly succeeded", tc.SQL)
			}
			if !strings.Contains(err.Error(), tc.Err) {
				t.Fatalf("Parse(%q) error = %q, want substring %q", tc.SQL, err, tc.Err)
			}
			if !strings.HasPrefix(err.Error(), "sqlparse:") {
				t.Fatalf("Parse(%q) error %q is not namespaced", tc.SQL, err)
			}
		})
	}
}
