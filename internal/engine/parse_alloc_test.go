//go:build !race

package engine

import (
	"fmt"
	"strings"
	"testing"

	"biglake/internal/sqlparse"
)

// TestGCLeanParseHit: a point lookup served from the shape cache
// allocates no more than its bound AST (the statement, the WHERE node
// and its literal) and a little slack, and lexing a 64-row INSERT —
// what every hit pays — allocates nothing at all.
func TestGCLeanParseHit(t *testing.T) {
	e := new(Engine)
	sqls := make([]string, 64)
	for i := range sqls {
		sqls[i] = fmt.Sprintf("SELECT id, amount, price FROM bench.orders WHERE id = %d", 1000+i)
	}
	if _, _, err := e.Parse(sqls[0]); err != nil {
		t.Fatal(err)
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		_, hit, err := e.Parse(sqls[i%len(sqls)])
		i++
		if err != nil || !hit {
			t.Fatalf("point lookup: hit %v, err %v", hit, err)
		}
	})
	if allocs > 6 {
		t.Fatalf("a point-lookup hit allocates %.0f times, budget 6", allocs)
	}

	var sb strings.Builder
	sb.WriteString("INSERT INTO bench.events VALUES ")
	for r := 0; r < 64; r++ {
		if r > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d, %d, 'tag%02d')", 1000+r, r%8, 17*r, r%16)
	}
	insert := sb.String()
	lexAllocs := testing.AllocsPerRun(100, func() {
		lx, err := sqlparse.Lex(insert)
		if err != nil {
			t.Fatal(err)
		}
		lx.Key()
		lx.Release()
	})
	if lexAllocs != 0 {
		t.Fatalf("lexing a 64-row INSERT (%d bytes) allocates %.0f times, want 0", len(insert), lexAllocs)
	}
}
