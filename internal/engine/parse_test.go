package engine

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"biglake/internal/sqlparse"
)

// TestShapeCacheConcurrent (run by `make race` ten times over):
// goroutines hit one shape and miss it — a changed LIMIT is a fixed
// token, so its text parses in full and replaces the cached template —
// all at once. Every AST must be the one its own text parses to, and
// the template they were bound from must be what it was built as.
func TestShapeCacheConcurrent(t *testing.T) {
	text := func(id, limit int) string {
		return fmt.Sprintf("SELECT id, amount FROM bench.events WHERE id = %d AND note != 'n''%d' OR id IN (-%d, 7) LIMIT %d", id, id, id, limit)
	}
	e := new(Engine)
	first := text(1, 10)
	if _, _, err := e.Parse(first); err != nil {
		t.Fatal(err)
	}
	lx, err := sqlparse.Lex(first)
	if err != nil {
		t.Fatal(err)
	}
	held := e.shapes[string(lx.Key())]
	built, _, err := lx.Parse()
	lx.Release()
	if err != nil || held == nil {
		t.Fatalf("template for %q: %v, cached %v", first, err, held != nil)
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				limit := 10
				if i%5 == 0 {
					limit += g
				}
				sql := text(g*1000+i, limit)
				got, _, err := e.Parse(sql)
				want, werr := sqlparse.Parse(sql)
				if err != nil || werr != nil || !reflect.DeepEqual(got, want) {
					t.Errorf("%q: Engine.Parse = %v (%v), sqlparse.Parse = %v (%v)", sql, got, err, want, werr)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if !reflect.DeepEqual(held, built) {
		t.Fatal("a shared template was written while statements were bound from it")
	}
}
