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

// TestShapeCacheEvictsOldest: a cache filled past its cap evicts its
// oldest shapes one at a time, so the shapes inserted last — among them
// the one inserted right before the shape that overflowed it — still
// hit, the first ones miss, and the cache never holds more than its cap.
func TestShapeCacheEvictsOldest(t *testing.T) {
	e := new(Engine)
	shape := func(i int) string { return fmt.Sprintf("SELECT c%d FROM ds.t WHERE id = %d", i, i) }
	total := stmtCacheCap + 10
	for i := 0; i < total; i++ {
		if _, hit, err := e.Parse(shape(i)); err != nil || hit {
			t.Fatalf("shape %d: first parse hit=%v err=%v", i, hit, err)
		}
	}
	if len(e.shapes) != stmtCacheCap {
		t.Fatalf("cache holds %d shapes, cap %d", len(e.shapes), stmtCacheCap)
	}
	for i := total - 1; i >= total-20; i-- {
		if _, hit, err := e.Parse(shape(i)); err != nil || !hit {
			t.Fatalf("shape %d of %d, inserted after the cache filled: repeat hit=%v err=%v", i, total, hit, err)
		}
	}
	if _, hit, _ := e.Parse(shape(0)); hit {
		t.Fatal("the oldest shape is still cached past the cap")
	}
}
