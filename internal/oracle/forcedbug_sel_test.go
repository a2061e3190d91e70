//go:build oraclebug_sel

package oracle

// Validation that the differential harness catches a bug in how a
// relation's pieces are laid out: the oraclebug_sel build tag plants an
// off-by-one in a piece's global offset (engine's pieceStart), and this
// test demands the harness finds it. Run with:
//
//	go test -tags oraclebug_sel ./internal/oracle -run TestForcedSelBugCaught -v
//
// The tag is its own so that TestForcedBugCaught, under oraclebug, is
// satisfied by the planted pruning bug alone.

import (
	"strings"
	"testing"

	"biglake/internal/engine"
	"biglake/internal/serve"
)

// TestForcedSelBugCaught runs the star family's join statements — the
// managed fact table is many small files, so a join whose every fact
// row matches hands many pieces on — and requires a divergence from the
// reference.
func TestForcedSelBugCaught(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		w, err := newWorld(engine.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		h := &harness{
			w: w, db: NewDB(), seed: seed, rep: &Report{}, logf: t.Logf,
			sessions: map[*engine.Engine]*serve.Session{},
		}
		stars := NewGen(seed ^ 0x5E15E1)
		if err := h.install(stars.StarTables()); err != nil {
			t.Fatal(err)
		}
		var joins []GenQuery
		for _, q := range stars.StarQueries(nil) {
			if strings.Contains(q.SQL, "JOIN") {
				joins = append(joins, q)
			}
		}
		if d := h.runMatrix("pre", joins); d != nil {
			t.Logf("caught planted piece-offset bug:\n%s", d.Format())
			return
		}
	}
	t.Fatal("planted piece-offset bug not detected in 8 seeds")
}
