//go:build oraclebug_dense

package oracle

// Validation that the differential harness catches a bug in the
// direct-address grouping: the oraclebug_dense build tag plants an
// off-by-one in vector's dense slot index (denseSlot), and this test
// demands the harness finds it. Run with:
//
//	go test -tags oraclebug_dense ./internal/oracle -run TestForcedDenseBugCaught -v
//
// The tag is its own so that TestForcedBugCaught, under oraclebug, is
// satisfied by the planted pruning bug alone.

import (
	"strings"
	"testing"

	"biglake/internal/engine"
	"biglake/internal/serve"
)

// TestForcedDenseBugCaught runs the star family's GROUP BY statements
// with no WHERE and no join — the dictionary and dense groupings, with
// nothing else between the rows and the groups — and requires a
// divergence from the reference.
func TestForcedDenseBugCaught(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		w, err := newWorld(engine.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		h := &harness{
			w: w, db: NewDB(), seed: seed, rep: &Report{}, logf: t.Logf,
			sessions: map[*engine.Engine]*serve.Session{},
		}
		stars := NewGen(seed ^ 0x57A257A2)
		if err := h.install(stars.StarTables()); err != nil {
			t.Fatal(err)
		}
		var grouped []GenQuery
		for _, q := range stars.StarQueries(nil) {
			if strings.Contains(q.SQL, "GROUP BY") && !strings.Contains(q.SQL, "WHERE") && !strings.Contains(q.SQL, "JOIN") {
				grouped = append(grouped, q)
			}
		}
		if d := h.runMatrix("pre", grouped); d != nil {
			t.Logf("caught planted direct-address bug:\n%s", d.Format())
			return
		}
	}
	t.Fatal("planted direct-address bug not detected in 8 seeds")
}
