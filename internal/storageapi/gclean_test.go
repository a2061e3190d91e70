package storageapi

import (
	"errors"
	"testing"

	"biglake/internal/colfmt"
	"biglake/internal/security"
	"biglake/internal/vector"
)

// governedReadAllocs is the heap allocations of one governed read of a
// one-file ds.sales of the given size — session (reused after the
// first), ReadRows to the end of its stream — as a reader under a row
// policy, a LAST_FOUR mask on a string column and a projection.
func governedReadAllocs(t *testing.T, rows int) float64 {
	t.Helper()
	ev := newEnv(t)
	ev.createSales(t, 1, rows)
	ev.auth.AddRowPolicy(adminP, "ds.sales", security.RowPolicy{
		Name: "us", Grantees: map[security.Principal]bool{aliceP: true},
		Filter: []colfmt.Predicate{{Column: "region", Op: vector.EQ, Value: vector.StringValue("us")}},
	})
	ev.auth.SetColumnPolicy(adminP, "ds.sales", security.ColumnPolicy{
		Column: "email", Allowed: map[security.Principal]bool{adminP: true}, Mask: vector.MaskLastFour,
	})
	req := ReadSessionRequest{Table: "ds.sales", Principal: aliceP, SnapshotVersion: -1, Columns: []string{"id", "email"}}
	read := func() int {
		sess, err := ev.srv.CreateReadSession(req)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for {
			payload, err := ev.srv.ReadRows(sess.ID, sess.Streams[0])
			if errors.Is(err, ErrEndOfStream) {
				return n
			}
			if err != nil {
				t.Fatal(err)
			}
			n += len(payload)
		}
	}
	if read() == 0 {
		t.Fatal("the governed read returned no payload")
	}
	return testing.AllocsPerRun(10, func() { read() })
}

// TestGCLeanReadRowsAllocs: what a governed ReadRows allocates does not
// depend on how many rows the file holds — decode, row filter, mask and
// encode all cost allocations per column (the codec used to allocate
// per string value, the mask twice per row: ~20k for the larger file).
// The budget is the fixed cost of the path: session handle and stream
// names, plan renewal, footer, three decoded columns, selection,
// gathered columns, the mask's buffer, the payload.
func TestGCLeanReadRowsAllocs(t *testing.T) {
	const budget = 120 // measured: 100 and 101 (24,116 at 8000 rows before)
	small, large := governedReadAllocs(t, 1000), governedReadAllocs(t, 8000)
	if large > small+2 || small > large+2 {
		t.Errorf("a governed read of 1000 rows allocates %.0f times, of 8000 rows %.0f: it should not depend on the row count", small, large)
	}
	if large > budget {
		t.Errorf("a governed read allocates %.0f times, budget %d", large, budget)
	}
}
