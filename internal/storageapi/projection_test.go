package storageapi

import (
	"strings"
	"testing"

	"biglake/internal/colfmt"
	"biglake/internal/security"
	"biglake/internal/vector"
)

// rotColumn flips a stored bit inside every chunk of one column of
// every sales file: a read that decodes the column fails typed, one
// that does not never notices.
func (ev *env) rotColumn(t *testing.T, files int, column string) {
	t.Helper()
	for f := 0; f < files; f++ {
		key := "sales/part-0" + string(rune('0'+f)) + ".blk"
		data, _, err := ev.store.Get(ev.cred, "lake", key)
		if err != nil {
			t.Fatal(err)
		}
		footer, err := colfmt.ReadFooter(data)
		if err != nil {
			t.Fatal(err)
		}
		for _, rg := range footer.RowGroups {
			for _, ch := range rg.Chunks {
				if ch.Column == column {
					if err := ev.store.FlipStoredBit("lake", key, 8*(ch.Offset+ch.Length/2)); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
}

func (ev *env) readAll(t *testing.T, req ReadSessionRequest) *vector.Batch {
	t.Helper()
	req.Table, req.SnapshotVersion = "ds.sales", -1
	sess, err := ev.srv.CreateReadSession(req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ev.srv.ReadAll(sess)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestReadRowsProjectsUnderGovernance: a session decodes its columns,
// its predicates' and the principal's row-policy columns and no other —
// the masked column it does not select is rotten at rest throughout —
// filters on a policy column it neither selects nor may read, masks a
// masked column it does select, and gives a principal no policy grants
// no rows.
func TestReadRowsProjectsUnderGovernance(t *testing.T) {
	const bobP = security.Principal("bob@corp")
	ev := newEnv(t)
	ev.createSales(t, 2, 10)
	ev.auth.GrantTable(adminP, "ds.sales", bobP, security.RoleViewer)
	ev.auth.SetColumnPolicy(adminP, "ds.sales", security.ColumnPolicy{
		Column: "email", Allowed: map[security.Principal]bool{adminP: true}, Mask: vector.MaskHash,
	})
	ev.auth.AddRowPolicy(adminP, "ds.sales", security.RowPolicy{
		Name: "us", Grantees: map[security.Principal]bool{aliceP: true},
		Filter: []colfmt.Predicate{{Column: "region", Op: vector.EQ, Value: vector.StringValue("us")}},
	})

	// Masked column selected: masked.
	got := ev.readAll(t, ReadSessionRequest{Principal: aliceP, Columns: []string{"id", "email"}})
	if got.N != 10 || got.Schema.Len() != 2 || !strings.HasPrefix(got.Row(0)[1].S, "hash_") {
		t.Fatalf("masked column selected: %d rows, schema %v, first %v", got.N, got.Schema, got.Row(0))
	}

	// From here on email cannot be decoded.
	ev.rotColumn(t, 2, "email")

	// Policy column not in Columns: rows filtered, column absent; the
	// masked column, not selected, is not decoded.
	got = ev.readAll(t, ReadSessionRequest{Principal: aliceP, Columns: []string{"id", "amount"}})
	if got.N != 10 || got.Schema.Len() != 2 || got.Column("region") != nil {
		t.Fatalf("policy column unselected: %d rows, schema %v", got.N, got.Schema)
	}
	for i := 0; i < got.N; i++ {
		if got.Row(i)[0].I%2 != 0 { // even ids are the us rows
			t.Fatalf("row policy leaked id %d", got.Row(i)[0].I)
		}
	}
	// A predicate on a column outside Columns still filters.
	got = ev.readAll(t, ReadSessionRequest{Principal: aliceP, Columns: []string{"id"},
		Predicates: []colfmt.Predicate{{Column: "amount", Op: vector.GE, Value: vector.IntValue(100)}}})
	if got.N != 5 || got.Schema.Len() != 1 {
		t.Fatalf("predicate outside Columns: %d rows, schema %v", got.N, got.Schema)
	}
	// An aggregate session decodes what it aggregates, not the table.
	got = ev.readAll(t, ReadSessionRequest{Principal: aliceP,
		Aggregates: []AggregateRequest{{Column: "amount", Kind: vector.AggSum}, {Column: "id", Kind: vector.AggCount}}})
	if got.N != 1 || got.Row(0)[0].I != 900 || got.Row(0)[1].I != 10 {
		t.Fatalf("aggregate session: %v", got.Row(0))
	}
	// Granted by no policy: zero rows.
	if got = ev.readAll(t, ReadSessionRequest{Principal: bobP, Columns: []string{"id"}}); got.N != 0 {
		t.Fatalf("bob, granted by no policy, read %d rows", got.N)
	}

	// The policy column denied to the reader: it still filters. (The
	// filter used to run after the column was dropped, and fail.)
	ev.auth.SetColumnPolicy(adminP, "ds.sales", security.ColumnPolicy{
		Column: "region", Allowed: map[security.Principal]bool{adminP: true}, Mask: vector.MaskNone,
	})
	got = ev.readAll(t, ReadSessionRequest{Principal: aliceP, Columns: []string{"id"}})
	if got.N != 10 || got.Schema.Len() != 1 {
		t.Fatalf("policy column denied: %d rows, schema %v", got.N, got.Schema)
	}
}
