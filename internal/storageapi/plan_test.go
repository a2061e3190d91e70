package storageapi

import (
	"errors"
	"testing"
	"time"

	"biglake/internal/colfmt"
	"biglake/internal/security"
	"biglake/internal/vector"
)

// TestMaskedColumnPredicateConfirmsNothing: a reader who sees email
// masked cannot use a predicate to learn a stored value. The predicate
// runs on what the reader sees — after governance, inside the boundary
// — whichever reader decodes the file; one on a denied column fails the
// session.
func TestMaskedColumnPredicateConfirmsNothing(t *testing.T) {
	ev := newEnv(t)
	ev.createSales(t, 2, 10)
	ev.auth.SetColumnPolicy(adminP, "ds.sales", security.ColumnPolicy{
		Column: "email", Allowed: map[security.Principal]bool{adminP: true}, Mask: vector.MaskLastFour,
	})
	read := func(who security.Principal, rowOriented bool, email string) int {
		t.Helper()
		sess, err := ev.srv.CreateReadSession(ReadSessionRequest{
			Table: "ds.sales", Principal: who, SnapshotVersion: -1, RowOriented: rowOriented,
			Columns:    []string{"id", "email"},
			Predicates: []colfmt.Predicate{{Column: "email", Op: vector.EQ, Value: vector.StringValue(email)}},
		})
		if err != nil {
			t.Fatal(err)
		}
		got, err := ev.srv.ReadAll(sess)
		if err != nil {
			t.Fatal(err)
		}
		return got.N
	}
	for _, rowOriented := range []bool{false, true} {
		if n := read(adminP, rowOriented, "u3@x.com"); n != 1 {
			t.Errorf("rowOriented=%v: admin finds %d rows by the stored value, want 1", rowOriented, n)
		}
		if n := read(aliceP, rowOriented, "u3@x.com"); n != 0 {
			t.Errorf("rowOriented=%v: masked reader confirmed a stored value: %d rows", rowOriented, n)
		}
		// Every one-digit id's email reads XXXX.com.
		if n := read(aliceP, rowOriented, "XXXX.com"); n != 10 {
			t.Errorf("rowOriented=%v: masked reader finds %d rows by the masked value, want 10", rowOriented, n)
		}
	}

	ev.auth.SetColumnPolicy(adminP, "ds.sales", security.ColumnPolicy{
		Column: "region", Allowed: map[security.Principal]bool{adminP: true}, Mask: vector.MaskNone,
	})
	_, err := ev.srv.CreateReadSession(ReadSessionRequest{
		Table: "ds.sales", Principal: aliceP, SnapshotVersion: -1, Columns: []string{"id"},
		Predicates: []colfmt.Predicate{{Column: "region", Op: vector.EQ, Value: vector.StringValue("us")}},
	})
	if !errors.Is(err, security.ErrDenied) {
		t.Fatalf("predicate on a denied column: err = %v, want ErrDenied", err)
	}
}

// TestReadSessionHonoursMetadataStaleness: with no engine query in
// between, a session created inside the table's staleness interval
// reads the cached inventory, one created past it the refreshed one.
func TestReadSessionHonoursMetadataStaleness(t *testing.T) {
	ev := newEnv(t)
	ev.createSales(t, 2, 10)
	tab, err := ev.cat.Table("ds.sales")
	if err != nil {
		t.Fatal(err)
	}
	tab.MetadataStaleness = time.Minute
	if err := ev.cat.UpdateTable(tab); err != nil {
		t.Fatal(err)
	}
	rows := func(principal security.Principal) int {
		t.Helper()
		// A principal per call: an equal request inside SessionTTL would
		// be answered by the cached session, whatever the metadata says.
		ev.auth.GrantTable(adminP, "ds.sales", principal, security.RoleViewer)
		sess, err := ev.srv.CreateReadSession(ReadSessionRequest{Table: "ds.sales", Principal: principal, SnapshotVersion: -1})
		if err != nil {
			t.Fatal(err)
		}
		got, err := ev.srv.ReadAll(sess)
		if err != nil {
			t.Fatal(err)
		}
		return got.N
	}
	if n := rows("r1@corp"); n != 20 {
		t.Fatalf("first session reads %d rows, want 20", n)
	}

	bl := vector.NewBuilder(salesSchema())
	bl.Append(vector.IntValue(999), vector.StringValue("us"), vector.StringValue("late@x.com"), vector.IntValue(1))
	file, err := colfmt.WriteFile(bl.Build(), colfmt.WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ev.store.Put(ev.cred, "lake", "sales/part-late.blk", file, ""); err != nil {
		t.Fatal(err)
	}
	if n := rows("r2@corp"); n != 20 {
		t.Fatalf("inside the staleness interval a session reads %d rows, want the cached 20", n)
	}
	ev.clock.Advance(2 * time.Minute)
	if n := rows("r3@corp"); n != 21 {
		t.Fatalf("past the staleness interval a session reads %d rows, want 21", n)
	}
}

// TestSessionStatsAreGoverned: the statistics a session returns for
// client-side planning say nothing about a column the principal is
// denied or sees masked, and under a restricting row policy no column
// reports a range: min and max are over rows the principal may not see.
func TestSessionStatsAreGoverned(t *testing.T) {
	ev := newEnv(t)
	ev.createSales(t, 4, 25)
	ev.auth.SetColumnPolicy(adminP, "ds.sales", security.ColumnPolicy{
		Column: "email", Allowed: map[security.Principal]bool{adminP: true}, Mask: vector.MaskHash,
	})
	ev.auth.SetColumnPolicy(adminP, "ds.sales", security.ColumnPolicy{
		Column: "amount", Allowed: map[security.Principal]bool{adminP: true}, Mask: vector.MaskNone,
	})
	stats := func(who security.Principal) map[string]colfmt.ColumnStats {
		t.Helper()
		sess, err := ev.srv.CreateReadSession(ReadSessionRequest{
			Table: "ds.sales", Principal: who, SnapshotVersion: -1, Columns: []string{"id", "region"},
		})
		if err != nil {
			t.Fatal(err)
		}
		if sess.Stats.Rows != 100 || sess.Stats.Files != 4 || sess.EstimatedRows != 100 {
			t.Fatalf("%s: totals = %+v, estimated %d", who, sess.Stats, sess.EstimatedRows)
		}
		return sess.Stats.ColumnStats
	}
	if cs := stats(adminP); cs["amount"].Max.ToValue().AsInt() != 990 || cs["email"].Distinct == 0 {
		t.Fatalf("admin stats = %+v", cs)
	}
	cs := stats(aliceP)
	if _, ok := cs["email"]; ok {
		t.Errorf("masked column's stats returned: %+v", cs["email"])
	}
	if _, ok := cs["amount"]; ok {
		t.Errorf("denied column's stats returned: %+v", cs["amount"])
	}
	if id := cs["id"]; id.Max.ToValue().AsInt() != 99 || id.Distinct == 0 {
		t.Errorf("open column, no row policy: id stats = %+v", id)
	}

	ev.auth.AddRowPolicy(adminP, "ds.sales", security.RowPolicy{
		Name: "low", Grantees: map[security.Principal]bool{aliceP: true},
		Filter: []colfmt.Predicate{{Column: "id", Op: vector.LT, Value: vector.IntValue(10)}},
	})
	ev.auth.AddRowPolicy(adminP, "ds.sales", security.RowPolicy{
		Name: "all", Grantees: map[security.Principal]bool{adminP: true},
	})
	ev.clock.Advance(2 * ev.srv.SessionTTL) // not the sessions cached above
	if id := stats(aliceP)["id"]; !id.Min.ToValue().IsNull() || !id.Max.ToValue().IsNull() || id.Distinct == 0 {
		t.Errorf("row-restricted reader: id stats = %+v, want no range", id)
	}
	if id := stats(adminP)["id"]; id.Max.ToValue().AsInt() != 99 {
		t.Errorf("reader granted every row: id stats = %+v", id)
	}
}
