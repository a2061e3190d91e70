package security

import (
	"errors"
	"strings"
	"testing"
	"time"

	"biglake/internal/colfmt"
	"biglake/internal/objstore"
	"biglake/internal/vector"
)

const (
	admin   = Principal("admin@corp")
	alice   = Principal("alice@corp")
	bob     = Principal("bob@corp")
	mallory = Principal("mallory@evil")
)

func newAuth() *Authority { return NewAuthority("test-secret", admin) }

func salesBatch() *vector.Batch {
	schema := vector.NewSchema(
		vector.Field{Name: "region", Type: vector.String},
		vector.Field{Name: "email", Type: vector.String},
		vector.Field{Name: "amount", Type: vector.Int64},
	)
	bl := vector.NewBuilder(schema)
	bl.Append(vector.StringValue("emea"), vector.StringValue("a@x.com"), vector.IntValue(100))
	bl.Append(vector.StringValue("amer"), vector.StringValue("b@x.com"), vector.IntValue(200))
	bl.Append(vector.StringValue("emea"), vector.StringValue("c@x.com"), vector.IntValue(300))
	bl.Append(vector.StringValue("apac"), vector.StringValue("d@x.com"), vector.IntValue(400))
	return bl.Build()
}

func TestRoleGrants(t *testing.T) {
	a := newAuth()
	if err := a.GrantTable(admin, "t", alice, RoleViewer); err != nil {
		t.Fatal(err)
	}
	if a.RoleOn(alice, "t") != RoleViewer {
		t.Fatal("role not set")
	}
	if a.RoleOn(admin, "t") != RoleOwner {
		t.Fatal("admin should be implicit owner")
	}
	if err := a.CheckRead(alice, "t"); err != nil {
		t.Fatal(err)
	}
	if err := a.CheckWrite(alice, "t"); !errors.Is(err, ErrDenied) {
		t.Fatalf("viewer write: %v", err)
	}
	if err := a.CheckRead(mallory, "t"); !errors.Is(err, ErrDenied) {
		t.Fatalf("stranger read: %v", err)
	}
}

func TestOnlyOwnersGrant(t *testing.T) {
	a := newAuth()
	a.GrantTable(admin, "t", alice, RoleViewer)
	if err := a.GrantTable(alice, "t", mallory, RoleOwner); !errors.Is(err, ErrDenied) {
		t.Fatalf("viewer grant: %v", err)
	}
	a.GrantTable(admin, "t", bob, RoleOwner)
	if err := a.GrantTable(bob, "t", mallory, RoleViewer); err != nil {
		t.Fatalf("owner grant: %v", err)
	}
}

func TestColumnPolicyDenied(t *testing.T) {
	a := newAuth()
	a.GrantTable(admin, "t", alice, RoleViewer)
	if err := a.SetColumnPolicy(admin, "t", ColumnPolicy{
		Column: "email", Allowed: map[Principal]bool{admin: true}, Mask: vector.MaskNone,
	}); err != nil {
		t.Fatal(err)
	}
	// The denied column is removed from the governed batch entirely.
	got, err := a.ApplyGovernance(alice, "t", salesBatch())
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema.Index("email") >= 0 {
		t.Fatal("denied column leaked")
	}
	if got.Schema.Index("region") < 0 || got.N != 4 {
		t.Fatalf("other columns damaged: %v x %d", got.Schema, got.N)
	}
	// Allowed principal reads raw.
	out, err := a.ApplyGovernance(admin, "t", salesBatch())
	if err != nil {
		t.Fatal(err)
	}
	if out.Column("email").Value(0).S != "a@x.com" {
		t.Fatal("allowed principal should see raw values")
	}
}

func TestColumnPolicyMasking(t *testing.T) {
	a := newAuth()
	a.GrantTable(admin, "t", alice, RoleViewer)
	a.SetColumnPolicy(admin, "t", ColumnPolicy{
		Column: "email", Allowed: map[Principal]bool{admin: true}, Mask: vector.MaskHash,
	})
	out, err := a.ApplyGovernance(alice, "t", salesBatch())
	if err != nil {
		t.Fatal(err)
	}
	got := out.Column("email").Value(0).S
	if got == "a@x.com" || !strings.HasPrefix(got, "hash_") {
		t.Fatalf("masked email = %q", got)
	}
	// Other columns untouched.
	if out.Column("amount").Value(0).AsInt() != 100 {
		t.Fatal("unmasked column changed")
	}
}

func TestSetColumnPolicyReplaces(t *testing.T) {
	a := newAuth()
	a.SetColumnPolicy(admin, "t", ColumnPolicy{Column: "email", Mask: vector.MaskHash})
	a.SetColumnPolicy(admin, "t", ColumnPolicy{Column: "email", Mask: vector.MaskNullify})
	tp := a.PolicyFor("t")
	if len(tp.ColumnPolices) != 1 || tp.ColumnPolices[0].Mask != vector.MaskNullify {
		t.Fatalf("policies = %+v", tp.ColumnPolices)
	}
}

func TestRowPolicies(t *testing.T) {
	a := newAuth()
	a.GrantTable(admin, "t", alice, RoleViewer)
	a.GrantTable(admin, "t", bob, RoleViewer)
	a.AddRowPolicy(admin, "t", RowPolicy{
		Name:     "emea_only",
		Grantees: map[Principal]bool{alice: true},
		Filter:   []colfmt.Predicate{{Column: "region", Op: vector.EQ, Value: vector.StringValue("emea")}},
	})

	// Alice sees only emea rows.
	out, err := a.ApplyGovernance(alice, "t", salesBatch())
	if err != nil {
		t.Fatal(err)
	}
	if out.N != 2 {
		t.Fatalf("alice sees %d rows, want 2", out.N)
	}
	for i := 0; i < out.N; i++ {
		if out.Column("region").Value(i).S != "emea" {
			t.Fatal("row policy leaked a non-emea row")
		}
	}

	// Bob is granted by no policy: zero rows (BigQuery semantics).
	out, err = a.ApplyGovernance(bob, "t", salesBatch())
	if err != nil {
		t.Fatal(err)
	}
	if out.N != 0 {
		t.Fatalf("bob sees %d rows, want 0", out.N)
	}
}

func TestRowPoliciesUnion(t *testing.T) {
	a := newAuth()
	a.GrantTable(admin, "t", alice, RoleViewer)
	a.AddRowPolicy(admin, "t", RowPolicy{
		Name: "emea", Grantees: map[Principal]bool{alice: true},
		Filter: []colfmt.Predicate{{Column: "region", Op: vector.EQ, Value: vector.StringValue("emea")}},
	})
	a.AddRowPolicy(admin, "t", RowPolicy{
		Name: "big", Grantees: map[Principal]bool{alice: true},
		Filter: []colfmt.Predicate{{Column: "amount", Op: vector.GE, Value: vector.IntValue(400)}},
	})
	out, err := a.ApplyGovernance(alice, "t", salesBatch())
	if err != nil {
		t.Fatal(err)
	}
	if out.N != 3 { // 2 emea + 1 apac@400
		t.Fatalf("union rows = %d, want 3", out.N)
	}
}

func TestNoPoliciesMeansUnrestricted(t *testing.T) {
	a := newAuth()
	a.GrantTable(admin, "t", alice, RoleViewer)
	out, err := a.ApplyGovernance(alice, "t", salesBatch())
	if err != nil {
		t.Fatal(err)
	}
	if out.N != 4 {
		t.Fatalf("rows = %d, want 4", out.N)
	}
}

func TestGovernanceRequiresReadRole(t *testing.T) {
	a := newAuth()
	if _, err := a.ApplyGovernance(mallory, "t", salesBatch()); !errors.Is(err, ErrDenied) {
		t.Fatalf("err = %v", err)
	}
}

func TestRowAndColumnPoliciesCompose(t *testing.T) {
	a := newAuth()
	a.GrantTable(admin, "t", alice, RoleViewer)
	a.SetColumnPolicy(admin, "t", ColumnPolicy{Column: "email", Mask: vector.MaskLastFour})
	a.AddRowPolicy(admin, "t", RowPolicy{
		Name: "emea", Grantees: map[Principal]bool{alice: true},
		Filter: []colfmt.Predicate{{Column: "region", Op: vector.EQ, Value: vector.StringValue("emea")}},
	})
	out, err := a.ApplyGovernance(alice, "t", salesBatch())
	if err != nil {
		t.Fatal(err)
	}
	if out.N != 2 {
		t.Fatalf("rows = %d", out.N)
	}
	if got := out.Column("email").Value(0).S; got != "XXX.com" {
		t.Fatalf("masked email = %q", got)
	}
}

// TestRowPolicyOnDeniedOrMaskedColumn: the row filter reads raw values
// before the column decisions apply, so a policy may filter on a column
// the principal is denied (the filter used to run after the drop, and
// fail: "predicate column region not in batch") or sees masked.
func TestRowPolicyOnDeniedOrMaskedColumn(t *testing.T) {
	for _, mask := range []vector.MaskKind{vector.MaskNone, vector.MaskHash} {
		a := newAuth()
		a.GrantTable(admin, "t", alice, RoleViewer)
		a.AddRowPolicy(admin, "t", RowPolicy{
			Name: "emea", Grantees: map[Principal]bool{alice: true},
			Filter: []colfmt.Predicate{{Column: "region", Op: vector.EQ, Value: vector.StringValue("emea")}},
		})
		a.SetColumnPolicy(admin, "t", ColumnPolicy{Column: "region", Allowed: map[Principal]bool{admin: true}, Mask: mask})
		out, err := a.ApplyGovernance(alice, "t", salesBatch())
		if err != nil {
			t.Fatalf("mask %v: %v", mask, err)
		}
		if out.N != 2 {
			t.Fatalf("mask %v: alice sees %d rows, want the 2 emea rows", mask, out.N)
		}
		switch c := out.Column("region"); {
		case mask == vector.MaskNone && c != nil:
			t.Fatal("denied column leaked")
		case mask != vector.MaskNone && (c == nil || c.Value(0).S == "emea"):
			t.Fatal("masked column missing or raw")
		}
	}
}

func TestOnlyOwnersSetPolicies(t *testing.T) {
	a := newAuth()
	a.GrantTable(admin, "t", alice, RoleViewer)
	if err := a.SetColumnPolicy(alice, "t", ColumnPolicy{Column: "email"}); !errors.Is(err, ErrDenied) {
		t.Fatalf("viewer set column policy: %v", err)
	}
	if err := a.AddRowPolicy(alice, "t", RowPolicy{}); !errors.Is(err, ErrDenied) {
		t.Fatalf("viewer add row policy: %v", err)
	}
}

func TestConnections(t *testing.T) {
	a := newAuth()
	conn := Connection{
		Name:           "lake-conn",
		ServiceAccount: objstore.Credential{Principal: "sa-biglake@corp"},
		Cloud:          "gcp",
	}
	if err := a.RegisterConnection(alice, conn); !errors.Is(err, ErrDenied) {
		t.Fatalf("non-admin register: %v", err)
	}
	if err := a.RegisterConnection(admin, conn); err != nil {
		t.Fatal(err)
	}
	got, err := a.Connection("lake-conn")
	if err != nil || got.ServiceAccount.Principal != "sa-biglake@corp" {
		t.Fatalf("connection = %+v, %v", got, err)
	}
	if _, err := a.Connection("ghost"); !errors.Is(err, ErrNoConnection) {
		t.Fatalf("missing connection: %v", err)
	}
}

func TestSessionTokens(t *testing.T) {
	a := newAuth()
	tok := a.MintToken("q1", alice, "aws-us-east-1", []string{"ds.orders"}, 10*time.Second)
	if err := a.ValidateToken(tok, 5*time.Second, "ds.orders"); err != nil {
		t.Fatal(err)
	}
	// Expired.
	if err := a.ValidateToken(tok, 11*time.Second, "ds.orders"); !errors.Is(err, ErrBadToken) {
		t.Fatalf("expired: %v", err)
	}
	// Out-of-scope table.
	if err := a.ValidateToken(tok, 5*time.Second, "ds.secrets"); !errors.Is(err, ErrBadToken) {
		t.Fatalf("out of scope: %v", err)
	}
}

func TestSessionTokenTamperDetected(t *testing.T) {
	a := newAuth()
	tok := a.MintToken("q1", alice, "aws", []string{"ds.orders"}, 10*time.Second)
	// A compromised worker widens its scope.
	tok.Tables = append(tok.Tables, "ds.secrets")
	if err := a.ValidateToken(tok, time.Second, "ds.secrets"); !errors.Is(err, ErrBadToken) {
		t.Fatalf("tampered token accepted: %v", err)
	}
	// Forged with a different secret.
	other := NewAuthority("other-secret", admin)
	forged := other.MintToken("q1", alice, "aws", []string{"ds.orders"}, 10*time.Second)
	if err := a.ValidateToken(forged, time.Second, "ds.orders"); !errors.Is(err, ErrBadToken) {
		t.Fatalf("forged token accepted: %v", err)
	}
}

func TestColumnDecisions(t *testing.T) {
	a := newAuth()
	a.SetColumnPolicy(admin, "t", ColumnPolicy{Column: "ssn", Mask: vector.MaskNone, Allowed: map[Principal]bool{admin: true}})
	a.SetColumnPolicy(admin, "t", ColumnPolicy{Column: "email", Mask: vector.MaskHash})
	ds := a.ColumnDecisionsFor(alice, "t", []string{"ssn", "email", "open"})
	if !ds[0].Denied {
		t.Fatal("ssn should be denied")
	}
	if ds[1].Mask != vector.MaskHash || ds[1].Denied {
		t.Fatal("email should be masked")
	}
	if ds[2].Mask != vector.MaskNone || ds[2].Denied {
		t.Fatal("open column should be raw")
	}
	dAdmin := a.ColumnDecisionsFor(admin, "t", []string{"ssn"})
	if dAdmin[0].Denied {
		t.Fatal("allowed principal denied")
	}
}

func TestPolicyForSnapshotIsolation(t *testing.T) {
	a := newAuth()
	a.AddRowPolicy(admin, "t", RowPolicy{Name: "p1", Grantees: map[Principal]bool{alice: true}})
	snap := a.PolicyFor("t")
	snap.RowPolicies = append(snap.RowPolicies, RowPolicy{Name: "injected"})
	if got := len(a.PolicyFor("t").RowPolicies); got != 1 {
		t.Fatalf("snapshot mutation leaked into authority: %d policies", got)
	}
}

func TestRowFilterFor(t *testing.T) {
	a := newAuth()
	if _, unrestricted := a.RowFilterFor(alice, "t"); !unrestricted {
		t.Fatal("no policies should be unrestricted")
	}
	a.AddRowPolicy(admin, "t", RowPolicy{Name: "p", Grantees: map[Principal]bool{alice: true}})
	filters, unrestricted := a.RowFilterFor(alice, "t")
	if unrestricted || len(filters) != 1 {
		t.Fatal("policy should apply")
	}
	filters, unrestricted = a.RowFilterFor(bob, "t")
	if unrestricted || len(filters) != 0 {
		t.Fatal("non-grantee should be restricted to nothing")
	}
}

// TestGovernsMatchesApplyGovernance ties a reader's test for skipping
// governance to the enforcement step itself: over each policy setup,
// principal and projection (region always read, as a row policy's
// column is), ApplyGovernance hands a batch back as it is exactly when
// Governs says it does not govern those columns.
func TestGovernsMatchesApplyGovernance(t *testing.T) {
	emea := []colfmt.Predicate{{Column: "region", Op: vector.EQ, Value: vector.StringValue("emea")}}
	setups := []struct {
		name  string
		setup func(a *Authority)
	}{
		{"no policy", func(*Authority) {}},
		{"row policy", func(a *Authority) {
			a.AddRowPolicy(admin, "t", RowPolicy{Name: "emea", Grantees: map[Principal]bool{alice: true}, Filter: emea})
		}},
		{"deny email", func(a *Authority) {
			a.SetColumnPolicy(admin, "t", ColumnPolicy{Column: "email", Allowed: map[Principal]bool{admin: true}})
		}},
		{"mask email", func(a *Authority) {
			a.SetColumnPolicy(admin, "t", ColumnPolicy{Column: "email", Mask: vector.MaskHash, Allowed: map[Principal]bool{bob: true}})
		}},
	}
	full := salesBatch()
	for _, s := range setups {
		a := newAuth()
		a.GrantTable(admin, "t", alice, RoleViewer)
		a.GrantTable(admin, "t", bob, RoleViewer)
		s.setup(a)
		governed := 0
		for _, who := range []Principal{admin, alice, bob} {
			for set := 1; set < 1<<len(full.Cols); set += 2 {
				read := func(i int) bool { return set>>i&1 == 1 }
				b := &vector.Batch{N: full.N}
				for i, f := range full.Schema.Fields {
					if read(i) {
						b.Schema.Fields = append(b.Schema.Fields, f)
						b.Cols = append(b.Cols, full.Cols[i])
					}
				}
				governs := a.Governs(who, "t", full.Schema.Fields, read)
				out, err := a.ApplyGovernance(who, "t", b)
				if err != nil {
					t.Fatal(err)
				}
				if changed := out != b; changed != governs {
					t.Errorf("%s, %s, columns %03b: Governs = %v, ApplyGovernance changed the batch = %v", s.name, who, set, governs, changed)
				}
				if governs {
					governed++
				}
			}
		}
		if want := s.name != "no policy"; (governed > 0) != want {
			t.Errorf("%s: %d reads governed", s.name, governed)
		}
	}
}
