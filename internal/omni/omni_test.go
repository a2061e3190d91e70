package omni

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"biglake/internal/catalog"
	"biglake/internal/engine"
	"biglake/internal/obs"
	"biglake/internal/security"
	"biglake/internal/sim"
	"biglake/internal/sqlparse"
	"biglake/internal/vector"
)

const (
	adminP   = security.Principal("admin@corp")
	analystP = security.Principal("analyst@corp")
)

type env struct {
	clock *sim.Clock
	dep   *Deployment
	gcp   *Region
	aws   *Region
}

func newEnv(t *testing.T) *env {
	t.Helper()
	clock := sim.NewClock()
	dep := NewDeployment(clock, adminP)
	gcp, err := dep.AddRegion("gcp-us", "gcp")
	if err != nil {
		t.Fatal(err)
	}
	aws, err := dep.AddRegion("aws-us-east-1", "aws")
	if err != nil {
		t.Fatal(err)
	}
	if dep.Primary != "gcp-us" {
		t.Fatalf("primary = %q", dep.Primary)
	}
	return &env{clock: clock, dep: dep, gcp: gcp, aws: aws}
}

func adsSchema() vector.Schema {
	return vector.NewSchema(
		vector.Field{Name: "id", Type: vector.Int64},
		vector.Field{Name: "customer_id", Type: vector.Int64},
	)
}

func ordersSchema() vector.Schema {
	return vector.NewSchema(
		vector.Field{Name: "order_id", Type: vector.Int64},
		vector.Field{Name: "customer_id", Type: vector.Int64},
		vector.Field{Name: "order_total", Type: vector.Float64},
	)
}

// seedTables creates local_dataset.ads_impressions on GCP and
// aws_dataset.customer_orders on AWS, the Listing 3 setup.
func (ev *env) seedTables(t *testing.T, adsRows, orderRows int) {
	t.Helper()
	d := ev.dep
	if err := d.Catalog.CreateDataset(catalog.Dataset{Name: "local_dataset", Region: "gcp-us", Cloud: "gcp"}); err != nil {
		t.Fatal(err)
	}
	if err := d.Catalog.CreateDataset(catalog.Dataset{Name: "aws_dataset", Region: "aws-us-east-1", Cloud: "aws"}); err != nil {
		t.Fatal(err)
	}
	if err := d.Catalog.CreateTable(catalog.Table{
		Dataset: "local_dataset", Name: "ads_impressions", Type: catalog.Managed,
		Schema: adsSchema(), Cloud: "gcp", Bucket: ev.gcp.Manager.DefaultBucket,
		Prefix: "blmt/ads/", Connection: ev.gcp.DefaultConnection(),
	}); err != nil {
		t.Fatal(err)
	}
	if err := d.Catalog.CreateTable(catalog.Table{
		Dataset: "aws_dataset", Name: "customer_orders", Type: catalog.Managed,
		Schema: ordersSchema(), Cloud: "aws", Bucket: ev.aws.Manager.DefaultBucket,
		Prefix: "blmt/orders/", Connection: ev.aws.DefaultConnection(),
	}); err != nil {
		t.Fatal(err)
	}
	for _, tbl := range []string{"local_dataset.ads_impressions", "aws_dataset.customer_orders"} {
		d.Auth.GrantTable(ControlPrincipal, tbl, adminP, security.RoleOwner)
		d.Auth.GrantTable(ControlPrincipal, tbl, analystP, security.RoleViewer)
	}

	bl := vector.NewBuilder(adsSchema())
	for i := 0; i < adsRows; i++ {
		bl.Append(vector.IntValue(int64(i)), vector.IntValue(int64(i%50)))
	}
	ctx := engine.NewContext(adminP, "seed")
	if err := ev.gcp.Manager.Insert(ctx, "local_dataset.ads_impressions", bl.Build()); err != nil {
		t.Fatal(err)
	}
	bo := vector.NewBuilder(ordersSchema())
	for i := 0; i < orderRows; i++ {
		bo.Append(vector.IntValue(int64(i)), vector.IntValue(int64(i%50)), vector.FloatValue(float64(i)*1.5))
	}
	if err := ev.aws.Manager.Insert(ctx, "aws_dataset.customer_orders", bo.Build()); err != nil {
		t.Fatal(err)
	}
}

func TestSingleRegionQueryOnForeignCloud(t *testing.T) {
	ev := newEnv(t)
	ev.seedTables(t, 10, 20)
	res, err := ev.dep.Submit(analystP, "SELECT COUNT(*) AS n FROM aws_dataset.customer_orders")
	if err != nil {
		t.Fatal(err)
	}
	if res.Batch.Column("n").Value(0).AsInt() != 20 {
		t.Fatalf("count = %v", res.Batch.Row(0))
	}
}

func TestCrossCloudJoinListing3(t *testing.T) {
	ev := newEnv(t)
	ev.seedTables(t, 100, 200)
	res, err := ev.dep.Submit(analystP, `SELECT o.order_id, o.order_total, ads.id
		FROM local_dataset.ads_impressions AS ads
		JOIN aws_dataset.customer_orders AS o ON o.customer_id = ads.customer_id`)
	if err != nil {
		t.Fatal(err)
	}
	// 100 ads x 200 orders joined on customer_id%50: each ad matches 4
	// orders.
	if res.Batch.N != 400 {
		t.Fatalf("rows = %d, want 400", res.Batch.N)
	}
	if ev.dep.Obs.Get("omni.cross_cloud_queries") != 1 {
		t.Fatal("cross-cloud path not taken")
	}
}

func TestCrossCloudPushdownReducesEgress(t *testing.T) {
	// E10: a selective predicate on the remote table ships a fraction
	// of its bytes.
	ev := newEnv(t)
	ev.seedTables(t, 100, 2000)
	query := `SELECT o.order_id, ads.id
		FROM local_dataset.ads_impressions AS ads
		JOIN aws_dataset.customer_orders AS o ON o.customer_id = ads.customer_id
		WHERE o.order_total > 2800.0`

	egress := func() int64 { return ev.dep.Obs.Get("omni.egress_bytes") }
	before := egress()
	resPush, err := ev.dep.Submit(analystP, query)
	if err != nil {
		t.Fatal(err)
	}
	egressPush := egress() - before

	before = egress()
	resFull, err := ev.dep.SubmitWith(analystP, query, SubmitOptions{DisablePushdown: true})
	if err != nil {
		t.Fatal(err)
	}
	egressFull := egress() - before

	if resPush.Batch.N != resFull.Batch.N {
		t.Fatalf("pushdown changed the answer: %d vs %d", resPush.Batch.N, resFull.Batch.N)
	}
	if egressPush*3 >= egressFull {
		t.Fatalf("pushdown egress %d should be far below full-shipping %d", egressPush, egressFull)
	}
}

func TestCrossCloudQueryChargesVPNLatency(t *testing.T) {
	ev := newEnv(t)
	ev.seedTables(t, 10, 10)
	before := ev.clock.Now()
	if _, err := ev.dep.Submit(analystP, `SELECT o.order_id, ads.id
		FROM local_dataset.ads_impressions AS ads
		JOIN aws_dataset.customer_orders AS o ON o.customer_id = ads.customer_id`); err != nil {
		t.Fatal(err)
	}
	if elapsed := ev.clock.Now() - before; elapsed < sim.AWS.CrossCloudRTT {
		t.Fatalf("cross-cloud query took %v, must include at least one RTT", elapsed)
	}
}

func TestIAMCheckedBeforeDispatch(t *testing.T) {
	ev := newEnv(t)
	ev.seedTables(t, 5, 5)
	_, err := ev.dep.Submit("evil@x", "SELECT * FROM aws_dataset.customer_orders")
	if !errors.Is(err, security.ErrDenied) {
		t.Fatalf("err = %v", err)
	}
}

func TestUntrustedProxyRejectsTamperedToken(t *testing.T) {
	ev := newEnv(t)
	ev.seedTables(t, 5, 5)
	proxy := ev.dep.Proxy()
	svc := security.Principal(ev.aws.ServiceAccount().Principal)
	tok := ev.dep.Auth.MintToken("q1", analystP, "aws-us-east-1",
		[]string{"aws_dataset.customer_orders"}, ev.clock.Now()+time.Minute)

	// Legitimate request passes.
	if err := proxy.Authorize(tok, "aws-us-east-1", svc, "aws_dataset.customer_orders"); err != nil {
		t.Fatal(err)
	}
	// A compromised worker widening scope is rejected.
	tok2 := tok
	tok2.Tables = append([]string{}, tok.Tables...)
	tok2.Tables = append(tok2.Tables, "local_dataset.ads_impressions")
	if err := proxy.Authorize(tok2, "aws-us-east-1", svc, "local_dataset.ads_impressions"); !errors.Is(err, security.ErrBadToken) {
		t.Fatalf("tampered token: %v", err)
	}
	// Out-of-scope table with a valid token is rejected.
	if err := proxy.Authorize(tok, "aws-us-east-1", svc, "local_dataset.ads_impressions"); !errors.Is(err, security.ErrBadToken) {
		t.Fatalf("out of scope: %v", err)
	}
	// Expired token.
	ev.clock.Advance(2 * time.Minute)
	if err := proxy.Authorize(tok, "aws-us-east-1", svc, "aws_dataset.customer_orders"); !errors.Is(err, security.ErrBadToken) {
		t.Fatalf("expired token: %v", err)
	}
}

func TestSecurityRealmsIsolateRegions(t *testing.T) {
	// §5.3.3: each region has a unique principal namespace; a service
	// identity from one region cannot operate in another.
	ev := newEnv(t)
	ev.seedTables(t, 1, 1)
	proxy := ev.dep.Proxy()
	awsSvc := security.Principal(ev.aws.ServiceAccount().Principal)
	gcpSvc := security.Principal(ev.gcp.ServiceAccount().Principal)
	tok := ev.dep.Auth.MintToken("q", analystP, "gcp-us",
		[]string{"local_dataset.ads_impressions"}, ev.clock.Now()+time.Minute)
	if err := proxy.Authorize(tok, "gcp-us", gcpSvc, "local_dataset.ads_impressions"); err != nil {
		t.Fatal(err)
	}
	if err := proxy.Authorize(tok, "gcp-us", awsSvc, "local_dataset.ads_impressions"); !errors.Is(err, ErrRealmViolation) {
		t.Fatalf("cross-realm access: %v", err)
	}
	// Region mismatch in the token itself.
	if err := proxy.Authorize(tok, "aws-us-east-1", awsSvc, "local_dataset.ads_impressions"); !errors.Is(err, security.ErrBadToken) {
		t.Fatalf("wrong-region token: %v", err)
	}
}

func TestVPNAllowList(t *testing.T) {
	clock := sim.NewClock()
	vpn := NewVPN(obs.NewRegistry())
	vpn.Admit("gcp-us")
	if err := vpn.Call(clock, "gcp-us", "gcp-us", 10, sim.GCP); err != nil {
		t.Fatal(err)
	}
	if err := vpn.Call(clock, "gcp-us", "rogue-region", 10, sim.GCP); !errors.Is(err, ErrVPNDenied) {
		t.Fatalf("err = %v", err)
	}
}

func TestVPNEgressMetering(t *testing.T) {
	clock := sim.NewClock()
	reg := obs.NewRegistry()
	vpn := NewVPN(reg)
	vpn.Admit("a")
	vpn.Admit("b")
	vpn.Call(clock, "a", "b", 5000, sim.AWS)
	vpn.Call(clock, "b", "b", 7000, sim.AWS) // intra-region: no egress
	if got := reg.Get("omni.egress_bytes"); got != 5000 {
		t.Fatalf("egress = %d", got)
	}
}

func TestScopedCredentialLimitsBlastRadius(t *testing.T) {
	// §5.3.1: queries run with credentials scoped to the exact paths
	// they need; a compromised worker cannot read other tables' data.
	ev := newEnv(t)
	ev.seedTables(t, 5, 5)
	scope, err := ev.dep.scopeFor([]string{"aws_dataset.customer_orders"})
	if err != nil {
		t.Fatal(err)
	}
	conn, _ := ev.dep.Auth.Connection(ev.aws.DefaultConnection())
	scoped, err := conn.ServiceAccount.WithScope(scope...)
	if err != nil {
		t.Fatal(err)
	}
	// The scoped credential reads the query's own table fine.
	files, _, _ := ev.aws.Log.Snapshot("aws_dataset.customer_orders", -1)
	if _, _, err := ev.aws.Store.Get(scoped, files[0].Bucket, files[0].Key); err != nil {
		t.Fatalf("in-scope read: %v", err)
	}
	// Another table's data under the same bucket is out of reach.
	other := "blmt/other/data/secret.blk"
	ev.aws.Store.Put(conn.ServiceAccount, files[0].Bucket, other, []byte("x"), "")
	if _, _, err := ev.aws.Store.Get(scoped, files[0].Bucket, other); err == nil {
		t.Fatal("scoped credential escaped its paths")
	}
}

func TestOmniParityAcrossClouds(t *testing.T) {
	// E9 shape: the same workload costs comparable simulated time on
	// GCP and on the foreign cloud (within the clouds' modest profile
	// differences).
	ev := newEnv(t)
	ev.seedTables(t, 300, 300)
	// Compare data-plane execution time (engine SimElapsed): the §5.4
	// parity claim is about Dremel-on-foreign-cloud performance, not
	// the constant control-plane dispatch RTT.
	run := func(table string) time.Duration {
		res, err := ev.dep.Submit(analystP, "SELECT COUNT(*) AS n FROM "+table+" WHERE customer_id < 25")
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats.SimElapsed
	}
	gcpTime := run("local_dataset.ads_impressions")
	awsTime := run("aws_dataset.customer_orders")
	ratio := float64(awsTime) / float64(gcpTime)
	if ratio > 1.6 || ratio < 0.6 {
		t.Fatalf("aws/gcp time ratio %.2f — Omni should be near parity (gcp=%v aws=%v)", ratio, gcpTime, awsTime)
	}
}

func TestCCMVIncrementalRefresh(t *testing.T) {
	ev := newEnv(t)
	ev.seedTables(t, 5, 50)
	mv, err := ev.dep.CreateCCMV("orders_mv", "aws_dataset.customer_orders", "gcp-us")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ev.dep.Refresh(mv, true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FilesCopied != 1 || rep.BytesCopied == 0 {
		t.Fatalf("initial refresh = %+v", rep)
	}
	// Replica is queryable in the GCP region.
	ev.dep.GrantReplicaAccess(mv, analystP)
	res, err := ev.dep.Submit(analystP, "SELECT COUNT(*) AS n FROM "+mv.Replica)
	if err != nil {
		t.Fatal(err)
	}
	if res.Batch.Column("n").Value(0).AsInt() != 50 {
		t.Fatalf("replica rows = %v", res.Batch.Row(0))
	}
	// No changes: refresh is a no-op.
	rep, _ = ev.dep.Refresh(mv, true)
	if !rep.UpToDate || rep.FilesCopied != 0 {
		t.Fatalf("idle refresh = %+v", rep)
	}
}

func TestCCMVIncrementalBeatsFullOnEgress(t *testing.T) {
	// E11: after a small source change, incremental refresh copies one
	// file; full recreation recopies everything.
	ev := newEnv(t)
	ev.seedTables(t, 5, 50)
	// Several more source commits -> several files.
	for i := 0; i < 4; i++ {
		ctx := engine.NewContext(adminP, fmt.Sprintf("seed2-%d", i))
		bo := vector.NewBuilder(ordersSchema())
		for j := 0; j < 50; j++ {
			bo.Append(vector.IntValue(int64(1000+i*50+j)), vector.IntValue(int64(j%50)), vector.FloatValue(1))
		}
		if err := ev.aws.Manager.Insert(ctx, "aws_dataset.customer_orders", bo.Build()); err != nil {
			t.Fatal(err)
		}
	}
	mv, err := ev.dep.CreateCCMV("orders_mv2", "aws_dataset.customer_orders", "gcp-us")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ev.dep.Refresh(mv, true); err != nil {
		t.Fatal(err)
	}

	// One more small source insert.
	bo := vector.NewBuilder(ordersSchema())
	bo.Append(vector.IntValue(9999), vector.IntValue(1), vector.FloatValue(1))
	if err := ev.aws.Manager.Insert(engine.NewContext(adminP, "seed3"), "aws_dataset.customer_orders", bo.Build()); err != nil {
		t.Fatal(err)
	}

	inc, err := ev.dep.Refresh(mv, true)
	if err != nil {
		t.Fatal(err)
	}
	full, err := ev.dep.Refresh(mv, false)
	if err != nil {
		t.Fatal(err)
	}
	if inc.FilesCopied != 1 {
		t.Fatalf("incremental copied %d files, want 1", inc.FilesCopied)
	}
	if full.FilesCopied <= inc.FilesCopied || full.BytesCopied <= inc.BytesCopied {
		t.Fatalf("full refresh (files=%d bytes=%d) should dwarf incremental (files=%d bytes=%d)",
			full.FilesCopied, full.BytesCopied, inc.FilesCopied, inc.BytesCopied)
	}
}

func TestCCMVDeleteRecreatesOnlyAffectedPartition(t *testing.T) {
	ev := newEnv(t)
	ev.seedTables(t, 5, 50)
	ctx := engine.NewContext(adminP, "seed2")
	// Second file.
	bo := vector.NewBuilder(ordersSchema())
	for j := 0; j < 50; j++ {
		bo.Append(vector.IntValue(int64(100+j)), vector.IntValue(int64(j%50)), vector.FloatValue(2))
	}
	ev.aws.Manager.Insert(ctx, "aws_dataset.customer_orders", bo.Build())

	mv, _ := ev.dep.CreateCCMV("orders_mv3", "aws_dataset.customer_orders", "gcp-us")
	ev.dep.Refresh(mv, true)

	// Delete rows living in the first file only.
	if _, err := ev.aws.Manager.Delete(ctx, "aws_dataset.customer_orders", func(b *vector.Batch) ([]bool, error) {
		c := b.Column("order_id")
		mask := make([]bool, b.N)
		for i := 0; i < b.N; i++ {
			mask[i] = c.Value(i).AsInt() < 10
		}
		return mask, nil
	}); err != nil {
		t.Fatal(err)
	}

	rep, err := ev.dep.Refresh(mv, true)
	if err != nil {
		t.Fatal(err)
	}
	// The delete rewrote one source file: one replica partition
	// retired, one copied — not the whole view.
	if rep.FilesDeleted != 1 || rep.FilesCopied != 1 {
		t.Fatalf("partition-level refresh = %+v", rep)
	}
	ev.dep.GrantReplicaAccess(mv, analystP)
	res, err := ev.dep.Submit(analystP, "SELECT COUNT(*) AS n FROM "+mv.Replica)
	if err != nil {
		t.Fatal(err)
	}
	if res.Batch.Column("n").Value(0).AsInt() != 90 {
		t.Fatalf("replica rows = %v, want 90", res.Batch.Row(0))
	}
}

func TestCCMVValidation(t *testing.T) {
	ev := newEnv(t)
	ev.seedTables(t, 1, 1)
	if _, err := ev.dep.CreateCCMV("bad", "aws_dataset.customer_orders", "aws-us-east-1"); err == nil {
		t.Fatal("same-region CCMV should fail")
	}
	if _, err := ev.dep.CreateCCMV("bad2", "ghost.table", "gcp-us"); !errors.Is(err, catalog.ErrNotFound) {
		t.Fatalf("missing source: %v", err)
	}
}

func TestAddRegionValidation(t *testing.T) {
	ev := newEnv(t)
	if _, err := ev.dep.AddRegion("gcp-us", "gcp"); err == nil {
		t.Fatal("duplicate region should fail")
	}
	if _, err := ev.dep.Region("mars-1"); !errors.Is(err, ErrNoRegion) {
		t.Fatalf("missing region: %v", err)
	}
	az, err := ev.dep.AddRegion("azure-eastus", "azure")
	if err != nil || az.Cloud != "azure" {
		t.Fatalf("azure region: %v", err)
	}
}

func TestReferencedTables(t *testing.T) {
	stmts := map[string][]string{
		"SELECT a FROM x.y JOIN p.q AS q2 ON q2.a = b":                {"x.y", "p.q"},
		"SELECT a FROM (SELECT b FROM inner_ds.t) s":                  {"inner_ds.t"},
		"INSERT INTO d.t SELECT * FROM s.u":                           {"d.t", "s.u"},
		"DELETE FROM d.t":                                             {"d.t"},
		"CREATE TABLE d.new AS SELECT * FROM s.old":                   {"d.new", "s.old"},
		"SELECT * FROM ML.PREDICT(MODEL m.x, (SELECT a FROM ds.obj))": {"ds.obj"},
	}
	for sql, want := range stmts {
		stmt, err := sqlparse.Parse(sql)
		if err != nil {
			t.Fatalf("parse %q: %v", sql, err)
		}
		got := sqlparse.ReferencedTables(stmt)
		if len(got) != len(want) {
			t.Fatalf("%q tables = %v, want %v", sql, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%q tables = %v, want %v", sql, got, want)
			}
		}
	}
}

func TestResultsMatchSingleCloudBaseline(t *testing.T) {
	// Correctness invariant: the cross-cloud split returns exactly
	// what a hypothetical single-region join would.
	ev := newEnv(t)
	ev.seedTables(t, 30, 60)
	res, err := ev.dep.Submit(analystP, `SELECT ads.id, o.order_total
		FROM local_dataset.ads_impressions AS ads
		JOIN aws_dataset.customer_orders AS o ON o.customer_id = ads.customer_id
		WHERE o.order_total >= 30.0 ORDER BY ads.id, o.order_total`)
	if err != nil {
		t.Fatal(err)
	}
	// Recompute expectation in plain Go.
	want := 0
	for ads := 0; ads < 30; ads++ {
		for o := 0; o < 60; o++ {
			if o%50 == ads%50 && float64(o)*1.5 >= 30.0 {
				want++
			}
		}
	}
	if res.Batch.N != want {
		t.Fatalf("rows = %d, want %d", res.Batch.N, want)
	}
	for i := 0; i < res.Batch.N; i++ {
		if res.Batch.Row(i)[1].AsFloat() < 30.0 {
			t.Fatal("predicate violated")
		}
	}
}
