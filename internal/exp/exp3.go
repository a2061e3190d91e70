package exp

import (
	"fmt"
	"strings"
	"time"

	"biglake/internal/bigmeta"
	"biglake/internal/catalog"
	"biglake/internal/colfmt"
	"biglake/internal/engine"
	"biglake/internal/omni"
	"biglake/internal/security"
	"biglake/internal/sim"
	"biglake/internal/sparkle"
	"biglake/internal/storageapi"
	"biglake/internal/vector"
	"biglake/internal/workload"
)

// --- E9: §5.4 — Dremel performance parity across clouds ---

// E9Row is one query's per-cloud data-plane time.
type E9Row struct {
	QueryID string
	GCP     time.Duration
	AWS     time.Duration
	Ratio   float64 // aws/gcp; ~1 means parity
}

// E9Result is the cross-cloud parity experiment.
type E9Result struct {
	Rows []E9Row
}

// RunE9 loads the same TPC-H-like data in a GCP region and an AWS
// region of one Omni deployment and compares data-plane execution
// times per query.
func RunE9(scale int) (E9Result, error) {
	clock := sim.NewClock()
	dep := omni.NewDeployment(clock, Admin)
	gcp, err := dep.AddRegion("gcp-us", "gcp")
	if err != nil {
		return E9Result{}, err
	}
	aws, err := dep.AddRegion("aws-us-east-1", "aws")
	if err != nil {
		return E9Result{}, err
	}

	cfg := workload.DefaultTPCH(scale)
	load := func(r *omni.Region, dataset string) error {
		if err := dep.Catalog.CreateDataset(catalog.Dataset{Name: dataset, Region: r.Name, Cloud: r.Cloud}); err != nil {
			return err
		}
		cred := r.Engine.ManagedCred
		bucket := "tpch-" + r.Cloud
		if err := r.Store.CreateBucket(cred, bucket); err != nil {
			return err
		}
		return workload.LoadTPCH(&workload.Env{
			Catalog: dep.Catalog, Auth: dep.Auth, Store: r.Store, Log: r.Log, Clock: clock,
			Cred: cred, Connection: r.DefaultConnection(), Bucket: bucket, Cloud: r.Cloud,
			Dataset: dataset, Admin: omni.ControlPrincipal,
		}, cfg)
	}
	if err := load(gcp, "tpch_gcp"); err != nil {
		return E9Result{}, err
	}
	if err := load(aws, "tpch_aws"); err != nil {
		return E9Result{}, err
	}
	for _, ds := range []string{"tpch_gcp", "tpch_aws"} {
		for _, tbl := range []string{"lineitem", "orders", "customer"} {
			if err := dep.Auth.GrantTable(omni.ControlPrincipal, ds+"."+tbl, Admin, security.RoleViewer); err != nil {
				return E9Result{}, err
			}
		}
	}

	out := E9Result{}
	for _, q := range workload.TPCHQueries("tpch_gcp") {
		gcpRes, err := dep.Submit(Admin, q.SQL)
		if err != nil {
			return E9Result{}, fmt.Errorf("%s on gcp: %w", q.ID, err)
		}
		awsSQL := strings.ReplaceAll(q.SQL, "tpch_gcp.", "tpch_aws.")
		awsRes, err := dep.Submit(Admin, awsSQL)
		if err != nil {
			return E9Result{}, fmt.Errorf("%s on aws: %w", q.ID, err)
		}
		row := E9Row{QueryID: q.ID, GCP: gcpRes.Stats.SimElapsed, AWS: awsRes.Stats.SimElapsed}
		if row.GCP > 0 {
			row.Ratio = float64(row.AWS) / float64(row.GCP)
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// --- E10: §5.6.1 — cross-cloud queries with filter pushdown ---

// E10Result compares pushdown vs full-table shipping (ablation A5 is
// the DisablePushdown arm).
type E10Result struct {
	RemoteRows      int64
	PushdownEgress  int64
	FullEgress      int64
	EgressReduction float64
	PushdownTime    time.Duration
	FullTime        time.Duration
	AnswersAgree    bool
}

// RunE10 runs the Listing 3 join with a selective predicate on the
// remote table, with and without pushdown.
func RunE10(adsRows, orderRows int) (E10Result, error) {
	clock := sim.NewClock()
	dep := omni.NewDeployment(clock, Admin)
	gcp, err := dep.AddRegion("gcp-us", "gcp")
	if err != nil {
		return E10Result{}, err
	}
	aws, err := dep.AddRegion("aws-us-east-1", "aws")
	if err != nil {
		return E10Result{}, err
	}
	if err := seedListing3(dep, gcp, aws, adsRows, orderRows); err != nil {
		return E10Result{}, err
	}

	query := `SELECT o.order_id, ads.id
		FROM local_dataset.ads_impressions AS ads
		JOIN aws_dataset.customer_orders AS o ON o.customer_id = ads.customer_id
		WHERE o.order_total > 1350.0`

	egress := func() int64 { return dep.Obs.Get("omni.egress_bytes") }
	before, egress0 := clock.Now(), egress()
	push, err := dep.Submit(Admin, query)
	if err != nil {
		return E10Result{}, err
	}
	pushTime, pushEgress := clock.Now()-before, egress()-egress0

	before, egress0 = clock.Now(), egress()
	full, err := dep.SubmitWith(Admin, query, omni.SubmitOptions{DisablePushdown: true})
	if err != nil {
		return E10Result{}, err
	}
	fullTime, fullEgress := clock.Now()-before, egress()-egress0

	out := E10Result{
		RemoteRows:     int64(orderRows),
		PushdownEgress: pushEgress,
		FullEgress:     fullEgress,
		PushdownTime:   pushTime,
		FullTime:       fullTime,
		AnswersAgree:   push.Batch.N == full.Batch.N,
	}
	if pushEgress > 0 {
		out.EgressReduction = float64(fullEgress) / float64(pushEgress)
	}
	return out, nil
}

func seedListing3(dep *omni.Deployment, gcp, aws *omni.Region, adsRows, orderRows int) error {
	adsSchema := vector.NewSchema(
		vector.Field{Name: "id", Type: vector.Int64},
		vector.Field{Name: "customer_id", Type: vector.Int64},
	)
	ordersSchema := vector.NewSchema(
		vector.Field{Name: "order_id", Type: vector.Int64},
		vector.Field{Name: "customer_id", Type: vector.Int64},
		vector.Field{Name: "order_total", Type: vector.Float64},
	)
	if err := dep.Catalog.CreateDataset(catalog.Dataset{Name: "local_dataset", Region: gcp.Name, Cloud: gcp.Cloud}); err != nil {
		return err
	}
	if err := dep.Catalog.CreateDataset(catalog.Dataset{Name: "aws_dataset", Region: aws.Name, Cloud: aws.Cloud}); err != nil {
		return err
	}
	if err := dep.Catalog.CreateTable(catalog.Table{
		Dataset: "local_dataset", Name: "ads_impressions", Type: catalog.Managed,
		Schema: adsSchema, Cloud: gcp.Cloud, Bucket: gcp.Manager.DefaultBucket,
		Prefix: "blmt/ads/", Connection: gcp.DefaultConnection(),
	}); err != nil {
		return err
	}
	if err := dep.Catalog.CreateTable(catalog.Table{
		Dataset: "aws_dataset", Name: "customer_orders", Type: catalog.Managed,
		Schema: ordersSchema, Cloud: aws.Cloud, Bucket: aws.Manager.DefaultBucket,
		Prefix: "blmt/orders/", Connection: aws.DefaultConnection(),
	}); err != nil {
		return err
	}
	for _, tbl := range []string{"local_dataset.ads_impressions", "aws_dataset.customer_orders"} {
		if err := dep.Auth.GrantTable(omni.ControlPrincipal, tbl, Admin, security.RoleOwner); err != nil {
			return err
		}
	}
	ctx := engine.NewContext(Admin, "seed")
	bl := vector.NewBuilder(adsSchema)
	for i := 0; i < adsRows; i++ {
		bl.Append(vector.IntValue(int64(i)), vector.IntValue(int64(i%50)))
	}
	if err := gcp.Manager.Insert(ctx, "local_dataset.ads_impressions", bl.Build()); err != nil {
		return err
	}
	bo := vector.NewBuilder(ordersSchema)
	for i := 0; i < orderRows; i++ {
		bo.Append(vector.IntValue(int64(i)), vector.IntValue(int64(i%50)), vector.FloatValue(float64(i)*1.5))
	}
	return aws.Manager.Insert(ctx, "aws_dataset.customer_orders", bo.Build())
}

// --- E11: §5.6.2 — CCMV incremental vs full replication ---

// E11Result compares refresh strategies after a small source change.
type E11Result struct {
	SourceFiles        int
	IncrementalFiles   int
	IncrementalBytes   int64
	FullFiles          int
	FullBytes          int64
	EgressReduction    float64
	ReplicaRowsCorrect bool
}

// RunE11 builds a multi-file source on AWS, replicates it, makes one
// small change, and refreshes both ways.
func RunE11(files, rowsPerFile int) (E11Result, error) {
	clock := sim.NewClock()
	dep := omni.NewDeployment(clock, Admin)
	gcp, err := dep.AddRegion("gcp-us", "gcp")
	if err != nil {
		return E11Result{}, err
	}
	aws, err := dep.AddRegion("aws-us-east-1", "aws")
	if err != nil {
		return E11Result{}, err
	}
	if err := seedListing3(dep, gcp, aws, 1, rowsPerFile); err != nil {
		return E11Result{}, err
	}
	ordersSchema := vector.NewSchema(
		vector.Field{Name: "order_id", Type: vector.Int64},
		vector.Field{Name: "customer_id", Type: vector.Int64},
		vector.Field{Name: "order_total", Type: vector.Float64},
	)
	// Each insert is its own query: a journaled log replays a reused
	// query ID as a no-op.
	for f := 1; f < files; f++ {
		bo := vector.NewBuilder(ordersSchema)
		for i := 0; i < rowsPerFile; i++ {
			bo.Append(vector.IntValue(int64(f*rowsPerFile+i)), vector.IntValue(int64(i%50)), vector.FloatValue(1))
		}
		if err := aws.Manager.Insert(engine.NewContext(Admin, fmt.Sprintf("seed-%d", f)), "aws_dataset.customer_orders", bo.Build()); err != nil {
			return E11Result{}, err
		}
	}

	mv, err := dep.CreateCCMV("orders_mv", "aws_dataset.customer_orders", "gcp-us")
	if err != nil {
		return E11Result{}, err
	}
	if _, err := dep.Refresh(mv, true); err != nil {
		return E11Result{}, err
	}

	// One small source change.
	bo := vector.NewBuilder(ordersSchema)
	bo.Append(vector.IntValue(999999), vector.IntValue(1), vector.FloatValue(1))
	if err := aws.Manager.Insert(engine.NewContext(Admin, "change"), "aws_dataset.customer_orders", bo.Build()); err != nil {
		return E11Result{}, err
	}

	inc, err := dep.Refresh(mv, true)
	if err != nil {
		return E11Result{}, err
	}
	full, err := dep.Refresh(mv, false)
	if err != nil {
		return E11Result{}, err
	}

	if err := dep.GrantReplicaAccess(mv, Admin); err != nil {
		return E11Result{}, err
	}
	res, err := dep.Submit(Admin, "SELECT COUNT(*) AS n FROM "+mv.Replica)
	if err != nil {
		return E11Result{}, err
	}
	wantRows := int64(files*rowsPerFile + 1)
	out := E11Result{
		SourceFiles:        files + 1,
		IncrementalFiles:   inc.FilesCopied,
		IncrementalBytes:   inc.BytesCopied,
		FullFiles:          full.FilesCopied,
		FullBytes:          full.BytesCopied,
		ReplicaRowsCorrect: res.Batch.Column("n").Value(0).AsInt() == wantRows,
	}
	if inc.BytesCopied > 0 {
		out.EgressReduction = float64(full.BytesCopied) / float64(inc.BytesCopied)
	}
	return out, nil
}

// --- E12: §3.2 — uniform governance across engines ---

// E12Result verifies the zero-trust boundary.
type E12Result struct {
	EngineRows        int
	ReadAPIRows       int
	RowsAgree         bool
	MaskingAgrees     bool
	HostileReadDenied bool
	DeniedColumnFails bool
}

// RunE12 applies a row policy and a masking policy, reads through the
// engine and through the Read API as a restricted analyst, and
// verifies a hostile client cannot widen its access.
func RunE12() (E12Result, error) {
	env, err := NewEnv(engine.DefaultOptions())
	if err != nil {
		return E12Result{}, err
	}
	analyst := security.Principal("analyst@corp")
	schema := vector.NewSchema(
		vector.Field{Name: "region", Type: vector.String},
		vector.Field{Name: "email", Type: vector.String},
		vector.Field{Name: "amount", Type: vector.Int64},
	)
	bl := vector.NewBuilder(schema)
	for i := 0; i < 100; i++ {
		bl.Append(
			vector.StringValue([]string{"us", "eu"}[i%2]),
			vector.StringValue(fmt.Sprintf("u%d@x.com", i)),
			vector.IntValue(int64(i)),
		)
	}
	file, err := colfmt.WriteFile(bl.Build(), colfmt.WriterOptions{})
	if err != nil {
		return E12Result{}, err
	}
	if _, err := env.Store.Put(env.Cred, "bench", "gov/part-0.blk", file, ""); err != nil {
		return E12Result{}, err
	}
	if err := env.Cat.CreateTable(catalog.Table{
		Dataset: "bench", Name: "gov", Type: catalog.BigLake, Schema: schema,
		Cloud: "gcp", Bucket: "bench", Prefix: "gov/", Connection: "conn", MetadataCaching: true,
	}); err != nil {
		return E12Result{}, err
	}
	env.Auth.GrantTable(Admin, "bench.gov", analyst, security.RoleViewer)
	env.Auth.AddRowPolicy(Admin, "bench.gov", security.RowPolicy{
		Name: "us_only", Grantees: map[security.Principal]bool{analyst: true},
		Filter: []colfmt.Predicate{{Column: "region", Op: vector.EQ, Value: vector.StringValue("us")}},
	})
	env.Auth.SetColumnPolicy(Admin, "bench.gov", security.ColumnPolicy{
		Column: "email", Allowed: map[security.Principal]bool{Admin: true}, Mask: vector.MaskHash,
	})
	env.Auth.SetColumnPolicy(Admin, "bench.gov", security.ColumnPolicy{
		Column: "amount", Allowed: map[security.Principal]bool{Admin: true}, Mask: vector.MaskNone,
	})

	// Engine path.
	engRes, err := env.Engine.Query(engine.NewContext(analyst, "e12a"), "SELECT region, email FROM bench.gov")
	if err != nil {
		return E12Result{}, err
	}
	// Read API path (an external engine).
	sess, err := env.Server.CreateReadSession(storageapi.ReadSessionRequest{
		Table: "bench.gov", Principal: analyst, Columns: []string{"region", "email"},
	})
	if err != nil {
		return E12Result{}, err
	}
	apiBatch, err := env.Server.ReadAll(sess)
	if err != nil {
		return E12Result{}, err
	}

	masked := func(b *vector.Batch) bool {
		if b.N == 0 {
			return false
		}
		c := b.Column("email")
		for i := 0; i < b.N; i++ {
			if !strings.HasPrefix(c.Value(i).S, "hash_") {
				return false
			}
		}
		return true
	}
	out := E12Result{
		EngineRows:    engRes.Batch.N,
		ReadAPIRows:   apiBatch.N,
		RowsAgree:     engRes.Batch.N == apiBatch.N && engRes.Batch.N == 50,
		MaskingAgrees: masked(engRes.Batch) && masked(apiBatch),
	}

	// Hostile client: stranger principal, huge stream count, explicit
	// request for the denied column.
	if _, err := env.Server.CreateReadSession(storageapi.ReadSessionRequest{
		Table: "bench.gov", Principal: "mallory@evil", MaxStreams: 1000,
	}); err != nil {
		out.HostileReadDenied = true
	}
	if _, err := env.Server.CreateReadSession(storageapi.ReadSessionRequest{
		Table: "bench.gov", Principal: analyst, Columns: []string{"amount"},
	}); err != nil {
		out.DeniedColumnFails = true
	}
	// Sparkle over the Read API sees the same governed rows.
	sp := sparkle.NewSession(env.Clock, sparkle.Options{})
	spBatch, err := sp.ReadBigLake(env.Server, analyst, "bench.gov").Select("region", "email").Collect()
	if err != nil {
		return E12Result{}, err
	}
	out.RowsAgree = out.RowsAgree && spBatch.N == engRes.Batch.N
	out.MaskingAgrees = out.MaskingAgrees && masked(spBatch)
	return out, nil
}

// --- Ablations ---

// A1Result compares pruning granularities (file stats vs
// partition-only).
type A1Result struct {
	FilesTotal       int64
	ScannedPartOnly  int64
	ScannedFileStats int64
	GranularityGain  float64
	SimTimePartOnly  time.Duration
	SimTimeFileStats time.Duration
}

// RunA1 runs a selective non-partition predicate under both pruning
// granularities.
func RunA1(scale int) (A1Result, error) {
	cfg := workload.DefaultTPCDS(scale)
	run := func(g bigmeta.PruneGranularity) (*engine.Result, error) {
		opts := engine.DefaultOptions()
		opts.PruneGranularity = g
		env, err := NewEnv(opts)
		if err != nil {
			return nil, err
		}
		if err := workload.LoadTPCDS(env.WEnv, cfg); err != nil {
			return nil, err
		}
		// item_sk is range-clustered within each date partition, so a
		// point predicate on it is file-stat-prunable but invisible to
		// partition-only pruning.
		return env.query("a1", "SELECT COUNT(*) AS n FROM bench.store_sales WHERE item_sk = 5")
	}
	part, err := run(bigmeta.PrunePartitionsOnly)
	if err != nil {
		return A1Result{}, err
	}
	file, err := run(bigmeta.PruneFiles)
	if err != nil {
		return A1Result{}, err
	}
	out := A1Result{
		FilesTotal:       int64(cfg.Dates * cfg.FilesPerDate),
		ScannedPartOnly:  part.Stats.FilesScanned,
		ScannedFileStats: file.Stats.FilesScanned,
		SimTimePartOnly:  part.Stats.SimElapsed,
		SimTimeFileStats: file.Stats.SimElapsed,
	}
	if file.Stats.FilesScanned > 0 {
		out.GranularityGain = float64(part.Stats.FilesScanned) / float64(file.Stats.FilesScanned)
	}
	return out, nil
}

// A4Result compares wire encodings on the ReadRows payload.
type A4Result struct {
	PlainBytes   int64
	EncodedBytes int64
	Reduction    float64
}

// RunA4 reads a low-cardinality table with and without wire-encoding
// retention.
func RunA4(rows int) (A4Result, error) {
	env, err := NewEnv(engine.DefaultOptions())
	if err != nil {
		return A4Result{}, err
	}
	schema := vector.NewSchema(
		vector.Field{Name: "country", Type: vector.String},
		vector.Field{Name: "status", Type: vector.String},
	)
	bl := vector.NewBuilder(schema)
	for i := 0; i < rows; i++ {
		bl.Append(
			vector.StringValue([]string{"us", "de", "fr"}[i%3]),
			vector.StringValue([]string{"ok", "failed"}[i%2]),
		)
	}
	// One row group so the encoded column chunks survive ReadAll
	// intact onto the wire.
	file, err := colfmt.WriteFile(bl.Build(), colfmt.WriterOptions{RowGroupRows: rows})
	if err != nil {
		return A4Result{}, err
	}
	env.Store.Put(env.Cred, "bench", "a4/p.blk", file, "")
	env.Cat.CreateTable(catalog.Table{
		Dataset: "bench", Name: "a4", Type: catalog.BigLake, Schema: schema,
		Cloud: "gcp", Bucket: "bench", Prefix: "a4/", Connection: "conn", MetadataCaching: true,
	})
	read := func(keep bool) (int64, error) {
		env.Server.SessionTTL = 0
		sess, err := env.Server.CreateReadSession(storageapi.ReadSessionRequest{
			Table: "bench.a4", Principal: Admin, KeepEncodings: keep,
		})
		if err != nil {
			return 0, err
		}
		var total int64
		for _, stream := range sess.Streams {
			for {
				payload, err := env.Server.ReadRows(sess.ID, stream)
				if err != nil {
					if err == storageapi.ErrEndOfStream || strings.Contains(err.Error(), "end of stream") {
						break
					}
					return 0, err
				}
				total += int64(len(payload))
			}
		}
		return total, nil
	}
	plain, err := read(false)
	if err != nil {
		return A4Result{}, err
	}
	encoded, err := read(true)
	if err != nil {
		return A4Result{}, err
	}
	out := A4Result{PlainBytes: plain, EncodedBytes: encoded}
	if encoded > 0 {
		out.Reduction = float64(plain) / float64(encoded)
	}
	return out, nil
}

// A3Result compares baseline-reconciled reads vs full log replay.
type A3Result struct {
	Commits       int
	BaselineNanos int64
	ReplayNanos   int64
	Speedup       float64
}

// RunA3 measures real CPU time of snapshot reconstruction with and
// without columnar baselines after many commits.
func RunA3(commits int) (A3Result, error) {
	clock := sim.NewClock()
	log := bigmeta.NewLog(clock)
	log.BaselineEvery = 64
	for i := 0; i < commits; i++ {
		if _, err := log.Commit("w", map[string]bigmeta.TableDelta{
			"t": {Added: []bigmeta.FileEntry{{Key: fmt.Sprintf("f%06d", i), RowCount: 1}}},
		}); err != nil {
			return A3Result{}, err
		}
	}
	const iters = 50
	start := time.Now()
	for i := 0; i < iters; i++ {
		if _, _, err := log.Snapshot("t", -1); err != nil {
			return A3Result{}, err
		}
	}
	base := time.Since(start)
	start = time.Now()
	for i := 0; i < iters; i++ {
		if _, _, err := log.SnapshotByReplay("t", -1); err != nil {
			return A3Result{}, err
		}
	}
	replay := time.Since(start)
	out := A3Result{Commits: commits, BaselineNanos: base.Nanoseconds() / iters, ReplayNanos: replay.Nanoseconds() / iters}
	if base > 0 {
		out.Speedup = float64(replay) / float64(base)
	}
	return out, nil
}
