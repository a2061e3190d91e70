package omni

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"biglake/internal/engine"
	"biglake/internal/oracle"
	"biglake/internal/sqlparse"
	"biglake/internal/storageapi"
	"biglake/internal/vector"
)

const crossCloudJoin = `SELECT o.order_id, o.order_total, ads.id
	FROM local_dataset.ads_impressions AS ads
	JOIN aws_dataset.customer_orders AS o ON o.customer_id = ads.customer_id
	ORDER BY o.order_id, ads.id`

// TestEveryDoorRecordsOneJob sends statements through every entry
// point — Lakehouse.Query (autocommit, then a whole transaction), a
// serve session, an Omni single-region query and an Omni cross-cloud
// query — and requires each statement to leave exactly one new
// system.jobs row across the deployment, in the region that owns the
// door, carrying its SQL text. An Omni row also carries what its region
// runs scanned.
func TestEveryDoorRecordsOneJob(t *testing.T) {
	ev := newEnv(t)
	ev.seedTables(t, 100, 200)
	sess, err := ev.gcp.Server.Open(adminP, "door")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	query := func(sql string) error {
		_, err := ev.gcp.Query(adminP, sql)
		return err
	}
	session := func(sql string) error {
		cur, err := sess.Query(sql)
		if err == nil {
			_, err = cur.All()
		}
		return err
	}
	submit := func(sql string) error {
		_, err := ev.dep.Submit(analystP, sql)
		return err
	}
	doors := []struct {
		name  string
		run   func(sql string) error
		id    string // query ID prefix of the door's rows
		stmts []string
	}{
		{"Lakehouse.Query", query, "q-", []string{
			"INSERT INTO local_dataset.ads_impressions VALUES (1000, 7)",
			"BEGIN",
			"INSERT INTO local_dataset.ads_impressions VALUES (1001, 7)",
			"SELECT COUNT(*) AS n FROM local_dataset.ads_impressions",
			"COMMIT",
		}},
		{"serve.Session", session, "door-", []string{
			"SELECT id FROM local_dataset.ads_impressions WHERE id = 1001",
		}},
		{"Omni single-region", submit, "omni-q-", []string{
			"SELECT COUNT(*) AS n FROM aws_dataset.customer_orders",
		}},
		{"Omni cross-cloud", submit, "omni-q-", []string{crossCloudJoin}},
	}
	for _, door := range doors {
		t.Run(door.name, func(t *testing.T) {
			for _, sql := range door.stmts {
				gcpBefore, awsBefore := len(ev.gcp.Engine.Sys.Jobs()), len(ev.aws.Engine.Sys.Jobs())
				if err := door.run(sql); err != nil {
					t.Fatalf("%s: %v", sql, err)
				}
				jobs := ev.gcp.Engine.Sys.Jobs()
				if got, aws := len(jobs)-gcpBefore, len(ev.aws.Engine.Sys.Jobs())-awsBefore; got != 1 || aws != 0 {
					t.Fatalf("%s: %d new rows in the primary region and %d in the AWS region, want 1 and 0", sql, got, aws)
				}
				if last := jobs[len(jobs)-1]; last.SQL != sql || !strings.HasPrefix(last.QueryID, door.id) {
					t.Fatalf("%s: row %s carries SQL %q, want its own text under a %s* ID", sql, last.QueryID, last.SQL, door.id)
				}
				if last := jobs[len(jobs)-1]; door.id == "omni-q-" && (last.RowsScanned <= 0 || last.BytesScanned <= 0) {
					t.Fatalf("%s: row %s reports rows_scanned %d, bytes_scanned %d, want > 0", sql, last.QueryID, last.RowsScanned, last.BytesScanned)
				}
			}
		})
	}
}

// TestCrossCloudQueryRepeats: Submit parses through the primary
// region's statement cache, so a repeated query shares one AST. The
// cross-cloud rewrite must clone what it changes: the second run takes
// the cross-cloud path again and returns the same rows, and the cached
// statement still names the AWS table.
func TestCrossCloudQueryRepeats(t *testing.T) {
	ev := newEnv(t)
	ev.seedTables(t, 100, 200)
	var runs [2][][]string
	for i := range runs {
		res, err := ev.dep.Submit(analystP, crossCloudJoin)
		if err != nil {
			t.Fatalf("run %d: %v", i+1, err)
		}
		runs[i] = rowStrings(res)
	}
	if len(runs[0]) != 400 || !slices.EqualFunc(runs[0], runs[1], slices.Equal[[]string]) {
		t.Fatalf("runs returned %d and %d rows (want 400 each, equal)", len(runs[0]), len(runs[1]))
	}
	if got := ev.dep.Obs.Get("omni.cross_cloud_queries"); got != 2 {
		t.Fatalf("cross-cloud path taken %d times, want 2", got)
	}
	stmt, hit, err := ev.gcp.Engine.Parse(crossCloudJoin)
	if err != nil || !hit {
		t.Fatalf("primary statement cache: hit=%v err=%v, want the submitted statement cached", hit, err)
	}
	if tables := sqlparse.ReferencedTables(stmt); !slices.Contains(tables, "aws_dataset.customer_orders") {
		t.Fatalf("cached statement rewritten in place: references %v", tables)
	}
}

func rowStrings(res *engine.Result) [][]string {
	out := make([][]string, res.Batch.N)
	for i := range out {
		for _, v := range res.Batch.Row(i) {
			out[i] = append(out[i], v.String())
		}
	}
	return out
}

// TestFloatSumSameAtEveryDoor: a SUM and AVG over non-dyadic floats
// spread over several files answer the exact sum, rounded once, at
// every door that offers them — an Omni query, the region's own
// Lakehouse.Query, a serve session and a Read API aggregate session.
func TestFloatSumSameAtEveryDoor(t *testing.T) {
	ev := newEnv(t)
	ev.seedTables(t, 10, 0)
	rng := rand.New(rand.NewSource(9))
	var totals []float64
	for file := 0; file < 5; file++ {
		bo := vector.NewBuilder(ordersSchema())
		for i, n := 0, 1+rng.Intn(20); i < n; i++ {
			v := rng.NormFloat64() * math.Pow(10, float64(rng.Intn(16)-3))
			totals = append(totals, v)
			bo.Append(vector.IntValue(int64(len(totals))), vector.IntValue(int64(i%7)), vector.FloatValue(v))
		}
		ctx := engine.NewContext(adminP, fmt.Sprintf("seed-float-%d", file)) // a reused ID replays as a no-op
		if err := ev.aws.Manager.Insert(ctx, "aws_dataset.customer_orders", bo.Build()); err != nil {
			t.Fatal(err)
		}
	}
	sum := oracle.ExactSum(totals)
	want := []float64{sum, sum / float64(len(totals))}
	const sql = "SELECT SUM(order_total) AS s, AVG(order_total) AS a FROM aws_dataset.customer_orders"

	check := func(door string, b *vector.Batch) {
		t.Helper()
		for i, w := range want[:len(b.Cols)] {
			if got := b.Cols[i].Value(0); got.Type != vector.Float64 || math.Float64bits(got.F) != math.Float64bits(w) {
				t.Errorf("%s column %d = %v, want %v (exact)", door, i, got, w)
			}
		}
	}
	res, err := ev.dep.Submit(analystP, sql)
	if err != nil {
		t.Fatal(err)
	}
	check("Omni", res.Batch)
	if res, err = ev.aws.Query(adminP, sql); err != nil {
		t.Fatal(err)
	}
	check("Lakehouse.Query", res.Batch)
	sess, err := ev.aws.Server.Open(adminP, "float")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	cur, err := sess.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	b, err := cur.All()
	if err != nil {
		t.Fatal(err)
	}
	check("serve.Session", b)
	for _, streams := range []int{1, 2, 4} {
		ev.clock.Advance(ev.aws.StorageAPI.SessionTTL + time.Second)
		rs, err := ev.aws.StorageAPI.CreateReadSession(storageapi.ReadSessionRequest{
			Table: "aws_dataset.customer_orders", Principal: adminP, SnapshotVersion: -1, MaxStreams: streams,
			Aggregates: []storageapi.AggregateRequest{{Column: "order_total", Kind: vector.AggSum}},
		})
		if err != nil {
			t.Fatal(err)
		}
		b, err := ev.aws.StorageAPI.ReadAll(rs)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("Read API at MaxStreams %d", streams), b)
	}
}
