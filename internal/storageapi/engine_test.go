package storageapi_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"biglake/internal/core"
	"biglake/internal/engine"
	"biglake/internal/oracle"
	"biglake/internal/security"
	"biglake/internal/storageapi"
	"biglake/internal/vector"
)

// TestAggregateFloatSumMatchesEngine: a float SUM is the exact sum of
// its rows rounded once, so every door gives the same bits — the served
// engine, an engine at workers {1, 2, 3, 8}, an aggregate session at
// every stream cap — and they are oracle.ExactSum's, ±Inf, NaN and −0
// included; AVG divides that sum once. Then INSERT … SELECT stores every
// row again, ±Inf included, and the doubled table answers the same way.
// The first case's four files sum to 2: 1 added in plan order, 2 in the
// order a two-stream fold once took.
func TestAggregateFloatSumMatchesEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var nonDyadic [][]float64
	for f := 0; f < 6; f++ {
		file := make([]float64, 1+rng.Intn(6))
		for i := range file {
			file[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(20)-4))
		}
		nonDyadic = append(nonDyadic, file)
	}
	negZero := math.Copysign(0, -1)
	for _, tc := range []struct {
		name  string
		files [][]float64
	}{
		{"cancellation", [][]float64{{1e16, 0}, {0.5, 0.5}, {-1e16, 0}, {0.5, 0.5}}},
		{"non-dyadic", nonDyadic},
		{"+Inf", [][]float64{{1, math.Inf(1)}, {0.1}}},
		{"-Inf", [][]float64{{0.1}, {math.Inf(-1), 2}}},
		{"both infinities", [][]float64{{math.Inf(1)}, {0.3}, {math.Inf(-1)}}},
		{"NaN", [][]float64{{0.1}, {math.NaN(), 2}}},
		{"only -0", [][]float64{{negZero}, {negZero, negZero}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lh, vals := floatTable(t, tc.files)
			checkFloatSum(t, lh, vals)
			if _, err := lh.Query(floatAdmin, "INSERT INTO ds.f SELECT x FROM ds.f"); err != nil {
				t.Fatal(err)
			}
			checkFloatSum(t, lh, append(vals, vals...))
		})
	}
}

const floatAdmin = security.Principal("admin@corp")

// floatTable is a lakehouse whose managed table ds.f (one FLOAT64
// column x) holds one file per Write API append of files.
func floatTable(t *testing.T, files [][]float64) (*core.Lakehouse, []float64) {
	t.Helper()
	lh, err := core.New(core.Options{Admin: floatAdmin})
	if err != nil {
		t.Fatal(err)
	}
	if err := lh.CreateDataset("ds"); err != nil {
		t.Fatal(err)
	}
	schema := vector.NewSchema(vector.Field{Name: "x", Type: vector.Float64})
	if err := lh.CreateManagedTable(floatAdmin, "ds", "f", schema, "bq-managed"); err != nil {
		t.Fatal(err)
	}
	stream, err := lh.StorageAPI.CreateWriteStream(string(floatAdmin), "ds.f", storageapi.CommittedMode)
	if err != nil {
		t.Fatal(err)
	}
	var vals []float64
	for _, rows := range files {
		if _, err := lh.StorageAPI.AppendRows(stream, -1, vector.MustBatch(schema, []*vector.Column{vector.NewFloat64Column(rows)})); err != nil {
			t.Fatal(err)
		}
		vals = append(vals, rows...)
	}
	return lh, vals
}

// checkFloatSum asks every door for SUM(x) (and the engines for AVG(x))
// and compares each with the exact answer over vals.
func checkFloatSum(t *testing.T, lh *core.Lakehouse, vals []float64) {
	t.Helper()
	sum := oracle.ExactSum(vals)
	avg := sum / float64(len(vals))
	same := func(door string, got vector.Value, want float64) {
		t.Helper()
		if got.Type != vector.Float64 || (math.Float64bits(got.F) != math.Float64bits(want) && !(got.F != got.F && want != want)) {
			t.Errorf("%s = %v, want %v (exact)", door, got, want)
		}
	}
	const sql = "SELECT SUM(x) AS s, AVG(x) AS a FROM ds.f"
	res, err := lh.Query(floatAdmin, sql)
	if err != nil {
		t.Fatal(err)
	}
	same("served SUM", res.Batch.Cols[0].Value(0), sum)
	same("served AVG", res.Batch.Cols[1].Value(0), avg)
	for _, w := range []int{1, 2, 3, 8} {
		opts := engine.DefaultOptions()
		opts.MorselWorkers = w
		res, err := lh.NewEngine(opts).Query(engine.NewContext(floatAdmin, fmt.Sprintf("q-w%d", w)), sql)
		if err != nil {
			t.Fatal(err)
		}
		same(fmt.Sprintf("engine SUM at %d workers", w), res.Batch.Cols[0].Value(0), sum)
		same(fmt.Sprintf("engine AVG at %d workers", w), res.Batch.Cols[1].Value(0), avg)
	}
	for _, streams := range []int{1, 2, 4} {
		lh.Clock.Advance(lh.StorageAPI.SessionTTL + time.Second) // a fresh session each time
		sess, err := lh.StorageAPI.CreateReadSession(storageapi.ReadSessionRequest{
			Table: "ds.f", Principal: floatAdmin, SnapshotVersion: -1, MaxStreams: streams,
			Aggregates: []storageapi.AggregateRequest{{Column: "x", Kind: vector.AggSum}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if sess.Reused {
			t.Fatalf("MaxStreams %d: a reused session, want a fresh one", streams)
		}
		b, err := lh.StorageAPI.ReadAll(sess)
		if err != nil {
			t.Fatal(err)
		}
		if b.N != 1 {
			t.Fatalf("MaxStreams %d: %d rows, want 1", streams, b.N)
		}
		same(fmt.Sprintf("Read API SUM at MaxStreams %d", streams), b.Cols[0].Value(0), sum)
	}
}
