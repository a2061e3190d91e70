package storageapi_test

import (
	"math"
	"testing"
	"time"

	"biglake/internal/core"
	"biglake/internal/security"
	"biglake/internal/storageapi"
	"biglake/internal/vector"
)

// TestAggregateFloatSumMatchesEngine: an aggregate session folds its
// plan's files in plan order, so its float SUM is the served engine's
// answer bit for bit at every stream count. The four files sum to 1 in
// plan order, to 2 stream by stream over two streams.
func TestAggregateFloatSumMatchesEngine(t *testing.T) {
	const admin = security.Principal("admin@corp")
	lh, err := core.New(core.Options{Admin: admin})
	if err != nil {
		t.Fatal(err)
	}
	if err := lh.CreateDataset("ds"); err != nil {
		t.Fatal(err)
	}
	schema := vector.NewSchema(vector.Field{Name: "x", Type: vector.Float64})
	if err := lh.CreateManagedTable(admin, "ds", "f", schema, "bq-managed"); err != nil {
		t.Fatal(err)
	}
	// One committed Write API append is one file.
	stream, err := lh.StorageAPI.CreateWriteStream(string(admin), "ds.f", storageapi.CommittedMode)
	if err != nil {
		t.Fatal(err)
	}
	for _, rows := range [][]float64{{1e16, 0}, {0.5, 0.5}, {-1e16, 0}, {0.5, 0.5}} {
		if _, err := lh.StorageAPI.AppendRows(stream, -1, vector.MustBatch(schema, []*vector.Column{vector.NewFloat64Column(rows)})); err != nil {
			t.Fatal(err)
		}
	}
	res, err := lh.Query(admin, "SELECT SUM(x) AS s FROM ds.f")
	if err != nil {
		t.Fatal(err)
	}
	want := res.Batch.Cols[0].Value(0)
	if want.Type != vector.Float64 || want.F != 1 {
		t.Fatalf("engine SUM(x) = %v, want 1.0 (the plan-order sum)", want)
	}
	for _, streams := range []int{1, 2, 4} {
		lh.Clock.Advance(lh.StorageAPI.SessionTTL + time.Second) // a fresh session each time
		sess, err := lh.StorageAPI.CreateReadSession(storageapi.ReadSessionRequest{
			Table: "ds.f", Principal: admin, SnapshotVersion: -1, MaxStreams: streams,
			Aggregates: []storageapi.AggregateRequest{{Column: "x", Kind: vector.AggSum}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if sess.Reused || sess.Stats.Files != 4 {
			t.Fatalf("MaxStreams %d: reused=%v over %d files, want a fresh session over 4", streams, sess.Reused, sess.Stats.Files)
		}
		b, err := lh.StorageAPI.ReadAll(sess)
		if err != nil {
			t.Fatal(err)
		}
		if b.N != 1 {
			t.Fatalf("MaxStreams %d: %d rows, want 1", streams, b.N)
		}
		if got := b.Cols[0].Value(0); got.Type != want.Type || math.Float64bits(got.F) != math.Float64bits(want.F) {
			t.Errorf("MaxStreams %d: Read API SUM(x) = %v, engine %v", streams, got, want)
		}
	}
}
