package storageapi

import (
	"errors"
	"sync"
	"testing"

	"biglake/internal/integrity"
	"biglake/internal/obs"
	"biglake/internal/systables"
	"biglake/internal/vector"
)

// TestReadRowsQuarantinesStoredDamage: the Read API is a caller of the
// one verified reader, so a file corrupted at rest is detected,
// re-fetched once, quarantined in the log — and the next session fails
// fast at the gate, naming table and file, without reading it again.
func TestReadRowsQuarantinesStoredDamage(t *testing.T) {
	ev := newEnv(t)
	ev.createSales(t, 1, 50)
	reg := obs.NewRegistry()
	ev.store.UseObs(reg)
	ev.srv.UseObs(reg)
	const key = "sales/part-00.blk"
	if err := ev.store.FlipStoredBit("lake", key, 99); err != nil {
		t.Fatal(err)
	}

	sess, err := ev.srv.CreateReadSession(ReadSessionRequest{Table: "ds.sales", Principal: adminP})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ev.srv.ReadRows(sess.ID, sess.Streams[0]); !errors.Is(err, integrity.ErrCorrupt) {
		t.Fatalf("ReadRows over a bit-flipped file: err = %v, want integrity.ErrCorrupt", err)
	}
	snap := reg.Snapshot()
	if snap.Counters["integrity.quarantines"] != 1 || snap.Counters["integrity.detected.scan"] != 2 {
		t.Fatalf("quarantines = %d, detected.scan = %d, want 1 and 2 (first read and the confirming re-fetch)",
			snap.Counters["integrity.quarantines"], snap.Counters["integrity.detected.scan"])
	}
	q, err := systables.NewProvider(ev.clock, reg, ev.log).Scan(systables.TableQuarantine)
	if err != nil {
		t.Fatal(err)
	}
	if q.N != 1 || q.Column("table_name").Value(0).S != "ds.sales" || q.Column("file_key").Value(0).S != key {
		t.Fatalf("system.quarantine = %d rows %v, want one row for ds.sales %s", q.N, q.Row(0), key)
	}

	// A different projection, so this is a new session, not a reuse.
	gets := reg.Get("objstore.get.count")
	if gets == 0 {
		t.Fatal("the store's GETs do not reach reg: the check below would be vacuous")
	}
	next, err := ev.srv.CreateReadSession(ReadSessionRequest{Table: "ds.sales", Principal: adminP, Columns: []string{"id"}})
	if err != nil {
		t.Fatal(err)
	}
	_, err = ev.srv.ReadRows(next.ID, next.Streams[0])
	var ie *integrity.Error
	if !errors.As(err, &ie) || ie.Source != "engine.quarantine" || ie.Table != "ds.sales" || ie.Key != key {
		t.Fatalf("next session: err = %v, want the quarantine gate's typed error naming ds.sales and %s", err, key)
	}
	if got := reg.Get("objstore.get.count"); got != gets {
		t.Fatalf("the gate let %d GETs through to a quarantined file", got-gets)
	}
}

// TestReusedAggregateSessionDrainedConcurrently: two clients acquire
// the same cached aggregate session and drain it at once, and each
// acquisition gets its answer. The aggregate path reads unprojected; it
// must not do so by rewriting the shared request. Run under -race.
func TestReusedAggregateSessionDrainedConcurrently(t *testing.T) {
	ev := newEnv(t)
	ev.createSales(t, 8, 50)
	req := ReadSessionRequest{
		Table: "ds.sales", Principal: adminP, Columns: []string{"id"},
		Aggregates: []AggregateRequest{{Column: "amount", Kind: vector.AggSum}},
	}
	var want int64
	for i := int64(0); i < 400; i++ {
		want += i * 10
	}
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				sess, err := ev.srv.CreateReadSession(req)
				if err != nil {
					t.Error(err)
					return
				}
				payload, err := ev.srv.ReadRows(sess.ID, sess.Streams[0])
				if err != nil {
					t.Error(err)
					return
				}
				b, err := vector.DecodeBatch(payload)
				if err != nil {
					t.Error(err)
					return
				}
				if got := b.Cols[0].Value(0).AsInt(); got != want {
					t.Errorf("SUM(amount) = %d, want %d", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestReusedAggregateSessionAnswersEveryAcquisition: every acquisition
// of a reused aggregate session answers once on its first stream,
// whatever another acquisition has read; its other streams start empty,
// and none of them splits.
func TestReusedAggregateSessionAnswersEveryAcquisition(t *testing.T) {
	ev := newEnv(t)
	ev.createSales(t, 4, 25)
	req := ReadSessionRequest{
		Table: "ds.sales", Principal: adminP, MaxStreams: 2,
		Aggregates: []AggregateRequest{{Column: "amount", Kind: vector.AggSum}},
	}
	var want int64
	for i := int64(0); i < 100; i++ {
		want += i * 10
	}
	first, err := ev.srv.CreateReadSession(req)
	if err != nil {
		t.Fatal(err)
	}
	second, err := ev.srv.CreateReadSession(req)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Reused || len(second.Streams) != 2 {
		t.Fatalf("second acquisition: reused=%v, %d streams; want a reuse with 2", second.Reused, len(second.Streams))
	}
	for i, sess := range []*ReadSession{first, second} {
		b, err := ev.srv.ReadAll(sess)
		if err != nil {
			t.Fatal(err)
		}
		if b.N != 1 {
			t.Fatalf("acquisition %d: ReadAll = %d rows, want one", i, b.N)
		}
		if got := b.Cols[0].Value(0).AsInt(); got != want {
			t.Fatalf("acquisition %d: SUM(amount) = %d, want %d", i, got, want)
		}
	}
	// Each acquisition answered once: its streams are all drained.
	third, err := ev.srv.CreateReadSession(req)
	if err != nil {
		t.Fatal(err)
	}
	for _, sess := range []*ReadSession{first, second, third} {
		for i, stream := range sess.Streams {
			if sess == third && i == 0 {
				continue
			}
			if _, err := ev.srv.ReadRows(sess.ID, stream); !errors.Is(err, ErrEndOfStream) {
				t.Fatalf("stream %s: err = %v, want ErrEndOfStream", stream, err)
			}
		}
	}
	if _, err := ev.srv.SplitStream(third.ID, third.Streams[0]); err == nil {
		t.Fatal("an aggregate stream split")
	}
	payload, err := ev.srv.ReadRows(third.ID, third.Streams[0])
	if err != nil {
		t.Fatal(err)
	}
	if b, err := vector.DecodeBatch(payload); err != nil || b.Cols[0].Value(0).AsInt() != want {
		t.Fatalf("third acquisition after the others drained: %v, err %v", b, err)
	}
}
