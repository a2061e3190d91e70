package oracle

// Every data-file commit runs one protocol (bigmeta.CommitFiles), so
// the isolation an interactive transaction gets is the isolation an
// autocommit statement, an Optimize pass and a Write API flush get.
// These tests hold the committers that used to seal unvalidated to
// that: each one fails at the parent of the unification.

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"biglake/internal/core"
	"biglake/internal/engine"
	"biglake/internal/iceberg"
	"biglake/internal/storageapi"
	"biglake/internal/txn"
	"biglake/internal/vector"
)

// interposed is a Mutator whose UPDATE runs hook once, inside the where
// callback of the first file it transforms — that is, after the
// statement read its snapshot and before it commits.
type interposed struct {
	engine.Mutator
	hook func() error
	done bool
	err  error
}

func (m *interposed) Update(ctx *engine.QueryContext, table string, set func(*vector.Batch) (*vector.Batch, error), where func(*vector.Batch) ([]bool, error)) (int64, error) {
	return m.Mutator.Update(ctx, table, set, func(b *vector.Batch) ([]bool, error) {
		if !m.done {
			m.done = true
			m.err = m.hook()
		}
		return where(b)
	})
}

func diffTable(t *testing.T, tw *txnWorld, db *DB, table string) {
	t.Helper()
	got, err := tw.tableStateAt(table, -1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := db.ExecSQL("SELECT id, v FROM " + table)
	if err != nil {
		t.Fatal(err)
	}
	if d := diffResults(got, want, false); d != "" {
		t.Fatalf("%s diverged from the oracle: %s", table, d)
	}
}

// TestAutocommitRewriteLosesToConcurrentCommit: an autocommit UPDATE
// reads its snapshot, then — before it commits — a second autocommit
// UPDATE, a DELETE or an Optimize pass on the same table runs to
// completion. The outer statement must end in the typed conflict error
// with the table equal to the oracle's (the inner statement alone);
// sealing both is how rows got duplicated.
func TestAutocommitRewriteLosesToConcurrentCommit(t *testing.T) {
	const table = "ds.tx_a"
	inner := map[string]func(tw *txnWorld, db *DB) error{
		"update": func(tw *txnWorld, db *DB) error {
			return engineAndOracle(tw, db, "inner", "UPDATE "+table+" SET v = v + 100 WHERE id >= 0")
		},
		"delete": func(tw *txnWorld, db *DB) error {
			return engineAndOracle(tw, db, "inner", "DELETE FROM "+table+" WHERE id = 2 OR id = 6")
		},
		"optimize": func(tw *txnWorld, _ *DB) error {
			rep, err := tw.w.Manager.Optimize(string(diffAdmin), table, "")
			if err == nil && rep.FilesCoalesced != 2 {
				err = fmt.Errorf("optimize coalesced %d files, want 2", rep.FilesCoalesced)
			}
			return err
		},
	}
	for name, run := range inner {
		t.Run(name, func(t *testing.T) {
			tw, db := rewriteWorld(t, table)
			m := &interposed{Mutator: tw.w.Manager, hook: func() error { return run(tw, db) }}
			ctx := engine.NewContext(diffAdmin, "outer")
			ctx.Mutator = m
			_, err := tw.w.Engine.Query(ctx, "UPDATE "+table+" SET v = v + 1 WHERE id >= 0")
			if !m.done || m.err != nil {
				t.Fatalf("inner statement did not run cleanly: ran=%v err=%v", m.done, m.err)
			}
			if !errors.Is(err, txn.ErrConflict) {
				t.Fatalf("outer UPDATE returned %v, want a serialization conflict", err)
			}
			diffTable(t, tw, db, table)
		})
	}
}

// sumAndCount reads COUNT(*) and SUM(v) through the engine.
func sumAndCount(t *testing.T, tw *txnWorld, table string) (rows, sum int64) {
	t.Helper()
	res, err := tw.w.Engine.Query(engine.NewContext(diffAdmin, "final"), "SELECT COUNT(*) AS n, SUM(v) AS s FROM "+table)
	if err != nil {
		t.Fatal(err)
	}
	return res.Batch.Cols[0].Value(0).I, res.Batch.Cols[1].Value(0).I
}

// TestConcurrentAutocommitUpdates: four goroutines each run ten
// autocommit `UPDATE … SET v = v + 1` over the whole table — the path
// serve takes outside BEGIN. Every statement either commits or loses
// validation; the table holds exactly the updates that returned nil.
func TestConcurrentAutocommitUpdates(t *testing.T) {
	const table = "ds.tx_a"
	tw, err := newTxnWorld()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tw.w.Engine.Query(engine.NewContext(diffAdmin, "seed"),
		"INSERT INTO "+table+" VALUES (0,0),(1,10),(2,20),(3,30),(4,40),(5,50),(6,60),(7,70)"); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var ok, conflicts int64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				_, err := tw.w.Engine.Query(engine.NewContext(diffAdmin, fmt.Sprintf("g%d-i%d", g, i)),
					"UPDATE "+table+" SET v = v + 1 WHERE id >= 0")
				mu.Lock()
				switch {
				case err == nil:
					ok++
				case errors.Is(err, txn.ErrConflict):
					conflicts++
				default:
					t.Errorf("g%d-i%d: %v", g, i, err)
				}
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	rows, sum := sumAndCount(t, tw, table)
	if want := 280 + 8*ok; rows != 8 || sum != want {
		t.Fatalf("after %d committed updates (%d conflicts): %d rows, SUM(v) = %d; want 8 rows, %d", ok, conflicts, rows, sum, want)
	}
	if ok == 0 {
		t.Fatal("no update committed: first-committer-wins always has a first committer")
	}
}

// TestOptimizeRacesCommittedDML: one goroutine loops Optimize while the
// main one runs 200 transactional updates of the eight seed rows and
// 200 autocommit one-row inserts. A compaction that loses a file to a
// committed update must fail validation, not seal beside it.
func TestOptimizeRacesCommittedDML(t *testing.T) {
	const table = "ds.tx_a"
	tw, err := newTxnWorld()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tw.w.Engine.Query(engine.NewContext(diffAdmin, "seed"),
		"INSERT INTO "+table+" VALUES (0,0),(1,10),(2,20),(3,30),(4,40),(5,50),(6,60),(7,70)"); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := tw.w.Manager.Optimize(string(diffAdmin), table, ""); err != nil && !errors.Is(err, txn.ErrConflict) {
				t.Errorf("optimize: %v", err)
				return
			}
		}
	}()
	var updates, inserts int64
	for i := 0; i < 200; i++ {
		s := tw.w.Txns.Begin(diffAdmin, fmt.Sprintf("upd-%d", i))
		_, err := execIn(tw.w, s, "UPDATE "+table+" SET v = v + 1 WHERE id < 8")
		if err == nil {
			_, err = s.Commit(nil)
		}
		switch {
		case err == nil:
			updates++
		case errors.Is(err, txn.ErrConflict):
			_ = s.Rollback()
		default:
			t.Fatalf("update %d: %v", i, err)
		}
		if _, err := tw.w.Engine.Query(engine.NewContext(diffAdmin, fmt.Sprintf("ins-%d", i)),
			fmt.Sprintf("INSERT INTO %s VALUES (%d, 0)", table, 1000+i)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		inserts++
	}
	close(stop)
	wg.Wait()
	rows, sum := sumAndCount(t, tw, table)
	if wantRows, wantSum := 8+inserts, 280+8*updates; rows != wantRows || sum != wantSum {
		t.Fatalf("after %d committed updates and %d inserts: %d rows, SUM(v) = %d; want %d rows, %d",
			updates, inserts, rows, sum, wantRows, wantSum)
	}
	if updates == 0 {
		t.Fatal("no update ever won against the Optimize loop")
	}
}

// TestEveryCommitterExportsIceberg: with AutoIceberg on, the export
// follows the commit protocol, not one of its callers — a transactional
// COMMIT, a Write API FlushRows and a BatchCommitStreams each leave the
// version hint on a fresh metadata file for the version they sealed.
func TestEveryCommitterExportsIceberg(t *testing.T) {
	cw, err := newCrashWorld()
	if err != nil {
		t.Fatal(err)
	}
	fresh := func(step string) {
		t.Helper()
		head := cw.w.Log.Version()
		hint, err := iceberg.LatestMetadataKey(cw.w.Store, cw.w.ServiceAccount(), diffBucket, crashPrefix)
		if err != nil {
			t.Fatalf("%s: no Iceberg export: %v", step, err)
		}
		if want := fmt.Sprintf("%smetadata/v%d.metadata.json", crashPrefix, head); hint != want {
			t.Fatalf("%s: version hint %s, want %s", step, hint, want)
		}
	}

	s := cw.w.Txns.Begin(diffAdmin, "ice-txn")
	if _, err := execIn(cw.w, s, crashInsertSQL(1, 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Commit(nil); err != nil {
		t.Fatal(err)
	}
	fresh("COMMIT")

	sb, err := cw.w.StorageAPI.CreateWriteStream(string(diffAdmin), crashTable, storageapi.BufferedMode)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cw.w.StorageAPI.AppendRows(sb, -1, crashBatch(10, 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := cw.w.StorageAPI.FlushRows(sb, 4); err != nil {
		t.Fatal(err)
	}
	fresh("FlushRows")

	sp, err := cw.w.StorageAPI.CreateWriteStream(string(diffAdmin), crashTable, storageapi.PendingMode)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cw.w.StorageAPI.AppendRows(sp, -1, crashBatch(20, 5)); err != nil {
		t.Fatal(err)
	}
	if _, err := cw.w.StorageAPI.FinalizeStream(sp); err != nil {
		t.Fatal(err)
	}
	if err := cw.w.StorageAPI.BatchCommitStreams([]string{sp}); err != nil {
		t.Fatal(err)
	}
	fresh("BatchCommitStreams")
	if cw.w.Log.Version() != 3 {
		t.Fatalf("log at v%d after three commits", cw.w.Log.Version())
	}
}

// execIn runs one statement inside a transaction session, parsed
// through the world engine's statement cache.
func execIn(w *core.Lakehouse, s *txn.Session, sql string) (*engine.Result, error) {
	stmt, _, err := w.Engine.Parse(sql)
	if err != nil {
		return nil, err
	}
	return s.ExecStmt(nil, stmt)
}
