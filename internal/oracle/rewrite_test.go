package oracle

import (
	"errors"
	"fmt"
	"testing"

	"biglake/internal/bigmeta"
	"biglake/internal/colfmt"
	"biglake/internal/engine"
	"biglake/internal/integrity"
	"biglake/internal/objstore"
	"biglake/internal/vector"
)

// TestRewritesNeverCommitUnverifiedBytes: every rewrite of a managed
// table — UPDATE, DELETE, Optimize, DML inside a transaction — reads
// its input through the verified reader. Every live file sits at a
// key with a superseded generation, so a stale response is a
// self-consistent older file that only the generation pin can tell
// apart. With GETs on
// the data bucket silently corrupted (always, or half the time so the
// one re-fetch can heal), a rewrite ends either in a typed
// integrity.ErrCorrupt with the live file set untouched, or in a table
// equal to the oracle's.
func TestRewritesNeverCommitUnverifiedBytes(t *testing.T) {
	const table = "ds.tx_a"
	ops := map[string]func(tw *txnWorld, db *DB, qid string) error{
		"update": func(tw *txnWorld, db *DB, qid string) error {
			return engineAndOracle(tw, db, qid, "UPDATE "+table+" SET v = v + 100 WHERE id >= 2")
		},
		"delete": func(tw *txnWorld, db *DB, qid string) error {
			return engineAndOracle(tw, db, qid, "DELETE FROM "+table+" WHERE id = 2 OR id = 6")
		},
		"optimize": func(tw *txnWorld, _ *DB, _ string) error {
			_, err := tw.w.Manager.Optimize(string(diffAdmin), table, "")
			return err
		},
		"txn": func(tw *txnWorld, db *DB, qid string) error {
			const sql = "UPDATE " + table + " SET v = v + 7 WHERE id <= 5"
			s := tw.w.Txns.Begin(diffAdmin, qid)
			if _, err := execIn(tw.w, s, sql); err != nil {
				_ = s.Rollback()
				return err
			}
			if _, err := s.Commit(nil); err != nil {
				return err
			}
			_, err := db.ExecSQL(sql)
			return err
		},
	}
	for name, op := range ops {
		for _, rate := range []float64{1, 0.5} {
			for seed := uint64(1); seed <= 6; seed++ {
				t.Run(fmt.Sprintf("%s/rate=%v/seed=%d", name, rate, seed), func(t *testing.T) {
					tw, db := rewriteWorld(t, table)
					before := liveFiles(t, tw, table)
					tw.w.Store.InjectFaults(objstore.FaultProfile{
						Seed: seed, PerBucketCorrupt: map[string]float64{diffBucket: rate},
					})
					err := op(tw, db, fmt.Sprintf("rw-%s-%d", name, seed))
					tw.w.Store.ClearFaults()
					if err != nil {
						if !errors.Is(err, integrity.ErrCorrupt) {
							t.Fatalf("rewrite failed untyped: %v", err)
						}
						if after := liveFiles(t, tw, table); after != before {
							t.Fatalf("failed rewrite changed the live file set:\n before %s\n after  %s", before, after)
						}
					}
					// Whatever was quarantined on the way is intact at rest:
					// the re-verify lifts the marks without moving data.
					if rep, rerr := tw.w.Manager.Repair(string(diffAdmin), table, nil); rerr != nil || len(rep.Failed) > 0 {
						t.Fatalf("repair: %+v, %v", rep, rerr)
					}
					got, gerr := tw.tableStateAt(table, -1)
					if gerr != nil {
						t.Fatal(gerr)
					}
					want, werr := db.ExecSQL("SELECT id, v FROM " + table)
					if werr != nil {
						t.Fatal(werr)
					}
					if d := diffResults(got, want, false); d != "" {
						t.Fatalf("table diverged from the oracle (rewrite err = %v): %s", err, d)
					}
				})
			}
		}
	}
}

// engineAndOracle runs one DML statement on the engine and, when it
// succeeds, on the oracle.
func engineAndOracle(tw *txnWorld, db *DB, qid, sql string) error {
	if _, err := tw.w.Engine.Query(engine.NewContext(diffAdmin, qid), sql); err != nil {
		return err
	}
	_, err := db.ExecSQL(sql)
	return err
}

// rewriteWorld is a journaled world whose table holds two small files,
// each rewritten in place once: every live key has a superseded
// generation for stale substitution to serve.
func rewriteWorld(t *testing.T, table string) (*txnWorld, *DB) {
	t.Helper()
	tw, err := newTxnWorld()
	if err != nil {
		t.Fatal(err)
	}
	db := NewDB()
	db.Add(&Table{Name: table, Schema: txnSchema()})
	for i, sql := range []string{
		"INSERT INTO " + table + " VALUES (1, 10), (2, 20), (3, 30), (4, 40)",
		"INSERT INTO " + table + " VALUES (5, 50), (6, 60)",
	} {
		if err := engineAndOracle(tw, db, fmt.Sprintf("rw-install-%d", i), sql); err != nil {
			t.Fatal(err)
		}
	}
	files, _, err := tw.w.Log.Snapshot(table, -1)
	if err != nil || len(files) != 2 {
		t.Fatalf("install left %d files, %v", len(files), err)
	}
	if _, err := db.ExecSQL("UPDATE " + table + " SET v = v + 1 WHERE id >= 1"); err != nil {
		t.Fatal(err)
	}
	for i, ids := range [][]int64{{1, 2, 3, 4}, {5, 6}} {
		old := files[i]
		bl := vector.NewBuilder(txnSchema())
		for _, id := range ids {
			bl.Append(vector.IntValue(id), vector.IntValue(id*10+1))
		}
		file, err := colfmt.WriteFile(bl.Build(), colfmt.WriterOptions{})
		if err != nil {
			t.Fatal(err)
		}
		info, err := tw.w.Store.Put(tw.w.ServiceAccount(), old.Bucket, old.Key, file, "application/x-blk")
		if err != nil {
			t.Fatal(err)
		}
		footer, err := colfmt.ReadFooter(file)
		if err != nil {
			t.Fatal(err)
		}
		entry := bigmeta.NewFileEntry(old.Bucket, old.Key, info, footer)
		if _, err := tw.w.Log.Commit(string(diffAdmin), map[string]bigmeta.TableDelta{
			table: {Removed: []string{old.Key}, Added: []bigmeta.FileEntry{entry}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	return tw, db
}

// liveFiles renders a table's live (key, generation) set.
func liveFiles(t *testing.T, tw *txnWorld, table string) string {
	t.Helper()
	files, _, err := tw.w.Log.Snapshot(table, -1)
	if err != nil {
		t.Fatal(err)
	}
	var s string
	for _, f := range files {
		s += fmt.Sprintf("%s@%d ", f.Key, f.Generation)
	}
	return s
}
