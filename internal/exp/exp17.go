package exp

// E17: interactive-transaction contention. W concurrent writers begin
// at the same snapshot and commit sequentially under first-committer-
// wins OCC (internal/txn). Three in four writers append fresh rows to
// a growing ledger table (blind inserts commute, so they never
// conflict); one in four performs a read-modify-write UPDATE on a
// small shared counter table, which rewrites the counter's single
// data file — so of the updaters racing from one snapshot, exactly
// one wins and the rest abort and retry from a fresh snapshot. The
// sweep scales W from 1 to 256 and reports abort rate and commit
// throughput against a non-transactional baseline that pushes the
// identical operation stream through the autocommit DML path (same
// journaled BLMT commit protocol, no session/snapshot/OCC machinery).

import (
	"errors"
	"fmt"

	"biglake/internal/catalog"
	"biglake/internal/engine"
	"biglake/internal/sqlparse"
	"biglake/internal/txn"
	"biglake/internal/vector"
)

// e17MaxAttempts caps commit attempts (1 initial + retries) per
// logical transaction before it counts as failed.
const e17MaxAttempts = 4

// e17Counters is the number of rows in the contended counter table.
const e17Counters = 8

// E17Row is one writer-count measurement.
type E17Row struct {
	// Writers is the number of sessions racing from each snapshot.
	Writers int
	// Committed is the number of transactions that sealed.
	Committed int
	// Attempts counts commit attempts, including retries.
	Attempts int
	// Aborts counts first-committer-wins losers (each retried).
	Aborts int
	// Retries counts re-begin/re-execute/re-commit cycles.
	Retries int
	// Failed counts transactions that exhausted e17MaxAttempts.
	Failed int
	// AbortRate is Aborts / Attempts.
	AbortRate float64
	// TxnPerSec is committed transactions per simulated second.
	TxnPerSec float64
	// BasePerSec is the non-transactional baseline: the same
	// operation stream as autocommit DML, in commits per simulated
	// second.
	BasePerSec float64
	// Overhead is BasePerSec / TxnPerSec — how much the transaction
	// machinery (snapshots, intents, validation, retries) costs at
	// this contention level.
	Overhead float64
}

// E17Result is the contention-sweep table.
type E17Result struct {
	Rounds int
	Rows   []E17Row
}

// newE17World builds one environment — its lakehouse's journaled log,
// BLMT mutator for autocommit DML and txn manager for interactive
// sessions — with the ledger and counter tables.
func newE17World() (*Env, error) {
	env, err := NewEnv(engine.DefaultOptions())
	if err != nil {
		return nil, err
	}
	schema := vector.NewSchema(
		vector.Field{Name: "id", Type: vector.Int64},
		vector.Field{Name: "v", Type: vector.Int64},
	)
	for _, name := range []string{"ledger", "counter"} {
		if err := env.Cat.CreateTable(catalog.Table{
			Dataset: "bench", Name: name, Type: catalog.Managed, Schema: schema,
			Cloud: "gcp", Bucket: "bench", Prefix: "blmt/bench/" + name + "/", Connection: "conn",
		}); err != nil {
			return nil, err
		}
	}
	// Seed the contended counter rows (ids 1..e17Counters) in one
	// file: every read-modify-write UPDATE rewrites it, so updaters
	// racing from a shared snapshot collide at file granularity.
	var vals string
	for id := 1; id <= e17Counters; id++ {
		if id > 1 {
			vals += ", "
		}
		vals += fmt.Sprintf("(%d, 0)", id)
	}
	if _, err := env.query("e17-seed", "INSERT INTO bench.counter VALUES "+vals); err != nil {
		return nil, err
	}
	return env, nil
}

// e17Op is one writer's statement: a blind ledger append for three in
// four writers, a counter read-modify-write for the rest. uid keeps
// ledger keys globally unique.
func e17Op(w, uid int) string {
	if w%4 == 3 {
		return fmt.Sprintf("UPDATE bench.counter SET v = v + 1 WHERE id = %d", w%e17Counters+1)
	}
	return fmt.Sprintf("INSERT INTO bench.ledger VALUES (%d, %d)", uid, w)
}

// RunE17 sweeps writer counts {1, 4, 16, 64, 256}; scale multiplies
// the number of same-snapshot rounds per writer count.
func RunE17(scale int) (E17Result, error) {
	if scale < 1 {
		scale = 1
	}
	res := E17Result{Rounds: 2 * scale}
	for _, writers := range []int{1, 4, 16, 64, 256} {
		row, err := runE17Writers(writers, res.Rounds)
		if err != nil {
			return E17Result{}, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

func runE17Writers(writers, rounds int) (E17Row, error) {
	w, err := newE17World()
	if err != nil {
		return E17Row{}, err
	}
	row := E17Row{Writers: writers}
	uid := 0
	t0 := w.Clock.Now()
	for r := 0; r < rounds; r++ {
		// All writers of the round begin before any commits: every
		// session pins the same snapshot.
		sess := make([]*txn.Session, writers)
		stmts := make([]sqlparse.Statement, writers)
		for i := 0; i < writers; i++ {
			uid++
			if stmts[i], _, err = w.LH.Engine.Parse(e17Op(i, uid)); err != nil {
				return E17Row{}, err
			}
			sess[i] = w.LH.Txns.Begin(Admin, fmt.Sprintf("e17-w%d-r%d-s%d-a0", writers, r, i))
			if _, err := sess[i].ExecStmt(nil, stmts[i]); err != nil {
				return E17Row{}, fmt.Errorf("w%d r%d s%d exec: %w", writers, r, i, err)
			}
		}
		// Commit in writer order; each loser re-begins from a fresh
		// snapshot, re-executes, and retries immediately.
		for i := 0; i < writers; i++ {
			s := sess[i]
			for attempt := 1; ; attempt++ {
				row.Attempts++
				if _, err := s.Commit(nil); err == nil {
					row.Committed++
					break
				} else if !errors.Is(err, txn.ErrConflict) {
					return E17Row{}, fmt.Errorf("w%d r%d s%d commit: %w", writers, r, i, err)
				}
				row.Aborts++
				if attempt >= e17MaxAttempts {
					row.Failed++
					break
				}
				row.Retries++
				s = w.LH.Txns.Begin(Admin, fmt.Sprintf("e17-w%d-r%d-s%d-a%d", writers, r, i, attempt))
				if _, err := s.ExecStmt(nil, stmts[i]); err != nil {
					return E17Row{}, fmt.Errorf("w%d r%d s%d re-exec: %w", writers, r, i, err)
				}
			}
		}
	}
	txnSecs := (w.Clock.Now() - t0).Seconds()

	// Baseline: the identical operation stream as autocommit DML in a
	// fresh world — same journaled commit protocol, no transaction
	// sessions, so no snapshots to validate and nothing to retry.
	b, err := newE17World()
	if err != nil {
		return E17Row{}, err
	}
	uid = 0
	b0 := b.Clock.Now()
	for r := 0; r < rounds; r++ {
		for i := 0; i < writers; i++ {
			uid++
			if _, err := b.query(fmt.Sprintf("e17-base-%d-%d", r, i), e17Op(i, uid)); err != nil {
				return E17Row{}, fmt.Errorf("baseline w%d r%d s%d: %w", writers, r, i, err)
			}
		}
	}
	baseSecs := (b.Clock.Now() - b0).Seconds()

	row.AbortRate = float64(row.Aborts) / float64(row.Attempts)
	if txnSecs > 0 {
		row.TxnPerSec = float64(row.Committed) / txnSecs
	}
	if baseSecs > 0 {
		row.BasePerSec = float64(rounds*writers) / baseSecs
	}
	if row.TxnPerSec > 0 {
		row.Overhead = row.BasePerSec / row.TxnPerSec
	}
	return row, nil
}
