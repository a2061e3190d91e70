package exp

// E14: crash recovery cost vs journal length. The durable commit
// journal (internal/wal) makes every Big Metadata commit a sequenced
// object-store record; after a crash, Recover replays sealed commits
// into a fresh log and GCOrphans reclaims data files whose
// transactions died between PUT and seal. Both costs scale with
// journal length, so this experiment sweeps it: for each length, a
// workload of journaled commits (with a fixed fraction of crashed,
// unsealed transactions leaving orphan debris) is generated, the
// "process" is discarded, and the full restart path — reopen journal,
// replay, orphan GC — is timed on the simulated clock.

import (
	"fmt"

	"biglake/internal/bigmeta"
	"biglake/internal/objstore"
	"biglake/internal/sim"
	"biglake/internal/wal"
)

// E14Row is one journal-length measurement.
type E14Row struct {
	// Commits is the number of sealed transactions in the journal.
	Commits int
	// Orphans is the number of unsealed (crashed) transactions, each
	// leaving one declared-but-unreferenced data file behind.
	Orphans int
	// RecoverySimMS is the simulated wall-clock of reopen + replay.
	RecoverySimMS float64
	// GCSimMS is the simulated wall-clock of the orphan-GC sweep.
	GCSimMS float64
	// GCBytes is the orphaned payload reclaimed.
	GCBytes int64
	// GCDeleted is the number of orphan objects deleted.
	GCDeleted int
	// PerCommitUS is RecoverySimMS amortized per sealed commit, in µs.
	PerCommitUS float64
}

// E14Result is the recovery-cost table.
type E14Result struct {
	Rows []E14Row
}

// e14OrphanEvery makes one in this many transactions crash unsealed.
const e14OrphanEvery = 10

// RunE14 sweeps the journal lengths. Lengths are sealed-commit counts;
// scale multiplies the default sweep {25, 100, 400}.
func RunE14(scale int) (E14Result, error) {
	if scale < 1 {
		scale = 1
	}
	var out E14Result
	for _, n := range []int{25 * scale, 100 * scale, 400 * scale} {
		row, err := runE14Length(n)
		if err != nil {
			return E14Result{}, err
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

func runE14Length(commits int) (E14Row, error) {
	clock := sim.NewClock()
	store := objstore.New(sim.GCP, clock)
	cred := objstore.Credential{Principal: "sa-bench@biglake"}
	const bucket = "bench"
	if err := store.CreateBucket(cred, bucket); err != nil {
		return E14Row{}, err
	}
	j, err := wal.Open(store, cred, bucket, "")
	if err != nil {
		return E14Row{}, err
	}
	log := bigmeta.NewLog(clock)
	log.AttachJournal(j)

	// Build the pre-crash history: `commits` sealed transactions each
	// adding one data file, and every e14OrphanEvery-th transaction
	// additionally "crashing" after its PUT but before its seal.
	payload := make([]byte, 8*1024)
	row := E14Row{Commits: commits}
	for i := 0; i < commits; i++ {
		key := fmt.Sprintf("t/data/f-%06d.blk", i)
		txn := fmt.Sprintf("e14-%06d", i)
		seq, err := j.AppendIntent(txn, string(Admin), []string{key})
		if err != nil {
			return E14Row{}, err
		}
		info, err := store.Put(cred, bucket, key, payload, "application/x-blk")
		if err != nil {
			return E14Row{}, err
		}
		if _, err := log.CommitTx(string(Admin), bigmeta.TxOptions{TxnID: txn, IntentSeq: seq}, map[string]bigmeta.TableDelta{
			"bench.t": {Added: []bigmeta.FileEntry{{Bucket: bucket, Key: key, Size: info.Size, RowCount: 64}}},
		}); err != nil {
			return E14Row{}, err
		}
		if i%e14OrphanEvery == 0 {
			okey := fmt.Sprintf("t/data/orphan-%06d.blk", i)
			if _, err := j.AppendIntent(txn+"-crashed", string(Admin), []string{okey}); err != nil {
				return E14Row{}, err
			}
			if _, err := store.Put(cred, bucket, okey, payload, "application/x-blk"); err != nil {
				return E14Row{}, err
			}
			row.Orphans++
		}
	}

	// Restart: only the store survives. Reopen, replay, collect.
	t0 := clock.Now()
	j2, err := wal.Open(store, cred, bucket, "")
	if err != nil {
		return E14Row{}, err
	}
	rec, err := wal.Recover(j2, clock)
	if err != nil {
		return E14Row{}, err
	}
	t1 := clock.Now()
	gcRep, err := wal.GCOrphans(store, cred, bucket, []string{"t/data/"}, rec.Log)
	if err != nil {
		return E14Row{}, err
	}
	t2 := clock.Now()

	if got := rec.Log.Version(); got != int64(commits) {
		return E14Row{}, fmt.Errorf("e14: recovered version %d, want %d", got, commits)
	}
	if len(gcRep.Deleted) != row.Orphans {
		return E14Row{}, fmt.Errorf("e14: GC deleted %d, want %d orphans", len(gcRep.Deleted), row.Orphans)
	}
	row.RecoverySimMS = float64((t1 - t0).Microseconds()) / 1000
	row.GCSimMS = float64((t2 - t1).Microseconds()) / 1000
	row.GCBytes = gcRep.Bytes
	row.GCDeleted = len(gcRep.Deleted)
	row.PerCommitUS = float64((t1 - t0).Microseconds()) / float64(commits)
	return row, nil
}
