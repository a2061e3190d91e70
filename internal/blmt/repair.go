package blmt

import (
	"fmt"

	"biglake/internal/bigmeta"
	"biglake/internal/catalog"
	"biglake/internal/colfmt"
	"biglake/internal/integrity"
	"biglake/internal/scan"
)

// ReplicaFetch returns a surviving replica's bytes for a quarantined
// file — a cross-cloud copy, a backup bucket, a re-export — or an
// error when no replica exists. The repair path verifies whatever it
// returns before trusting it.
type ReplicaFetch func(t catalog.Table, f bigmeta.FileEntry) ([]byte, error)

// RepairReport summarizes one repair pass over a table's quarantine.
type RepairReport struct {
	// Quarantined is how many files were quarantined when the pass
	// started.
	Quarantined int
	// Reverified counts files whose primary copy verified clean on
	// re-read — the quarantine was stale (e.g. in-flight corruption
	// that slipped past the query path's single re-fetch) and is
	// simply lifted.
	Reverified int
	// Rewritten counts files restored by writing a verified replica
	// copy and atomically swapping it into the snapshot.
	Rewritten int
	// Orphaned counts quarantine marks whose file is no longer in the
	// live snapshot; their marks are lifted without any data movement.
	Orphaned int
	// Failed lists keys that stayed quarantined: the primary is still
	// corrupt and no clean replica was available.
	Failed []string
}

// verifyRepairSource runs full verification over candidate bytes: the
// colfmt CRC walk. Generation pinning does not apply — a repair mints
// a fresh generation by design.
func verifyRepairSource(table string, f bigmeta.FileEntry, data []byte) error {
	return integrity.Annotate(colfmt.Verify(data), table, f.Bucket, f.Key)
}

// Repair walks a table's quarantined files and restores availability:
//
//  1. re-verify the primary copy — if it reads clean now, the mark is
//     lifted (sealed Unquarantine commit) with no data movement;
//  2. otherwise fetch a replica via fetch, verify its checksums, and
//     commit Removed(old)+Added(new at a fresh repair key) through the
//     log's commit protocol, so the swap is atomic for readers and
//     validated against concurrent commits (removing the old key also
//     clears its quarantine mark);
//  3. files with no clean source stay quarantined and are reported in
//     Failed.
//
// fetch may be nil, in which case only the re-verify fast path runs.
func (m *Manager) Repair(principal, table string, fetch ReplicaFetch) (RepairReport, error) {
	t, store, cred, err := m.managedTable(table)
	if err != nil {
		return RepairReport{}, err
	}
	marks := m.Log.Quarantined(table)
	rep := RepairReport{Quarantined: len(marks)}
	if len(marks) == 0 {
		return rep, nil
	}
	files, version, err := m.Log.Snapshot(table, -1)
	if err != nil {
		return rep, err
	}
	reg := m.Log.Obs()
	rd := scan.Reader{Res: m.Res, Obs: reg}
	src := scan.Source{Table: t, Store: store, Cred: cred}
	live := make(map[string]bigmeta.FileEntry, len(files))
	for _, f := range files {
		live[f.Key] = f
	}
	for i, mark := range marks {
		f, ok := live[mark.Key]
		if !ok {
			// The file left the snapshot (compacted away, deleted) while
			// quarantined; nothing to repair, just drop the mark.
			if _, err := m.Log.Commit(principal, map[string]bigmeta.TableDelta{
				table: {Unquarantine: []string{mark.Key}},
			}); err != nil {
				return rep, err
			}
			rep.Orphaned++
			reg.Add("blmt.repair_orphan_unquarantined", 1)
			continue
		}

		// Fast path: the primary may read clean now. The verified fetch
		// pins generation and length; the CRC walk covers the rest. No
		// gate and no containment: the file is quarantined already.
		if data, _, gerr := rd.Fetch(m.Clock, &src, f); gerr == nil && colfmt.Verify(data) == nil {
			if _, err := m.Log.Commit(principal, map[string]bigmeta.TableDelta{
				table: {Unquarantine: []string{mark.Key}},
			}); err != nil {
				return rep, err
			}
			rep.Reverified++
			reg.Add("blmt.repair_reverified", 1)
			continue
		}

		if fetch == nil {
			rep.Failed = append(rep.Failed, mark.Key)
			reg.Add("blmt.repair_failed", 1)
			continue
		}
		replica, ferr := fetch(t, f)
		if ferr != nil {
			rep.Failed = append(rep.Failed, mark.Key)
			reg.Add("blmt.repair_failed", 1)
			continue
		}
		if verr := verifyRepairSource(table, f, replica); verr != nil {
			// The replica is rotten too — never swap in unverified bytes.
			rep.Failed = append(rep.Failed, mark.Key)
			reg.Add("blmt.repair_replica_corrupt", 1)
			continue
		}
		// One validated commit swaps the rotten file for the restored
		// copy (Removed clears the quarantine mark with it): intent, PUT
		// of the verified replica bytes at a key bound to the snapshot
		// read, seal. A concurrent commit that removed the file first
		// makes the swap fail with bigmeta.ErrConflict.
		fp := bigmeta.Footprint{Removed: map[string]map[string]bool{table: {mark.Key: true}}}
		if _, err := m.Log.CommitFiles(bigmeta.Tx{
			ID: fmt.Sprintf("repair:%s:v%d:%d", table, version, i), Principal: principal, Res: m.Res,
			Files: []bigmeta.DataFile{{
				Table: table, Store: store, Cred: cred, Bucket: t.Bucket,
				Key:   fmt.Sprintf("%sdata/repair-v%06d-%03d.blk", t.Prefix, version, i),
				Bytes: replica, Partition: f.Partition,
			}},
			Removed: map[string][]string{table: {mark.Key}},
			Since:   version, Check: fp.Conflicts,
		}); err != nil {
			return rep, err
		}
		rep.Rewritten++
		reg.Add("blmt.repair_rewritten", 1)
	}
	return rep, nil
}
