package omni

import (
	"fmt"
	"sync"

	"biglake/internal/bigmeta"
	"biglake/internal/catalog"
	"biglake/internal/objstore"
	"biglake/internal/resilience"
	"biglake/internal/security"
)

// CCMV is a cross-cloud materialized view (§5.6.2, Figure 10): a local
// materialized view of a managed source table in a foreign region,
// incrementally replicated into the primary region by stateful
// file-based copying. Each source data file is a replication unit —
// when an upsert/delete rewrites a file, only that file's partition is
// re-replicated, never the whole view.
type CCMV struct {
	Name         string
	Source       string // managed table in a foreign region
	SourceRegion string
	TargetRegion string
	// Replica is the catalog name of the replicated table in the
	// target region.
	Replica string
	// RefreshInterval is advisory metadata for auto-refresh tooling.
	RefreshInterval int64

	mu          sync.Mutex
	lastVersion int64
	// replicated maps source object keys to the replica object keys
	// holding their copies.
	replicated map[string]string
}

// refreshRetryBudget bounds total retries within one CCMV refresh.
const refreshRetryBudget = 64

// RefreshReport summarizes one CCMV refresh.
type RefreshReport struct {
	Incremental  bool
	FilesCopied  int
	FilesDeleted int
	BytesCopied  int64
	UpToDate     bool
}

// CreateCCMV defines a cross-cloud materialized view over a managed
// source table and registers the replica table in the target region.
func (d *Deployment) CreateCCMV(name, sourceTable, targetRegion string) (*CCMV, error) {
	srcRegionName, err := d.Catalog.RegionOf(sourceTable)
	if err != nil {
		return nil, err
	}
	if srcRegionName == targetRegion {
		return nil, fmt.Errorf("omni: CCMV source %q already lives in %s", sourceTable, targetRegion)
	}
	src, err := d.Catalog.Table(sourceTable)
	if err != nil {
		return nil, err
	}
	if src.Type != catalog.Managed && src.Type != catalog.Native {
		return nil, fmt.Errorf("omni: CCMV sources must be managed tables, %s is %v", sourceTable, src.Type)
	}
	target, err := d.Region(targetRegion)
	if err != nil {
		return nil, err
	}
	if _, err := d.Catalog.Dataset("_ccmv"); err != nil {
		if err := d.Catalog.CreateDataset(catalog.Dataset{Name: "_ccmv", Region: targetRegion, Cloud: target.Cloud}); err != nil {
			return nil, err
		}
	}
	replica := "_ccmv." + name
	if err := d.Catalog.CreateTable(catalog.Table{
		Dataset: "_ccmv", Name: name, Type: catalog.Managed,
		Schema: src.Schema, Cloud: target.Cloud, Bucket: target.Manager.DefaultBucket,
		Prefix: "ccmv/" + name + "/", Connection: "omni-" + targetRegion,
		CreatedAt: d.Clock.Now(),
	}); err != nil {
		return nil, err
	}
	return &CCMV{
		Name:         name,
		Source:       sourceTable,
		SourceRegion: srcRegionName,
		TargetRegion: targetRegion,
		Replica:      replica,
		replicated:   make(map[string]string),
	}, nil
}

// Refresh brings the replica up to date. In incremental mode only
// files added or removed since the last refresh move across the VPN;
// in full mode (the ablation baseline / "recreate everything"
// traditional ETL) every current source file is re-copied.
func (d *Deployment) Refresh(mv *CCMV, incremental bool) (RefreshReport, error) {
	mv.mu.Lock()
	defer mv.mu.Unlock()

	srcRegion, err := d.Region(mv.SourceRegion)
	if err != nil {
		return RefreshReport{}, err
	}
	dstRegion, err := d.Region(mv.TargetRegion)
	if err != nil {
		return RefreshReport{}, err
	}
	src, err := d.Catalog.Table(mv.Source)
	if err != nil {
		return RefreshReport{}, err
	}
	dst, err := d.Catalog.Table(mv.Replica)
	if err != nil {
		return RefreshReport{}, err
	}
	srcCred, err := d.connCred(src.Connection, srcRegion)
	if err != nil {
		return RefreshReport{}, err
	}
	dstCred, err := d.connCred(dst.Connection, dstRegion)
	if err != nil {
		return RefreshReport{}, err
	}

	files, version, err := srcRegion.Log.Snapshot(mv.Source, -1)
	if err != nil {
		return RefreshReport{}, err
	}
	report := RefreshReport{Incremental: incremental}
	if incremental && version == mv.lastVersion {
		report.UpToDate = true
		return report, nil
	}

	current := make(map[string]bigmeta.FileEntry, len(files))
	for _, f := range files {
		current[f.Key] = f
	}

	// Per-refresh retry budget: cross-cloud copies are long-haul and the
	// most fault-exposed path in the system, so every Get/Put/Delete
	// retries under the deployment policy, bounded per refresh.
	bud := resilience.NewBudget(d.Clock, refreshRetryBudget, resilience.Seed64(mv.Name))
	res := d.Res.Counting(d.Obs)

	var delta bigmeta.TableDelta
	copyFile := func(f bigmeta.FileEntry) error {
		var data []byte
		if err := res.Do(d.Clock, bud, "GET "+f.Bucket+"/"+f.Key, func() error {
			var ge error
			data, _, ge = srcRegion.Store.Get(srcCred, f.Bucket, f.Key)
			return ge
		}); err != nil {
			return err
		}
		// Cross-cloud transfer over the VPN (Colossus-bound file copy
		// in production; egress metered either way).
		if err := d.VPN.Call(d.Clock, mv.SourceRegion, mv.TargetRegion, int64(len(data)), srcRegion.Store.Profile()); err != nil {
			return err
		}
		replicaKey := dst.Prefix + "data/" + flattenKey(f.Key)
		var info objstore.ObjectInfo
		if err := res.Do(d.Clock, bud, "PUT "+dst.Bucket+"/"+replicaKey, func() error {
			var pe error
			info, pe = dstRegion.Store.Put(dstCred, dst.Bucket, replicaKey, data, "application/x-blk")
			return pe
		}); err != nil {
			return err
		}
		delta.Added = append(delta.Added, bigmeta.FileEntry{
			Bucket: dst.Bucket, Key: replicaKey, Size: info.Size,
			RowCount: f.RowCount, ColumnStats: f.ColumnStats, Partition: f.Partition,
		})
		mv.replicated[f.Key] = replicaKey
		report.FilesCopied++
		report.BytesCopied += int64(len(data))
		return nil
	}

	if incremental {
		// Copy new source files.
		for key, f := range current {
			if _, ok := mv.replicated[key]; ok {
				continue
			}
			if err := copyFile(f); err != nil {
				return report, err
			}
		}
		// Retire replicas of removed source files (the partition an
		// upsert/delete rewrote).
		for key, replicaKey := range mv.replicated {
			if _, ok := current[key]; ok {
				continue
			}
			delta.Removed = append(delta.Removed, replicaKey)
			rk := replicaKey
			if err := res.Do(d.Clock, bud, "DELETE "+dst.Bucket+"/"+rk, func() error {
				return dstRegion.Store.Delete(dstCred, dst.Bucket, rk)
			}); err != nil {
				return report, err
			}
			delete(mv.replicated, key)
			report.FilesDeleted++
		}
	} else {
		// Full recreation: drop all replicas, recopy everything.
		for key, replicaKey := range mv.replicated {
			delta.Removed = append(delta.Removed, replicaKey)
			rk := replicaKey
			if err := res.Do(d.Clock, bud, "DELETE "+dst.Bucket+"/"+rk, func() error {
				return dstRegion.Store.Delete(dstCred, dst.Bucket, rk)
			}); err != nil {
				return report, err
			}
			delete(mv.replicated, key)
			report.FilesDeleted++
		}
		for _, f := range files {
			if err := copyFile(f); err != nil {
				return report, err
			}
		}
	}

	if len(delta.Added) > 0 || len(delta.Removed) > 0 {
		if _, err := dstRegion.Log.Commit(string(ControlPrincipal), map[string]bigmeta.TableDelta{
			mv.Replica: delta,
		}); err != nil {
			return report, err
		}
	}
	mv.lastVersion = version
	d.Obs.Add("omni.ccmv_refreshes", 1)
	d.Obs.Add("omni.ccmv_bytes_copied", report.BytesCopied)
	return report, nil
}

func (d *Deployment) connCred(connection string, r *Region) (objstore.Credential, error) {
	if connection == "" {
		return r.Engine.ManagedCred, nil
	}
	conn, err := d.Auth.Connection(connection)
	if err != nil {
		return objstore.Credential{}, err
	}
	return conn.ServiceAccount, nil
}

// flattenKey turns a source object key into one path component of the
// replica's key.
func flattenKey(key string) string {
	out := []byte(key)
	for i, c := range out {
		if c == '/' {
			out[i] = '_'
		}
	}
	return string(out)
}

// GrantReplicaAccess grants a principal read access to the CCMV
// replica.
func (d *Deployment) GrantReplicaAccess(mv *CCMV, p security.Principal) error {
	return d.Auth.GrantTable(ControlPrincipal, mv.Replica, p, security.RoleViewer)
}
