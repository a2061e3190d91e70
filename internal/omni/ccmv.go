package omni

import (
	"fmt"
	"path"
	"strings"
	"sync"

	"biglake/internal/bigmeta"
	"biglake/internal/catalog"
	"biglake/internal/resilience"
	"biglake/internal/scan"
	"biglake/internal/security"
)

// CCMV is a cross-cloud materialized view (§5.6.2, Figure 10): a local
// materialized view of a managed source table in a foreign region,
// incrementally replicated into the primary region by stateful
// file-based copying. Each source data file is a replication unit —
// when an upsert/delete rewrites a file, only that file's partition is
// re-replicated, never the whole view. The state of the replication is
// the replica's own snapshot in the target region's log: replica file
// <prefix>data/<refresh>/<flattened source key> holds a copy of that
// source file.
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

	mu sync.Mutex
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
		Prefix: "ccmv/" + name + "/", Connection: target.DefaultConnection(),
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
	}, nil
}

// Refresh brings the replica up to date as one commit in the target
// region's log. In incremental mode only files added or removed since
// the replica's snapshot move across the VPN; in full mode (the
// ablation baseline / "recreate everything" traditional ETL) every
// current source file is re-copied and every replica file retired.
// Either the whole refresh seals or none of it does; retired replica
// objects are reclaimed by the BLMT garbage collector after the seal.
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
	srcPlanner := srcRegion.Engine.Planner()
	srcStore, srcCred, err := srcPlanner.Resolve(src)
	if err != nil {
		return RefreshReport{}, err
	}
	dstStore, dstCred, err := dstRegion.Engine.Planner().Resolve(dst)
	if err != nil {
		return RefreshReport{}, err
	}
	files, _, err := srcRegion.Log.Snapshot(mv.Source, -1)
	if err != nil {
		return RefreshReport{}, err
	}
	replicas, since, err := dstRegion.Log.Snapshot(mv.Replica, -1)
	if err != nil {
		return RefreshReport{}, err
	}

	// Which source files the replica holds is read off its snapshot.
	held := make(map[string]bool, len(replicas))
	read := make(map[string]bool, len(replicas))
	for _, r := range replicas {
		held[path.Base(r.Key)], read[r.Key] = true, true
	}
	current := make(map[string]bool, len(files))
	var copies []bigmeta.FileEntry
	for _, f := range files {
		current[flattenKey(f.Key)] = true
		if !incremental || !held[flattenKey(f.Key)] {
			copies = append(copies, f)
		}
	}
	var retired []string
	for _, r := range replicas {
		if !incremental || !current[path.Base(r.Key)] {
			retired = append(retired, r.Key)
		}
	}
	report := RefreshReport{Incremental: incremental}
	if len(copies) == 0 && len(retired) == 0 {
		report.UpToDate = true
		return report, nil
	}

	// Per-refresh retry budget: cross-cloud copies are long-haul and the
	// most fault-exposed path in the system, so every source read and
	// the replica commit retry under the deployment policy, bounded per
	// refresh.
	bud := resilience.NewBudget(d.Clock, refreshRetryBudget, resilience.Seed64(mv.Name))
	rd := srcPlanner.Reader
	rd.Res = d.Res
	source := &scan.Source{Table: src, Store: srcStore, Cred: srcCred, Budget: bud, Principal: string(ControlPrincipal)}
	// The transaction is named after the replica snapshot it read, so a
	// retry of a refresh that never sealed re-mints the same keys.
	txID := fmt.Sprintf("ccmv-%s-v%d", mv.Name, since)
	tx := bigmeta.Tx{
		ID: txID, Principal: string(ControlPrincipal), Res: d.Res, Budget: bud,
		Removed: map[string][]string{mv.Replica: retired},
		Since:   since,
		Check: bigmeta.Footprint{
			Removed: map[string]map[string]bool{mv.Replica: bigmeta.KeySet(retired)},
			Reads:   map[string]map[string]bool{mv.Replica: read},
		}.Conflicts,
	}
	for _, f := range copies {
		data, _, err := rd.Fetch(d.Clock, source, f)
		if err != nil {
			return RefreshReport{}, err
		}
		// Cross-cloud transfer over the VPN (Colossus-bound file copy
		// in production; egress metered either way).
		if err := d.VPN.Call(d.Clock, mv.SourceRegion, mv.TargetRegion, int64(len(data)), srcStore.Profile()); err != nil {
			return RefreshReport{}, err
		}
		tx.Files = append(tx.Files, bigmeta.DataFile{
			Table: mv.Replica, Store: dstStore, Cred: dstCred, Bucket: dst.Bucket,
			Key:   dst.Prefix + "data/" + bigmeta.SanitizeKey(txID) + "/" + flattenKey(f.Key),
			Bytes: data, Partition: f.Partition,
		})
		report.BytesCopied += int64(len(data))
	}
	if _, err := dstRegion.Log.CommitFiles(tx); err != nil {
		return RefreshReport{}, err
	}
	report.FilesCopied, report.FilesDeleted = len(copies), len(retired)
	d.Obs.Add("omni.ccmv_refreshes", 1)
	d.Obs.Add("omni.ccmv_bytes_copied", report.BytesCopied)
	if _, err := dstRegion.Manager.GarbageCollect(mv.Replica, 0); err != nil {
		return report, err
	}
	return report, nil
}

// flattenKey turns a source object key into one path component of the
// replica's key.
func flattenKey(key string) string { return strings.ReplaceAll(key, "/", "_") }

// GrantReplicaAccess grants a principal read access to the CCMV
// replica.
func (d *Deployment) GrantReplicaAccess(mv *CCMV, p security.Principal) error {
	return d.Auth.GrantTable(ControlPrincipal, mv.Replica, p, security.RoleViewer)
}
