// Package blmt implements BigLake Managed Tables (§3.5): fully managed
// tables storing open-format data files on customer-owned buckets
// while keeping metadata in the Big Metadata transaction log. BLMTs
// support DML (through the engine's Mutator interface), streaming
// ingest (via the Write API, which commits to the same log),
// background storage optimization — adaptive file sizing, clustering,
// coalescing, and garbage collection — and Iceberg snapshot export so
// any Iceberg-capable engine can query the data directly.
package blmt

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"biglake/internal/bigmeta"
	"biglake/internal/catalog"
	"biglake/internal/engine"
	"biglake/internal/iceberg"
	"biglake/internal/objstore"
	"biglake/internal/resilience"
	"biglake/internal/scan"
	"biglake/internal/security"
	"biglake/internal/sim"
	"biglake/internal/vector"
)

// ErrNotManaged reports DML against a non-managed table.
var ErrNotManaged = errors.New("blmt: table is not managed")

// TargetFileBytes is the adaptive-file-sizing target: background
// coalescing merges files until they approach this size.
const TargetFileBytes = 4 * sim.MB

// Manager owns the managed-table lifecycle for one deployment and
// implements engine.Mutator. Every commit it makes — DML, Optimize,
// Repair — runs the log's one commit protocol (bigmeta.CommitFiles);
// when the log has a journal attached each one opens a durable intent
// first, so a crash mid-protocol leaves reclaimable debris instead of
// invisible orphans.
type Manager struct {
	Catalog *catalog.Catalog
	Auth    *security.Authority
	Log     *bigmeta.Log
	Clock   *sim.Clock
	Stores  map[string]*objstore.Store

	// CTAS defaults: where CREATE TABLE AS SELECT materializes new
	// managed tables.
	DefaultCloud      string
	DefaultBucket     string
	DefaultConnection string

	// AutoIceberg exports an Iceberg snapshot after every data-file
	// commit to a managed table, whoever makes it — DML here, COMMIT of
	// a transaction, a Write API flush (the §3.5 "future" behaviour,
	// implemented).
	AutoIceberg bool

	// Res is the retry policy for data-file reads/writes and the
	// Iceberg export commit CAS. Nil behaves like resilience.NoRetry.
	// The manager owns no registry: "blmt.repair_*" outcomes, its
	// reader's "integrity.*" detections and Res's "resilience.*" count
	// in whatever registry the log counts into at the time.
	Res *resilience.Policy

	// seq numbers data files written without a transaction ID.
	seq atomic.Int64
}

// dmlTxn derives the idempotency ID for one DML operation of one
// query. The envelope only exists under a durable journal — without
// one there is nothing for a recovered process to replay against, and
// treating a reused query ID as a replay would surprise callers that
// never opted into journaling. Queries without an ID likewise get no
// envelope (and no crash-exactly-once guarantee); their commits are
// still journaled.
func (m *Manager) dmlTxn(queryID, op, table string) string {
	if queryID == "" || !m.Log.Journaled() {
		return ""
	}
	return fmt.Sprintf("q-%s-%s-%s", queryID, op, table)
}

// dataFiles plans one data file per batch. Keys derive from the
// transaction ID, so a retried transaction re-mints identical keys and
// overwrites its crashed predecessor's files instead of stranding
// them; without an ID (no journal, nothing to retry against) they come
// from the manager's counter.
func (m *Manager) dataFiles(t catalog.Table, store *objstore.Store, cred objstore.Credential, txnID, tag string, batches []*vector.Batch) []bigmeta.DataFile {
	files := make([]bigmeta.DataFile, len(batches))
	for i, b := range batches {
		name, n := bigmeta.SanitizeKey(txnID), int64(i)
		if txnID == "" {
			name, n = tag, m.seq.Add(1)
		}
		key := fmt.Sprintf("%sdata/%s-%06d.blk", t.Prefix, name, n)
		files[i] = bigmeta.DataFile{Table: t.FullName(), Store: store, Cred: cred, Bucket: t.Bucket, Key: key, Batch: b}
	}
	return files
}

var _ engine.Mutator = (*Manager)(nil)

// New assembles a Manager counting into the log's registry and installs
// its AutoIceberg export as the log's post-commit hook.
func New(cat *catalog.Catalog, auth *security.Authority, log *bigmeta.Log, clock *sim.Clock, stores map[string]*objstore.Store) *Manager {
	m := &Manager{Catalog: cat, Auth: auth, Log: log, Clock: clock, Stores: stores, Res: resilience.DefaultPolicy()}
	log.AfterDataCommit(m.autoExport)
	return m
}

// ManagedTable looks up a table DML may write — Managed or Native —
// and resolves where its files live and under which credential.
func ManagedTable(cat *catalog.Catalog, acc scan.Access, name string) (catalog.Table, *objstore.Store, objstore.Credential, error) {
	t, err := cat.Table(name)
	if err != nil {
		return catalog.Table{}, nil, objstore.Credential{}, err
	}
	if t.Type != catalog.Managed && t.Type != catalog.Native {
		return catalog.Table{}, nil, objstore.Credential{}, fmt.Errorf("%w: %s is %v", ErrNotManaged, name, t.Type)
	}
	store, cred, err := acc.Resolve(t)
	return t, store, cred, err
}

func (m *Manager) managedTable(name string) (catalog.Table, *objstore.Store, objstore.Credential, error) {
	return ManagedTable(m.Catalog, scan.Access{Auth: m.Auth, Stores: m.Stores}, name)
}

// reader is the verified reader rewrites go through: quarantine gate,
// generation/length/CRC checks, one refetch, quarantine on repeat. A
// rewrite never skips a quarantined file — leaving a file out of a
// rewrite is data loss — so it fails typed instead, and it never
// commits a file derived from bytes that did not verify. Detections
// land in the log's registry.
func (m *Manager) reader(t catalog.Table, store *objstore.Store, cred objstore.Credential, bud *resilience.Budget, principal string) (scan.Reader, *scan.Source) {
	return scan.Reader{Res: m.Res, Log: m.Log, Obs: m.Log.Obs(), Site: "scan"},
		&scan.Source{Table: t, Store: store, Cred: cred, Budget: bud, Principal: principal}
}

// autoExport is the log's post-commit hook: with AutoIceberg on, every
// sealed data-file commit to a managed table is followed by an Iceberg
// export of the new head.
func (m *Manager) autoExport(table string) error {
	if !m.AutoIceberg {
		return nil
	}
	if t, err := m.Catalog.Table(table); err != nil || t.Type != catalog.Managed {
		return nil
	}
	if _, err := m.ExportIceberg(table); err != nil {
		return fmt.Errorf("blmt: auto iceberg export: %w", err)
	}
	return nil
}

// Insert appends rows to a managed table (engine.Mutator): a blind
// append, so it passes no conflict check and commutes with every
// concurrent commit. A replay of an already-sealed insert (same query
// ID) is an exact no-op.
func (m *Manager) Insert(ctx *engine.QueryContext, table string, rows *vector.Batch) error {
	t, store, cred, err := m.managedTable(table)
	if err != nil {
		return err
	}
	// Align inserted columns with the declared schema (missing
	// columns become NULL).
	aligned, err := AlignToSchema(rows, t.Schema)
	if err != nil {
		return err
	}
	txnID := m.dmlTxn(ctx.QueryID, "ins", table)
	_, err = m.Log.CommitFiles(bigmeta.Tx{
		ID: txnID, Principal: string(ctx.Principal), Res: m.Res, Budget: ctx.Budget,
		Files: m.dataFiles(t, store, cred, txnID, "insert", []*vector.Batch{aligned}),
	})
	return err
}

// AlignToSchema aligns a batch's columns with a declared table schema
// by name: matching columns are type-checked, missing columns become
// all-NULL, and a column the table does not have is an ErrSemantic
// naming it (an unaliased INSERT … SELECT expression, say). Shared with
// internal/txn, whose buffered writes must align exactly like a direct
// insert.
func AlignToSchema(rows *vector.Batch, schema vector.Schema) (*vector.Batch, error) {
	if rows.Schema.Equal(schema) {
		return rows, nil
	}
	for _, f := range rows.Schema.Fields {
		if schema.Index(f.Name) < 0 {
			return nil, fmt.Errorf("%w: inserted column %q is not a column of the table", engine.ErrSemantic, f.Name)
		}
	}
	cols := make([]*vector.Column, schema.Len())
	for i, f := range schema.Fields {
		if j := rows.Schema.Index(f.Name); j >= 0 {
			c := rows.Cols[j]
			if c.Type != f.Type {
				return nil, fmt.Errorf("blmt: column %q type %v != declared %v", f.Name, c.Type, f.Type)
			}
			cols[i] = c
			continue
		}
		// Missing column: all NULL.
		null := &vector.Column{Type: f.Type, Len: rows.N, Enc: vector.Plain, Nulls: make([]bool, rows.N)}
		for k := range null.Nulls {
			null.Nulls[k] = true
		}
		switch f.Type {
		case vector.Int64, vector.Timestamp:
			null.Ints = make([]int64, rows.N)
		case vector.Float64:
			null.Floats = make([]float64, rows.N)
		case vector.Bool:
			null.Bools = make([]bool, rows.N)
		case vector.String, vector.Bytes:
			null.Strs = make([]string, rows.N)
		}
		cols[i] = null
	}
	return vector.NewBatch(schema, cols)
}

// Transform is a copy-on-write rewrite of one batch of rows: it
// returns the batch that replaces the input (nil or empty when no row
// survives) and how many rows it affected; zero means the input stands
// as it is. Shared with internal/txn, whose buffered DML applies the
// same transforms to the session's view.
type Transform func(*vector.Batch) (out *vector.Batch, affected int64, err error)

// DeleteRows is the DELETE transform: rows matching where are dropped.
func DeleteRows(where func(*vector.Batch) ([]bool, error)) Transform {
	return func(b *vector.Batch) (*vector.Batch, int64, error) {
		mask, err := where(b)
		if err != nil {
			return nil, 0, err
		}
		n := vector.CountMask(mask)
		if n == 0 {
			return nil, 0, nil
		}
		kept, err := vector.Filter(b, vector.Not(mask))
		return kept, int64(n), err
	}
}

// UpdateRows is the UPDATE transform: rows matching where take their
// values from set's output, the rest are copied.
func UpdateRows(set func(*vector.Batch) (*vector.Batch, error), where func(*vector.Batch) ([]bool, error)) Transform {
	return func(b *vector.Batch) (*vector.Batch, int64, error) {
		mask, err := where(b)
		if err != nil {
			return nil, 0, err
		}
		n := vector.CountMask(mask)
		if n == 0 {
			return nil, 0, nil
		}
		transformed, err := set(b)
		if err != nil {
			return nil, 0, err
		}
		out, err := MergeMasked(b, transformed, mask)
		return out, int64(n), err
	}
}

// RewriteFiles reads each file through the verified reader and applies
// transform: files it leaves alone are skipped, the others are listed
// in removed with their surviving rows in outs (copy-on-write DML).
func RewriteFiles(clock *sim.Clock, rd scan.Reader, src *scan.Source, files []bigmeta.FileEntry, transform Transform) (removed []string, outs []*vector.Batch, affected int64, err error) {
	for _, f := range files {
		sel, _, err := rd.ReadBatch(clock, src, f, nil, nil, nil)
		if err != nil {
			return nil, nil, 0, err
		}
		out, n, err := transform(sel.Batch)
		if err != nil {
			return nil, nil, 0, err
		}
		if n == 0 {
			continue
		}
		affected += n
		removed = append(removed, f.Key)
		if out != nil && out.N > 0 {
			outs = append(outs, out)
		}
	}
	return removed, outs, affected, nil
}

// rewrite runs one autocommit UPDATE/DELETE: read the latest snapshot,
// transform every file, and commit the swap validated against that
// snapshot exactly as a one-statement transaction would be — it read
// the whole table and removes the files it rewrote, so a concurrent
// commit that touched either makes it fail with bigmeta.ErrConflict
// instead of committing both outputs.
func (m *Manager) rewrite(ctx *engine.QueryContext, table, tag string, transform Transform) (int64, error) {
	t, store, cred, err := m.managedTable(table)
	if err != nil {
		return 0, err
	}
	txnID := m.dmlTxn(ctx.QueryID, tag, table)
	if _, done := m.Log.AppliedTx(txnID); done {
		// A crashed predecessor sealed this DML; re-running the (often
		// non-idempotent) transform would double-apply it.
		return 0, nil
	}
	files, version, err := m.Log.Snapshot(table, -1)
	if err != nil {
		return 0, err
	}
	// Read and transform everything before writing anything, so the
	// full set of output keys is known for the journal intent.
	rd, src := m.reader(t, store, cred, ctx.Budget, string(ctx.Principal))
	removed, outs, affected, err := RewriteFiles(m.Clock, rd, src, files, transform)
	if err != nil || len(removed) == 0 {
		return 0, err
	}
	read := make([]string, len(files))
	for i, f := range files {
		read[i] = f.Key
	}
	fp := bigmeta.Footprint{
		Removed: map[string]map[string]bool{table: bigmeta.KeySet(removed)},
		Reads:   map[string]map[string]bool{table: bigmeta.KeySet(read)},
	}
	if _, err := m.Log.CommitFiles(bigmeta.Tx{
		ID: txnID, Principal: string(ctx.Principal), Res: m.Res, Budget: ctx.Budget,
		Files:   m.dataFiles(t, store, cred, txnID, tag, outs),
		Removed: map[string][]string{table: removed},
		Since:   version, Check: fp.Conflicts,
	}); err != nil {
		return 0, err
	}
	return affected, nil
}

// Delete removes rows matching where (engine.Mutator).
func (m *Manager) Delete(ctx *engine.QueryContext, table string, where func(*vector.Batch) ([]bool, error)) (int64, error) {
	return m.rewrite(ctx, table, "delete", DeleteRows(where))
}

// Update rewrites rows matching where with set applied
// (engine.Mutator).
func (m *Manager) Update(ctx *engine.QueryContext, table string, set func(*vector.Batch) (*vector.Batch, error), where func(*vector.Batch) ([]bool, error)) (int64, error) {
	return m.rewrite(ctx, table, "update", UpdateRows(set, where))
}

// MergeMasked merges two same-schema batches row-wise: masked rows
// come from upd, others from orig — the UPDATE copy-on-write merge.
func MergeMasked(orig, upd *vector.Batch, mask []bool) (*vector.Batch, error) {
	cols := make([]*vector.Column, len(orig.Cols))
	for ci := range orig.Cols {
		o, u := orig.Cols[ci].Decode(), upd.Cols[ci].Decode()
		builder := vector.NewBuilder(vector.NewSchema(orig.Schema.Fields[ci]))
		for r := 0; r < orig.N; r++ {
			if mask[r] {
				builder.Append(u.Value(r))
			} else {
				builder.Append(o.Value(r))
			}
		}
		cols[ci] = builder.Build().Cols[0]
	}
	return vector.NewBatch(orig.Schema, cols)
}

// CreateTableAs materializes a query result as a new managed table
// (engine.Mutator).
func (m *Manager) CreateTableAs(ctx *engine.QueryContext, table string, orReplace bool, rows *vector.Batch) error {
	if _, err := m.Catalog.Table(table); err == nil {
		if !orReplace {
			return fmt.Errorf("%w: table %q", catalog.ErrAlreadyExists, table)
		}
		if err := m.Catalog.DropTable(table); err != nil {
			return err
		}
		// Retire the replaced table's files from the log so the new
		// table starts empty.
		if old, _, err := m.Log.Snapshot(table, -1); err == nil && len(old) > 0 {
			removed := make([]string, len(old))
			for i, f := range old {
				removed[i] = f.Key
			}
			if _, err := m.Log.CommitTx(string(ctx.Principal),
				bigmeta.TxOptions{TxnID: m.dmlTxn(ctx.QueryID, "retire", table)},
				map[string]bigmeta.TableDelta{table: {Removed: removed}}); err != nil {
				return err
			}
		}
	}
	dot := -1
	for i, c := range table {
		if c == '.' {
			dot = i
		}
	}
	if dot < 0 {
		return fmt.Errorf("blmt: CTAS target %q must be dataset.table", table)
	}
	t := catalog.Table{
		Dataset: table[:dot], Name: table[dot+1:], Type: catalog.Managed,
		Schema: rows.Schema, Cloud: m.DefaultCloud, Bucket: m.DefaultBucket,
		Prefix:     fmt.Sprintf("blmt/%s/%s/", table[:dot], table[dot+1:]),
		Connection: m.DefaultConnection,
		CreatedAt:  m.Clock.Now(),
	}
	if err := m.Catalog.CreateTable(t); err != nil {
		return err
	}
	// Creator becomes owner.
	if err := m.Auth.GrantTable(ctx.Principal, table, ctx.Principal, security.RoleOwner); err != nil {
		// Non-admin creators: have an admin bootstrap handled by core;
		// grant through the authority's admin if the principal cannot.
		return err
	}
	if rows.N == 0 {
		return nil
	}
	return m.Insert(ctx, table, rows)
}

// Optimize runs the §3.5 background storage optimizations for one
// table: coalesce small files toward TargetFileBytes (adaptive file
// sizing), optionally recluster rows by a column, and report what
// changed. It is safe to run concurrently with readers and writers: the
// swap commits through the log's commit protocol, validated against the
// snapshot it read, so a pass that loses a merged file to a concurrent
// UPDATE/DELETE returns bigmeta.ErrConflict and changes nothing (run it
// again); concurrent inserts add files it never read and commute.
func (m *Manager) Optimize(principal, table, clusterBy string) (OptimizeReport, error) {
	t, store, cred, err := m.managedTable(table)
	if err != nil {
		return OptimizeReport{}, err
	}
	files, version, err := m.Log.Snapshot(table, -1)
	if err != nil {
		return OptimizeReport{}, err
	}
	// The idempotency ID binds this pass to the version it read: a
	// crashed-then-retried pass either replays as a no-op (seal was
	// durable) or re-runs cleanly against the same input set.
	txnID := fmt.Sprintf("optimize:%s:v%d", table, version)
	if _, done := m.Log.AppliedTx(txnID); done {
		after, _, _ := m.Log.Snapshot(table, -1)
		return OptimizeReport{FilesBefore: len(files), FilesAfter: len(after)}, nil
	}
	var small []bigmeta.FileEntry
	for _, f := range files {
		if f.Size < TargetFileBytes/2 {
			small = append(small, f)
		}
	}
	if len(small) < 2 && clusterBy == "" {
		return OptimizeReport{FilesBefore: len(files), FilesAfter: len(files)}, nil
	}
	merge := small
	if clusterBy != "" {
		merge = files // reclustering rewrites everything
	}

	var batches []*vector.Batch
	var removed []string
	rd, src := m.reader(t, store, cred, nil, principal)
	for _, f := range merge {
		sel, _, err := rd.ReadBatch(m.Clock, src, f, nil, nil, nil)
		if err != nil {
			return OptimizeReport{}, err
		}
		batches = append(batches, sel.Batch)
		removed = append(removed, f.Key)
	}
	combined, err := vector.Concat(batches)
	if err != nil {
		return OptimizeReport{}, err
	}
	if combined == nil {
		return OptimizeReport{FilesBefore: len(files), FilesAfter: len(files)}, nil
	}
	if clusterBy != "" {
		combined, err = sortBatchBy(combined, clusterBy)
		if err != nil {
			return OptimizeReport{}, err
		}
	}
	// Split into target-size chunks.
	rowBytes := int64(1)
	if combined.N > 0 {
		var total int64
		for _, f := range merge {
			total += f.Size
		}
		rowBytes = total/int64(combined.N) + 1
	}
	rowsPerFile := int(TargetFileBytes / rowBytes)
	if rowsPerFile < 1 {
		rowsPerFile = combined.N
	}
	var chunks []*vector.Batch
	for start := 0; start < combined.N; start += rowsPerFile {
		end := start + rowsPerFile
		if end > combined.N {
			end = combined.N
		}
		idx := make([]int, end-start)
		for i := range idx {
			idx[i] = start + i
		}
		cols := make([]*vector.Column, len(combined.Cols))
		for i, c := range combined.Cols {
			cols[i] = vector.GatherWith(vector.Mem{}, c, idx)
		}
		chunk, err := vector.NewBatch(combined.Schema, cols)
		if err != nil {
			return OptimizeReport{}, err
		}
		chunks = append(chunks, chunk)
	}
	fp := bigmeta.Footprint{Removed: map[string]map[string]bool{table: bigmeta.KeySet(removed)}}
	if _, err := m.Log.CommitFiles(bigmeta.Tx{
		ID: txnID, Principal: principal, Res: m.Res,
		Files:   m.dataFiles(t, store, cred, txnID, "optimize", chunks),
		Removed: map[string][]string{table: removed},
		Since:   version, Check: fp.Conflicts,
	}); err != nil {
		return OptimizeReport{}, err
	}
	after, _, _ := m.Log.Snapshot(table, -1)
	return OptimizeReport{
		FilesBefore: len(files), FilesAfter: len(after),
		FilesCoalesced: len(merge), Reclustered: clusterBy != "",
	}, nil
}

// OptimizeReport summarizes a background optimization pass.
type OptimizeReport struct {
	FilesBefore    int
	FilesAfter     int
	FilesCoalesced int
	Reclustered    bool
	GarbageDeleted int
}

func sortBatchBy(b *vector.Batch, col string) (*vector.Batch, error) {
	ci := b.Schema.Index(col)
	if ci < 0 {
		return nil, fmt.Errorf("blmt: cluster column %q not in schema", col)
	}
	idx := make([]int, b.N)
	for i := range idx {
		idx[i] = i
	}
	key := b.Cols[ci].Decode()
	sort.SliceStable(idx, func(x, y int) bool {
		a, bb := key.Value(idx[x]), key.Value(idx[y])
		if a.IsNull() {
			return !bb.IsNull()
		}
		if bb.IsNull() {
			return false
		}
		return a.Compare(bb) < 0
	})
	cols := make([]*vector.Column, len(b.Cols))
	for i, c := range b.Cols {
		cols[i] = vector.GatherWith(vector.Mem{}, c, idx)
	}
	return vector.NewBatch(b.Schema, cols)
}

// GarbageCollect deletes data objects under the table prefix that are
// no longer referenced by the current snapshot and are older than
// minAge (simulated time), returning the number deleted.
func (m *Manager) GarbageCollect(table string, minAge time.Duration) (int, error) {
	t, store, cred, err := m.managedTable(table)
	if err != nil {
		return 0, err
	}
	files, _, err := m.Log.Snapshot(table, -1)
	if err != nil {
		return 0, err
	}
	live := make(map[string]bool, len(files))
	for _, f := range files {
		live[f.Key] = true
	}
	res := m.Res.Counting(m.Log.Obs())
	infos, err := resilience.ListAll(res, m.Clock, nil, store, cred, t.Bucket, t.Prefix+"data/")
	if err != nil {
		return 0, err
	}
	deleted := 0
	now := m.Clock.Now()
	for _, info := range infos {
		if live[info.Key] {
			continue
		}
		if now-info.Updated < minAge {
			continue
		}
		key := info.Key
		if err := res.Do(m.Clock, nil, "DELETE "+t.Bucket+"/"+key, func() error {
			return store.Delete(cred, t.Bucket, key)
		}); err != nil {
			return deleted, err
		}
		deleted++
	}
	return deleted, nil
}

// ExportIceberg writes an Iceberg snapshot of the table's current
// state into its bucket and returns the metadata file key (§3.5).
func (m *Manager) ExportIceberg(table string) (string, error) {
	t, store, cred, err := m.managedTable(table)
	if err != nil {
		return "", err
	}
	files, version, err := m.Log.Snapshot(table, -1)
	if err != nil {
		return "", err
	}
	return iceberg.ExportWithCrash(m.Log.Crash, m.Res.Counting(m.Log.Obs()), store, cred, t.Bucket, t.Prefix, table, t.Schema, files, version)
}
