package bigmeta

// The one commit protocol. Every transaction that adds or removes data
// files — autocommit DML, COMMIT of an interactive transaction,
// Optimize, Repair's swap, a Write API flush, a Write API batch commit
// — runs CommitFiles and nothing else:
//
//	AppliedTx replay → pre-validation → durable intent → encode +
//	retried PUT per file → validate-and-seal under the log mutex →
//	abort record on a clean failure → post-commit export hook
//
// so isolation and crash recovery are properties of this file, not of
// each writer. scripts/scanlint.sh keeps AppendIntent, AppendAbort and
// CommitTxIf from being called anywhere else.

import (
	"errors"
	"fmt"
	"sort"

	"biglake/internal/colfmt"
	"biglake/internal/objstore"
	"biglake/internal/obs"
	"biglake/internal/resilience"
	"biglake/internal/sim"
	"biglake/internal/vector"
)

// ErrConflict is a first-committer-wins validation failure: a
// transaction that committed after this one's snapshot touched an
// overlapping read or write set. Nothing of the losing transaction is
// visible; retry it against a fresh snapshot. internal/txn re-exports
// it as txn.ErrConflict.
var ErrConflict = errors.New("txn: serialization conflict, transaction aborted")

// Footprint is what a transaction read and what it removes, per table,
// at file granularity — the input of first-committer-wins validation.
type Footprint struct {
	// Removed holds the snapshot files the transaction rewrites or
	// drops.
	Removed map[string]map[string]bool
	// Reads holds the snapshot files the transaction logically read. A
	// table that is present — even with no files — is phantom-guarded:
	// any file a concurrent commit adds to it conflicts.
	Reads map[string]map[string]bool
}

// KeySet builds one table's entry of a Footprint.
func KeySet(keys []string) map[string]bool {
	set := make(map[string]bool, len(keys))
	for _, k := range keys {
		set[k] = true
	}
	return set
}

// Conflicts validates the footprint against one concurrently committed
// record:
//
//   - write-write: the record removed a file this transaction removes;
//   - read-write: the record removed a file this transaction read, or
//     added any file to a table it read (new files may hold rows its
//     predicates would have matched).
//
// A transaction with an empty footprint (blind INSERT, a Write API
// append) never conflicts.
func (f Footprint) Conflicts(rec CommitRecord) error {
	for table, d := range rec.Deltas {
		if rm := f.Removed[table]; len(rm) > 0 {
			for _, k := range d.Removed {
				if rm[k] {
					return fmt.Errorf("%w: write-write on %s file %s (committed v%d)", ErrConflict, table, k, rec.Version)
				}
			}
		}
		rf, read := f.Reads[table]
		if !read {
			continue
		}
		if len(d.Added) > 0 {
			return fmt.Errorf("%w: read-write phantom on %s (v%d added %d files)", ErrConflict, table, rec.Version, len(d.Added))
		}
		for _, k := range d.Removed {
			if rf[k] {
				return fmt.Errorf("%w: read-write on %s file %s (committed v%d)", ErrConflict, table, k, rec.Version)
			}
		}
	}
	return nil
}

// RemovedKeys lists the footprint's write set per table, sorted — the
// Removed half of the commit's deltas.
func (f Footprint) RemovedKeys() map[string][]string {
	out := make(map[string][]string, len(f.Removed))
	for table, set := range f.Removed {
		if len(set) == 0 {
			continue
		}
		keys := make([]string, 0, len(set))
		for k := range set {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		out[table] = keys
	}
	return out
}

// DataFile is one data file a transaction writes: a batch the protocol
// encodes, or already-encoded verified bytes (a repair's replica), at
// a key the caller derived deterministically from the transaction so a
// retry overwrites its crashed predecessor's file.
type DataFile struct {
	Table  string // catalog name the file joins
	Store  *objstore.Store
	Cred   objstore.Credential
	Bucket string
	Key    string
	Batch  *vector.Batch
	Bytes  []byte // used instead of Batch when set
	// Partition is carried onto the FileEntry (a repaired file keeps
	// the partition of the file it replaces).
	Partition map[string]string
}

// PutDataFile is the encode → retried PUT → FileEntry step: the one
// place a data file is materialized. CommitFiles calls it per file
// between its crash points; the workload generators, which load
// outside the commit protocol, call it directly. The entry is described
// from the footer the writer hands over, or, for bytes already encoded,
// from the footer they end with.
func PutDataFile(res resilience.Counted, ch sim.Charger, bud *resilience.Budget, f DataFile) (FileEntry, error) {
	data := f.Bytes
	var footer *colfmt.Footer
	if data == nil {
		w := colfmt.NewWriter(f.Batch.Schema, colfmt.WriterOptions{})
		err := w.WriteBatch(f.Batch)
		if err == nil {
			data, footer, err = w.Finish()
		}
		if err != nil {
			return FileEntry{}, err
		}
	}
	var info objstore.ObjectInfo
	if err := res.Do(ch, bud, "PUT "+f.Bucket+"/"+f.Key, func() error {
		var pe error
		info, pe = f.Store.Put(f.Cred, f.Bucket, f.Key, data, "application/x-blk")
		return pe
	}); err != nil {
		return FileEntry{}, err
	}
	if footer == nil {
		var err error
		if footer, err = colfmt.ReadFooter(data); err != nil {
			return FileEntry{}, err
		}
	}
	entry := NewFileEntry(f.Bucket, f.Key, info, footer)
	entry.Partition = f.Partition
	return entry, nil
}

// SanitizeKey makes a transaction or stream ID usable inside an object
// key.
func SanitizeKey(id string) string {
	out := []byte(id)
	for i, c := range out {
		if c == '/' || c == ':' {
			out[i] = '-'
		}
	}
	return string(out)
}

// Tx is one data-file transaction handed to CommitFiles.
type Tx struct {
	// ID is the idempotency identity: a transaction whose ID already
	// sealed replays as an exact no-op, and the journal intent is filed
	// under it. Empty means no envelope — no replay check and no intent
	// (callers that never opted into journaling).
	ID        string
	Principal string
	// Res and Budget govern the intent, every PUT, the seal and the
	// abort record. Nil means one attempt / no budget. Retries count
	// ("resilience.*") in the log's registry.
	Res    *resilience.Policy
	Budget *resilience.Budget
	// Files are the data files to write; Removed the live files the
	// commit drops, per table.
	Files   []DataFile
	Removed map[string][]string
	// Streams is Write API stream state sealed atomically with the
	// commit.
	Streams map[string]StreamState
	// Check, when set, is first-committer-wins validation: it is
	// invoked for every record committed after version Since — once
	// cheaply before anything durable is written, and again under the
	// log mutex at the seal. Nil is a blind append, which commutes with
	// everything.
	Since int64
	Check func(CommitRecord) error
	// Span, when set, opens a span per protocol stage ("validate",
	// "intent", "put", "seal").
	Span func(stage string) *obs.Span
}

func (tx *Tx) span(stage string) *obs.Span {
	if tx.Span == nil {
		return nil
	}
	return tx.Span(stage)
}

// Journaled reports whether a durable commit sink is attached — that
// is, whether idempotency IDs have anything to replay against after a
// crash.
func (l *Log) Journaled() bool {
	sink, _ := l.hooks()
	return sink != nil
}

// hooks returns the attached journal and the post-commit hook.
func (l *Log) hooks() (CommitSink, func(table string) error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.sink, l.afterData
}

// AfterDataCommit installs fn to run after every sealed CommitFiles
// transaction, once per table it touched, outside the log mutex.
// blmt.New installs the AutoIceberg export here, which is why a COMMIT
// or a Write API flush exports exactly like an autocommit INSERT. One
// hook per log: a later call replaces the earlier one.
func (l *Log) AfterDataCommit(fn func(table string) error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.afterData = fn
}

// CommitFiles runs the commit protocol for one data-file transaction
// and returns the sealed log version.
//
// A replayed ID returns its original version with nothing done. A
// conflict returns an error satisfying errors.Is(err, ErrConflict); it
// and every other clean failure past the intent append an abort record,
// so orphan GC reclaims the declared keys without waiting for
// recovery. Crash points (Log.Crash) sit on both sides of the intent,
// of every PUT and of the seal. An error with a non-zero version means
// the transaction sealed and only the post-commit hook failed.
func (l *Log) CommitFiles(tx Tx) (int64, error) {
	if v, ok := l.AppliedTx(tx.ID); ok {
		return v, nil
	}
	// Cheap pre-validation: most conflicts are caught here, before the
	// transaction has written a single durable byte.
	if tx.Check != nil {
		sp := tx.span("validate")
		var err error
		for _, rec := range l.Since(tx.Since) {
			if err = tx.Check(rec); err != nil {
				break
			}
		}
		sp.End()
		if err != nil {
			return 0, err
		}
	}
	if err := tx.Budget.CheckDeadline(l.clock); err != nil {
		return 0, err
	}

	// Durable intent: every key the commit may write, declared before
	// the first PUT, so recovery can enumerate (and GC) the debris of a
	// crash anywhere past this point.
	l.Crash.At("commit.before_intent")
	res := tx.Res.Counting(l.Obs())
	sink, hook := l.hooks()
	var intentSeq int64
	if sink != nil && tx.ID != "" {
		keys := make([]string, len(tx.Files))
		for i, f := range tx.Files {
			keys[i] = f.Key
		}
		sp := tx.span("intent")
		err := res.Do(l.clock, tx.Budget, "INTENT "+tx.ID, func() error {
			var ie error
			intentSeq, ie = sink.AppendIntent(tx.ID, tx.Principal, keys)
			return ie
		})
		sp.End()
		if err != nil {
			return 0, err
		}
	}
	l.Crash.At("commit.after_intent")

	version, deltas, err := l.putAndSeal(&tx, res, intentSeq)
	if err != nil {
		if intentSeq > 0 {
			// Best-effort: if the abort record itself fails, recovery
			// still classifies the unsealed intent's keys as orphans.
			_ = res.Do(l.clock, nil, "ABORT "+tx.ID, func() error {
				return sink.AppendAbort(tx.ID, intentSeq)
			})
		}
		return 0, err
	}
	l.Crash.At("commit.after_seal")

	// The hook publishes *after* the sealed commit, so an Iceberg
	// version hint only ever points at sealed versions; a crash in here
	// leaves a stale hint that the recovery re-export converges.
	if hook != nil {
		tables := make([]string, 0, len(deltas))
		for table := range deltas {
			tables = append(tables, table)
		}
		sort.Strings(tables)
		for _, table := range tables {
			if err := hook(table); err != nil {
				return version, err
			}
		}
	}
	return version, nil
}

// putAndSeal writes every data file at its declared key, then
// validates and seals the multi-table record atomically under the
// log's single mutex — deadlock-free by construction, no table lock
// ordering to get wrong. The journal's before_seal/after_seal crash
// points fire inside CommitTxIf.
func (l *Log) putAndSeal(tx *Tx, res resilience.Counted, intentSeq int64) (int64, map[string]TableDelta, error) {
	deltas := make(map[string]TableDelta, len(tx.Removed)+1)
	sp := tx.span("put")
	for _, f := range tx.Files {
		l.Crash.At("commit.before_put")
		entry, err := PutDataFile(res, l.clock, tx.Budget, f)
		if err != nil {
			sp.End()
			return 0, nil, err
		}
		l.Crash.At("commit.after_put")
		d := deltas[f.Table]
		d.Added = append(d.Added, entry)
		deltas[f.Table] = d
	}
	sp.SetInt("files", int64(len(tx.Files)))
	sp.End()
	for table, keys := range tx.Removed {
		if len(keys) == 0 {
			continue
		}
		d := deltas[table]
		d.Removed = keys
		deltas[table] = d
	}

	sp = tx.span("seal")
	var version int64
	err := res.Do(l.clock, tx.Budget, "SEAL "+tx.ID, func() error {
		v, se := l.CommitTxIf(tx.Principal,
			TxOptions{TxnID: tx.ID, IntentSeq: intentSeq, Streams: tx.Streams},
			deltas, tx.Since, tx.Check)
		if se != nil {
			return se
		}
		version = v
		return nil
	})
	sp.End()
	return version, deltas, err
}
