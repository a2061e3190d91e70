// Package wal is the durable write-ahead commit journal behind
// bigmeta.Log. The paper's BLMT commits live in a replicated
// small-state store (Spanner); this package plays that role with the
// only durable substrate the simulation has — the object store —
// persisting every transaction as sequenced JSON records under a
// journal prefix:
//
//	_journal/000000000001-intent.rec   {txn, declared data-file keys}
//	_journal/000000000002-commit.rec   {sealed bigmeta.TxCommit}
//	_journal/000000000003-abort.rec    {txn}
//
// The protocol is intent → data-file PUTs → sealed commit. The sealed
// commit record is the commit point: bigmeta.Log writes it through
// AppendCommit *before* mutating memory, so after any crash the
// journal alone decides what happened. Recovery (Recover) replays
// sealed commits into a fresh Log in version order, discards intents
// that never sealed, and reconstructs exactly-once Write API stream
// state from the last sealed commit that carried it. GCOrphans then
// deletes data objects that no sealed commit ever referenced — the
// debris of transactions that died between PUT and seal.
//
// Journal records are created with a generation-0 conditional PUT, so
// two writers racing for the same sequence slot cannot silently
// overwrite each other; the loser re-reads the tail and retries at the
// next slot.
package wal

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"biglake/internal/bigmeta"
	"biglake/internal/integrity"
	"biglake/internal/objstore"
	"biglake/internal/sim"
)

// DefaultPrefix is where the journal lives inside a lake bucket,
// deliberately outside any table's data/ prefix so orphan GC never
// scans it.
const DefaultPrefix = "_journal/"

// Record kinds.
const (
	KindIntent = "intent"
	KindCommit = "commit"
	KindAbort  = "abort"
)

// Record is one sequenced journal entry.
type Record struct {
	Seq  int64  `json:"seq"`
	Kind string `json:"kind"`
	// TxnID labels intent and abort records; commit records carry it
	// inside Commit.
	TxnID     string `json:"txn_id,omitempty"`
	Principal string `json:"principal,omitempty"`
	// Keys are the data-file keys an intent declares it may PUT. A
	// transaction that dies before sealing leaves exactly these (or a
	// prefix of them) behind for orphan GC.
	Keys []string `json:"keys,omitempty"`
	// IntentSeq links an abort back to the intent it cancels.
	IntentSeq int64 `json:"intent_seq,omitempty"`
	// Commit is the sealed transaction payload (KindCommit only).
	Commit *bigmeta.TxCommit `json:"commit,omitempty"`
	// Sum is the CRC-32C of the record's JSON encoding with Sum itself
	// zeroed — the torn-write detector. A record whose bytes were
	// truncated or bit-flipped between PUT and read fails verification
	// and is never rolled forward as a sealed commit.
	Sum uint32 `json:"sum,omitempty"`
}

// sealRecord computes the record's checksum and returns its final
// durable encoding. The sum covers the canonical JSON with Sum zeroed,
// so verification is re-marshal + compare.
func sealRecord(rec Record) ([]byte, error) {
	rec.Sum = 0
	body, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("wal: marshal: %w", err)
	}
	rec.Sum = integrity.Checksum(body)
	return json.Marshal(rec)
}

// verifyRecord parses and checksum-verifies one durable record. Both
// failure modes — unparseable bytes (torn write) and a parseable record
// whose canonical re-encoding mismatches the embedded sum (bit flip) —
// surface as typed integrity errors.
func verifyRecord(data []byte) (Record, error) {
	var rec Record
	if err := json.Unmarshal(data, &rec); err != nil {
		return Record{}, &integrity.Error{Source: "wal.record",
			Detail: "unparseable record (torn write?): " + err.Error()}
	}
	want := rec.Sum
	clean := rec
	clean.Sum = 0
	body, err := json.Marshal(clean)
	if err != nil {
		return Record{}, fmt.Errorf("wal: re-marshal: %w", err)
	}
	if got := integrity.Checksum(body); got != want {
		return Record{}, &integrity.Error{Source: "wal.record",
			Block:  fmt.Sprintf("seq=%d", rec.Seq),
			Detail: fmt.Sprintf("record checksum mismatch: got %08x want %08x", got, want)}
	}
	return rec, nil
}

// Journal is a durable, sequenced record log in one bucket. It
// implements bigmeta.CommitSink.
type Journal struct {
	Store  *objstore.Store
	Cred   objstore.Credential
	Bucket string
	Prefix string

	mu  sync.Mutex
	seq int64 // last sequence number written or observed
}

// Open attaches to (or starts) the journal under prefix, scanning
// existing records to find the next sequence slot.
func Open(store *objstore.Store, cred objstore.Credential, bucket, prefix string) (*Journal, error) {
	if prefix == "" {
		prefix = DefaultPrefix
	}
	j := &Journal{Store: store, Cred: cred, Bucket: bucket, Prefix: prefix}
	infos, err := store.ListAll(cred, bucket, prefix)
	if err != nil && !errors.Is(err, objstore.ErrNoSuchBucket) {
		return nil, fmt.Errorf("wal: open: %w", err)
	}
	for _, info := range infos {
		if n, ok := j.parseSeq(info.Key); ok && n > j.seq {
			j.seq = n
		}
	}
	return j, nil
}

func (j *Journal) key(seq int64, kind string) string {
	return fmt.Sprintf("%s%012d-%s.rec", j.Prefix, seq, kind)
}

func (j *Journal) parseSeq(key string) (int64, bool) {
	rest := strings.TrimPrefix(key, j.Prefix)
	if !strings.HasSuffix(rest, ".rec") {
		return 0, false
	}
	var n int64
	if _, err := fmt.Sscanf(rest, "%d", &n); err != nil {
		return 0, false
	}
	return n, true
}

// append writes rec at the next free sequence slot with a create-only
// conditional PUT, retrying past slots another writer claimed first.
func (j *Journal) append(rec Record) (int64, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for {
		seq := j.seq + 1
		rec.Seq = seq
		data, err := sealRecord(rec)
		if err != nil {
			return 0, err
		}
		_, err = j.Store.PutIfGeneration(j.Cred, j.Bucket, j.key(seq, rec.Kind), data, "application/json", 0)
		if err == nil {
			j.seq = seq
			return seq, nil
		}
		if errors.Is(err, objstore.ErrPreconditionFail) {
			// Lost the slot race; skip past it.
			j.seq = seq
			continue
		}
		return 0, fmt.Errorf("wal: append: %w", err)
	}
}

// AppendIntent opens a transaction: it durably declares the txn ID and
// every data-file key the transaction may PUT, before any PUT happens.
// Returns the intent's sequence number for the matching commit/abort.
func (j *Journal) AppendIntent(txnID, principal string, keys []string) (int64, error) {
	return j.append(Record{Kind: KindIntent, TxnID: txnID, Principal: principal, Keys: append([]string(nil), keys...)})
}

// AppendCommit seals a transaction. This is the commit point: a
// transaction whose commit record is durable is rolled forward by
// recovery; one without it never happened. Implements
// bigmeta.CommitSink.
func (j *Journal) AppendCommit(rec bigmeta.TxCommit) error {
	c := rec
	_, err := j.append(Record{Kind: KindCommit, Commit: &c})
	return err
}

// AppendAbort cancels an intent whose transaction failed cleanly (no
// crash), handing its declared keys to orphan GC eagerly.
func (j *Journal) AppendAbort(txnID string, intentSeq int64) error {
	_, err := j.append(Record{Kind: KindAbort, TxnID: txnID, IntentSeq: intentSeq})
	return err
}

// Seq reports the last sequence number written or observed.
func (j *Journal) Seq() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq
}

// Records reads, decodes, and checksum-verifies the whole journal in
// sequence order. Any record failing verification is a typed integrity
// error; recovery uses the lenient records() below instead so a torn
// tail write doesn't block replay.
func (j *Journal) Records() ([]Record, error) {
	recs, corrupt, err := j.records()
	if err != nil {
		return nil, err
	}
	if len(corrupt) > 0 {
		return nil, corrupt[0].Err
	}
	return recs, nil
}

// corruptRec is one journal object that failed checksum verification.
// Kind and Seq come from the key name — the payload is untrusted.
type corruptRec struct {
	Key  string
	Seq  int64
	Kind string
	Err  error
}

// records reads the journal leniently: verified records in sequence
// order plus the list of corrupt objects, keyed by filename so the
// caller can reason about *which protocol step* was damaged even when
// the payload is garbage.
func (j *Journal) records() ([]Record, []corruptRec, error) {
	infos, err := j.Store.ListAll(j.Cred, j.Bucket, j.Prefix)
	if err != nil {
		if errors.Is(err, objstore.ErrNoSuchBucket) {
			return nil, nil, nil
		}
		return nil, nil, fmt.Errorf("wal: list: %w", err)
	}
	recs := make([]Record, 0, len(infos))
	var corrupt []corruptRec
	for _, info := range infos {
		seq, ok := j.parseSeq(info.Key)
		if !ok {
			continue
		}
		data, _, err := j.Store.Get(j.Cred, j.Bucket, info.Key)
		if err != nil {
			return nil, nil, fmt.Errorf("wal: read %s: %w", info.Key, err)
		}
		rec, err := verifyRecord(data)
		if err != nil {
			kind := ""
			if base := strings.TrimSuffix(strings.TrimPrefix(info.Key, j.Prefix), ".rec"); strings.Contains(base, "-") {
				kind = base[strings.Index(base, "-")+1:]
			}
			corrupt = append(corrupt, corruptRec{Key: info.Key, Seq: seq, Kind: kind,
				Err: integrity.Annotate(err, "", j.Bucket, info.Key)})
			continue
		}
		recs = append(recs, rec)
	}
	sort.Slice(recs, func(a, b int) bool { return recs[a].Seq < recs[b].Seq })
	sort.Slice(corrupt, func(a, b int) bool { return corrupt[a].Seq < corrupt[b].Seq })
	return recs, corrupt, nil
}

// RecoveryReport summarizes one journal replay.
type RecoveryReport struct {
	// Commits is the number of sealed commits rolled forward.
	Commits int
	// UnsealedIntents are the txn IDs of intents with no sealed commit
	// and no abort — transactions killed mid-protocol, discarded.
	UnsealedIntents []string
	// AbortedIntents are txn IDs that aborted cleanly.
	AbortedIntents []string
	// OrphanCandidates are the data-file keys declared by unsealed or
	// aborted intents: the places GC should expect debris.
	OrphanCandidates []string
	// CorruptRecords are journal keys that failed checksum
	// verification, in sequence order.
	CorruptRecords []string
	// DemotedCommits is how many checksum-failed commit records in the
	// torn tail were demoted: their transactions recover as unsealed
	// intents instead of rolling forward garbage.
	DemotedCommits int
	// Streams is the durable Write API stream state: for each stream
	// that ever sealed state into a commit, the last sealed snapshot.
	// Clients resume AppendRows at exactly these offsets.
	Streams map[string]bigmeta.StreamState
}

// Recovered is a post-crash world rebuilt from the journal alone.
type Recovered struct {
	// Log is a fresh bigmeta.Log with every sealed commit rolled
	// forward in version order and the journal re-attached, so the
	// recovered process keeps write-ahead semantics.
	Log    *bigmeta.Log
	Report RecoveryReport
}

// Recover replays the journal into a fresh Log: sealed commits roll
// forward, unsealed intents are discarded, and exactly-once stream
// offsets are restored from the last commit that carried each stream.
//
// Checksum-failed records are handled by position. A corrupt commit in
// the torn tail — at a sequence past every verified record — is the
// signature of a crash mid-seal: the commit never durably happened, so
// it is demoted and its transaction recovers as an unsealed intent
// (orphan GC then reclaims its data files). A corrupt commit *behind*
// verified records is not a torn write, it is history damage — rolling
// past it would silently drop a committed transaction, so recovery
// refuses with a typed integrity error and the journal object must be
// repaired first. Corrupt intents and aborts are dropped either way:
// losing one can only make GC more conservative, never lose a commit.
func Recover(j *Journal, clock *sim.Clock) (*Recovered, error) {
	recs, corrupt, err := j.records()
	if err != nil {
		return nil, err
	}
	tailStart := int64(0) // highest verified sequence number
	for _, rec := range recs {
		if rec.Seq > tailStart {
			tailStart = rec.Seq
		}
	}
	rep := RecoveryReport{}
	for _, c := range corrupt {
		rep.CorruptRecords = append(rep.CorruptRecords, c.Key)
		if c.Kind == KindCommit {
			if c.Seq <= tailStart {
				return nil, c.Err
			}
			rep.DemotedCommits++
		}
	}
	var commits []bigmeta.TxCommit
	intents := map[string]Record{} // txnID → intent
	sealed := map[string]bool{}
	aborted := map[string]bool{}
	for _, rec := range recs {
		switch rec.Kind {
		case KindIntent:
			intents[rec.TxnID] = rec
		case KindAbort:
			aborted[rec.TxnID] = true
		case KindCommit:
			if rec.Commit == nil {
				return nil, fmt.Errorf("wal: commit record %d has no payload", rec.Seq)
			}
			commits = append(commits, *rec.Commit)
			if rec.Commit.TxnID != "" {
				sealed[rec.Commit.TxnID] = true
			}
		}
	}
	sort.Slice(commits, func(a, b int) bool { return commits[a].Version < commits[b].Version })

	// The recovered log inherits the journal store's registry, and the
	// recovery statistics below land there under "wal.*".
	reg := j.Store.Obs()
	log := bigmeta.NewLog(clock)
	log.UseObs(reg)
	if err := log.Restore(commits); err != nil {
		return nil, err
	}
	log.AttachJournal(j)

	rep.Streams = map[string]bigmeta.StreamState{}
	for _, c := range commits {
		for id, st := range c.Streams {
			rep.Streams[id] = st
		}
	}

	rep.Commits = len(commits)
	for id, in := range intents {
		switch {
		case sealed[id]:
		case aborted[id]:
			rep.AbortedIntents = append(rep.AbortedIntents, id)
			rep.OrphanCandidates = append(rep.OrphanCandidates, in.Keys...)
		default:
			rep.UnsealedIntents = append(rep.UnsealedIntents, id)
			rep.OrphanCandidates = append(rep.OrphanCandidates, in.Keys...)
		}
	}
	sort.Strings(rep.UnsealedIntents)
	sort.Strings(rep.AbortedIntents)
	sort.Strings(rep.OrphanCandidates)
	reg.Add("wal.recover.runs", 1)
	reg.Add("wal.recover.commits", int64(len(commits)))
	reg.Add("wal.recover.unsealed_intents", int64(len(rep.UnsealedIntents)))
	reg.Add("wal.recover.aborted_intents", int64(len(rep.AbortedIntents)))
	reg.Add("wal.recover.orphan_candidates", int64(len(rep.OrphanCandidates)))
	if n := len(rep.CorruptRecords); n > 0 {
		reg.Add("integrity.detected.wal", int64(n))
		reg.Add("wal.recover.demoted_commits", int64(rep.DemotedCommits))
	}
	return &Recovered{Log: log, Report: rep}, nil
}

// GCReport summarizes one orphan-GC sweep.
type GCReport struct {
	Scanned int
	Deleted []string
	Bytes   int64
}

// GCOrphans deletes data objects under the given prefixes that no
// sealed commit in the log's history ever referenced — files PUT by
// transactions that died or aborted before sealing. Files referenced
// by *any* historical commit are kept even if a later commit removed
// them: they back time-travel reads, and retiring them on age is
// blmt's separate GarbageCollect job.
func GCOrphans(store *objstore.Store, cred objstore.Credential, bucket string, prefixes []string, log *bigmeta.Log) (GCReport, error) {
	referenced := map[string]bool{}
	for _, rec := range log.History("") {
		for _, d := range rec.Deltas {
			for _, f := range d.Added {
				referenced[f.Key] = true
			}
		}
	}
	var rep GCReport
	for _, prefix := range prefixes {
		infos, err := store.ListAll(cred, bucket, prefix)
		if err != nil {
			return rep, fmt.Errorf("wal: gc list %s: %w", prefix, err)
		}
		for _, info := range infos {
			rep.Scanned++
			if referenced[info.Key] {
				continue
			}
			if err := store.Delete(cred, bucket, info.Key); err != nil {
				return rep, fmt.Errorf("wal: gc delete %s: %w", info.Key, err)
			}
			rep.Deleted = append(rep.Deleted, info.Key)
			rep.Bytes += info.Size
		}
	}
	sort.Strings(rep.Deleted)
	reg := store.Obs()
	reg.Add("wal.gc.scanned", int64(rep.Scanned))
	reg.Add("wal.gc.deleted", int64(len(rep.Deleted)))
	reg.Add("wal.gc.bytes", rep.Bytes)
	return rep, nil
}
