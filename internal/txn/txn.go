// Package txn implements interactive multi-statement transactions on
// top of the Big Metadata log and the commit journal: BEGIN pins every
// read in the session to one log version across all tables (snapshot
// isolation), DML buffers intents in memory instead of committing
// per-statement, and COMMIT runs first-committer-wins optimistic
// validation before sealing a single multi-table record. There are no
// per-table locks anywhere — validation and seal happen atomically
// under the log's own commit mutex, so multi-table transactions cannot
// deadlock no matter how tables are ordered.
//
// Conflict detection is at file granularity, mirroring the log's unit
// of change:
//
//   - write-write: a concurrent committed transaction removed a file
//     this session also rewrites (UPDATE/DELETE on the same file).
//   - read-write: a concurrent committed transaction removed a file
//     this session read, or added any file to a table this session
//     read (the phantom guard: new files may contain rows the
//     session's predicates would have matched).
//
// Pure blind INSERTs record no reads and remove no files, so
// insert-only transactions always commute — the append-only fast path
// that keeps commit throughput flat under contention (E17).
package txn

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"biglake/internal/bigmeta"
	"biglake/internal/blmt"
	"biglake/internal/catalog"
	"biglake/internal/colfmt"
	"biglake/internal/crashpoint"
	"biglake/internal/engine"
	"biglake/internal/objstore"
	"biglake/internal/obs"
	"biglake/internal/resilience"
	"biglake/internal/scan"
	"biglake/internal/security"
	"biglake/internal/sqlparse"
	"biglake/internal/vector"
	"biglake/internal/wal"
)

// Errors surfaced by the transaction layer.
var (
	// ErrConflict is a first-committer-wins validation failure: a
	// transaction that committed after this session's snapshot touched
	// an overlapping read or write set. The session is aborted; retry
	// by beginning a new transaction.
	ErrConflict = errors.New("txn: serialization conflict, transaction aborted")
	// ErrClosed reports a statement against a session that already
	// committed or aborted.
	ErrClosed = errors.New("txn: session is closed")
	// ErrNested reports BEGIN inside an open transaction.
	ErrNested = errors.New("txn: transaction already open (nested BEGIN)")
)

// Session states.
const (
	stateActive = iota
	stateCommitted
	stateAborted
)

// Abort causes, used as metric suffixes (txn.aborts.<cause>).
const (
	abortConflict = "conflict"
	abortDeadline = "deadline"
	abortFault    = "fault"
	abortExplicit = "explicit"
)

// Manager owns transaction sessions for one deployment. It reuses the
// engine's catalog, authority, log, stores, and retry policy, and the
// same journal the non-transactional DML path writes intents to — a
// recovered process replays single-statement and multi-table commits
// through one code path.
type Manager struct {
	Eng *engine.Engine
	// Journal, when set, records a durable intent covering every data
	// file a commit will write, before the first PUT. Nil disables
	// journaling (and with it the crash-exactly-once guarantee), same
	// as blmt.
	Journal *wal.Journal
	// Crash marks the commit protocol's crash points (nil = none).
	Crash *crashpoint.Injector
	// Res overrides the retry policy for commit-path object I/O; nil
	// falls back to the engine's policy.
	Res *resilience.Policy
	// Tracer, when set, records a span tree per session (BEGIN through
	// COMMIT/ROLLBACK) for EXPLAIN ANALYZE-style inspection.
	Tracer *obs.Tracer

	mu     sync.Mutex
	active int64

	tc txnCounters
}

// txnCounters holds pre-resolved registry handles so the per-statement
// path never takes the registry's name-lookup lock.
type txnCounters struct {
	reg       *obs.Registry
	activeG   *obs.Gauge
	begins    *obs.Counter
	commits   *obs.Counter
	commitsRO *obs.Counter
	retries   *obs.Counter
	tables    *obs.Counter
	files     *obs.Counter
	aborts    map[string]*obs.Counter
	pinAgeUS  *obs.Histogram
	validated *obs.Counter
	replays   *obs.Counter
}

// pinAgeBounds buckets snapshot-pin age (microseconds of simulated
// time between BEGIN and COMMIT) from sub-millisecond interactive
// sessions up to multi-second stragglers.
var pinAgeBounds = []int64{100, 1000, 10_000, 100_000, 1_000_000, 10_000_000}

// NewManager assembles a transaction manager around an engine and a
// journal, publishing txn.* metrics into the engine's registry.
func NewManager(eng *engine.Engine, j *wal.Journal) *Manager {
	m := &Manager{Eng: eng, Journal: j}
	m.UseObs(eng.Obs)
	return m
}

// UseObs re-resolves the manager's metric handles against reg. Call it
// after swapping the engine onto a shared registry.
func (m *Manager) UseObs(reg *obs.Registry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	tc := txnCounters{reg: reg, aborts: make(map[string]*obs.Counter)}
	if reg != nil {
		tc.activeG = reg.Gauge("txn.sessions.active")
		tc.begins = reg.Counter("txn.begins")
		tc.commits = reg.Counter("txn.commits")
		tc.commitsRO = reg.Counter("txn.commits.readonly")
		tc.retries = reg.Counter("txn.commit.retries")
		tc.tables = reg.Counter("txn.commit.tables")
		tc.files = reg.Counter("txn.commit.files")
		tc.validated = reg.Counter("txn.commit.validated_records")
		tc.replays = reg.Counter("txn.commit.replays")
		for _, cause := range []string{abortConflict, abortDeadline, abortFault, abortExplicit} {
			tc.aborts[cause] = reg.Counter("txn.aborts." + cause)
		}
		tc.pinAgeUS = reg.Histogram("txn.snapshot.pin_age_us", pinAgeBounds)
	}
	m.tc = tc
}

func (m *Manager) res() *resilience.Policy {
	if m.Res != nil {
		return m.Res
	}
	return m.Eng.Res
}

func (m *Manager) sessionDelta(d int64) {
	m.mu.Lock()
	m.active += d
	g := m.tc.activeG
	v := m.active
	m.mu.Unlock()
	if g != nil {
		g.Set(v)
	}
}

// tableBuf is one table's buffered write set.
type tableBuf struct {
	// removed marks snapshot files this session's UPDATE/DELETE
	// statements rewrote; they are dropped from the session's own
	// scans and become the commit's Removed delta.
	removed map[string]bool
	// batches are buffered row sets (INSERT payloads and rewrite
	// survivors) visible to the session's own reads and materialized
	// as data files only at COMMIT.
	batches []*vector.Batch
}

// Session is one interactive transaction. It implements both
// engine.TxnView (pinned snapshot + overlay for reads) and
// engine.Mutator (buffered writes), so statements executed through it
// see their own uncommitted effects while the shared log sees nothing
// until COMMIT.
type Session struct {
	m         *Manager
	ID        string
	Principal security.Principal
	// Deadline, when > 0, bounds each statement and the commit
	// protocol to that much simulated time (engine.QueryContext
	// semantics). A stuck commit aborts cleanly instead of spinning.
	Deadline time.Duration

	mu       sync.Mutex
	state    int
	snapshot int64
	beganAt  time.Duration
	version  int64 // sealed commit version once committed
	stmtSeq  int
	// reads maps table -> set of snapshot file keys the session's
	// statements logically read; readTables tracks tables read at all
	// (for the phantom guard, even when the table was empty).
	reads      map[string]map[string]bool
	readTables map[string]bool
	bufs       map[string]*tableBuf
	intentSeq  int64

	trace *obs.Trace
	root  *obs.Span
}

var (
	_ engine.TxnView = (*Session)(nil)
	_ engine.Mutator = (*Session)(nil)
)

// Begin opens a session pinned to the log's current version. id is the
// transaction's idempotency identity: a session begun with the ID of
// an already-sealed transaction will discover that at COMMIT and
// no-op (crash-safe client retries).
func (m *Manager) Begin(principal security.Principal, id string) *Session {
	s := &Session{
		m:          m,
		ID:         id,
		Principal:  principal,
		snapshot:   m.Eng.Log.Version(),
		beganAt:    m.Eng.Clock.Now(),
		reads:      make(map[string]map[string]bool),
		readTables: make(map[string]bool),
		bufs:       make(map[string]*tableBuf),
	}
	if m.Tracer != nil {
		s.trace = m.Tracer.Start("txn-"+id, m.Eng.Clock)
		s.root = s.trace.Root()
		sp := s.root.ChildAt(m.Eng.Clock, "txn.begin")
		sp.SetInt("snapshot_version", s.snapshot)
		sp.End()
	}
	if m.tc.begins != nil {
		m.tc.begins.Add(1)
	}
	m.sessionDelta(1)
	return s
}

// Snapshot returns the log version the session's reads are pinned to.
func (s *Session) Snapshot() int64 { return s.snapshot }

// Active reports whether the session still accepts statements — false
// once committed, rolled back, or aborted.
func (s *Session) Active() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state == stateActive
}

// Version returns the sealed commit version (0 until committed).
func (s *Session) Version() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.version
}

// --- engine.TxnView ---

// SnapshotVersion pins every managed-table scan in this session.
func (s *Session) SnapshotVersion() int64 { return s.snapshot }

// Overlay exposes the session's buffered writes to its own scans:
// files it rewrote disappear, rows it buffered appear.
func (s *Session) Overlay(table string) (map[string]bool, []*vector.Batch) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.bufs[table]
	if b == nil {
		return nil, nil
	}
	batches := append([]*vector.Batch(nil), b.batches...)
	removed := make(map[string]bool, len(b.removed))
	for k := range b.removed {
		removed[k] = true
	}
	return removed, batches
}

// ObserveRead records the snapshot files a statement logically read,
// before predicate pruning — the session's read set for validation.
func (s *Session) ObserveRead(table string, files []bigmeta.FileEntry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state != stateActive {
		return
	}
	s.readTables[table] = true
	set := s.reads[table]
	if set == nil {
		set = make(map[string]bool, len(files))
		s.reads[table] = set
	}
	for _, f := range files {
		set[f.Key] = true
	}
}

// --- statement execution ---

// newCtx builds a per-statement query context bound to this session.
func (s *Session) newCtx(tag string) *engine.QueryContext {
	s.mu.Lock()
	s.stmtSeq++
	seq := s.stmtSeq
	s.mu.Unlock()
	ctx := engine.NewContext(s.Principal, fmt.Sprintf("%s-%s%02d", s.ID, tag, seq))
	ctx.Txn = s
	ctx.Mutator = s
	ctx.Deadline = s.Deadline
	if s.trace != nil {
		ctx.Trace = s.trace
		ctx.Span = s.root
	}
	return ctx
}

// Exec parses and executes one SQL statement inside the transaction.
// BEGIN is rejected (no nesting); COMMIT and ROLLBACK resolve the
// session and return a one-row status batch.
func (s *Session) Exec(sql string) (*engine.Result, error) {
	stmt, _, err := s.m.Eng.Parse(sql)
	if err != nil {
		return nil, err
	}
	return s.ExecStmt(nil, stmt)
}

// ExecStmt executes a parsed statement inside the transaction. A nil
// ctx derives a session-tagged context; a caller-supplied one (the
// serve layer passes a context whose retry budget it can cancel) is
// bound to the session — its Txn/Mutator hooks are overwritten — so
// reads pin to the snapshot and DML lands in the write buffer.
func (s *Session) ExecStmt(ctx *engine.QueryContext, stmt sqlparse.Statement) (*engine.Result, error) {
	switch stmt.(type) {
	case *sqlparse.BeginStmt:
		return nil, ErrNested
	case *sqlparse.CommitStmt:
		v, err := s.Commit(ctx)
		if err != nil {
			return nil, err
		}
		out := vector.MustBatch(vector.NewSchema(vector.Field{Name: "commit_version", Type: vector.Int64}),
			[]*vector.Column{vector.NewInt64Column([]int64{v})})
		return &engine.Result{Batch: out}, nil
	case *sqlparse.RollbackStmt:
		if err := s.Rollback(); err != nil {
			return nil, err
		}
		out := vector.MustBatch(vector.NewSchema(vector.Field{Name: "rolled_back", Type: vector.Bool}),
			[]*vector.Column{vector.NewBoolColumn([]bool{true})})
		return &engine.Result{Batch: out}, nil
	}
	s.mu.Lock()
	closed := s.state != stateActive
	s.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	if ctx == nil {
		ctx = s.newCtx("s")
	} else {
		ctx.Txn = s
		ctx.Mutator = s
	}
	return s.m.Eng.Execute(ctx, stmt)
}

// --- engine.Mutator: buffered writes ---

func (s *Session) managedTable(name string) (catalog.Table, *objstore.Store, objstore.Credential, error) {
	e := s.m.Eng
	t, err := e.Catalog.Table(name)
	if err != nil {
		return catalog.Table{}, nil, objstore.Credential{}, err
	}
	if t.Type != catalog.Managed && t.Type != catalog.Native {
		return catalog.Table{}, nil, objstore.Credential{}, fmt.Errorf("%w: %s is %v", blmt.ErrNotManaged, name, t.Type)
	}
	store, ok := e.Stores[t.Cloud]
	if !ok {
		return catalog.Table{}, nil, objstore.Credential{}, fmt.Errorf("txn: no object store for cloud %q", t.Cloud)
	}
	var cred objstore.Credential
	if t.Connection == "" {
		cred = e.ManagedCred
	} else {
		conn, err := e.Auth.Connection(t.Connection)
		if err != nil {
			return catalog.Table{}, nil, objstore.Credential{}, err
		}
		cred = conn.ServiceAccount
	}
	return t, store, cred, nil
}

func (s *Session) buf(table string) *tableBuf {
	b := s.bufs[table]
	if b == nil {
		b = &tableBuf{removed: make(map[string]bool)}
		s.bufs[table] = b
	}
	return b
}

// Insert buffers rows; nothing is written until COMMIT. Blind inserts
// record no reads, so insert-only transactions never conflict.
func (s *Session) Insert(ctx *engine.QueryContext, table string, rows *vector.Batch) error {
	t, _, _, err := s.managedTable(table)
	if err != nil {
		return err
	}
	aligned, err := blmt.AlignToSchema(rows, t.Schema)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state != stateActive {
		return ErrClosed
	}
	if aligned.N > 0 {
		s.buf(table).batches = append(s.buf(table).batches, aligned)
	}
	return nil
}

// CreateTableAs is a DDL+DML compound; it commits catalog state
// outside the log and cannot be made transactional here.
func (s *Session) CreateTableAs(ctx *engine.QueryContext, table string, orReplace bool, rows *vector.Batch) error {
	return fmt.Errorf("txn: CREATE TABLE AS is not supported inside a transaction")
}

// Delete buffers a copy-on-write delete: matching snapshot files are
// marked removed and their surviving rows re-buffered.
func (s *Session) Delete(ctx *engine.QueryContext, table string, where func(*vector.Batch) ([]bool, error)) (int64, error) {
	return s.rewrite(ctx, table, func(b *vector.Batch) (*vector.Batch, bool, error) {
		mask, err := where(b)
		if err != nil {
			return nil, false, err
		}
		if vector.CountMask(mask) == 0 {
			return nil, false, nil
		}
		kept, err := vector.Filter(b, vector.Not(mask))
		if err != nil {
			return nil, false, err
		}
		return kept, true, nil
	})
}

// Update buffers a copy-on-write update.
func (s *Session) Update(ctx *engine.QueryContext, table string, set func(*vector.Batch) (*vector.Batch, error), where func(*vector.Batch) ([]bool, error)) (int64, error) {
	var updated int64
	_, err := s.rewrite(ctx, table, func(b *vector.Batch) (*vector.Batch, bool, error) {
		mask, err := where(b)
		if err != nil {
			return nil, false, err
		}
		n := vector.CountMask(mask)
		if n == 0 {
			return nil, false, nil
		}
		updated += int64(n)
		transformed, err := set(b)
		if err != nil {
			return nil, false, err
		}
		merged, err := blmt.MergeMasked(b, transformed, mask)
		if err != nil {
			return nil, false, err
		}
		return merged, true, nil
	})
	if err != nil {
		return 0, err
	}
	return updated, nil
}

// rewrite applies a per-file transform over the session's view of the
// table: pinned snapshot files (minus already-rewritten ones) plus
// buffered batches. Touched files move into the removed set with their
// survivors re-buffered; touched buffered batches are replaced in
// place. The whole table's live file set enters the read set — an
// UPDATE/DELETE logically reads everything it scans.
func (s *Session) rewrite(ctx *engine.QueryContext, table string, transform func(*vector.Batch) (*vector.Batch, bool, error)) (int64, error) {
	t, store, cred, err := s.managedTable(table)
	if err != nil {
		return 0, err
	}
	e := s.m.Eng
	files, _, err := e.Log.Snapshot(table, s.snapshot)
	if err != nil {
		return 0, err
	}
	s.mu.Lock()
	if s.state != stateActive {
		s.mu.Unlock()
		return 0, ErrClosed
	}
	b := s.buf(table)
	live := make([]bigmeta.FileEntry, 0, len(files))
	for _, f := range files {
		if !b.removed[f.Key] {
			live = append(live, f)
		}
	}
	pending := append([]*vector.Batch(nil), b.batches...)
	s.mu.Unlock()

	s.ObserveRead(table, live)

	var affected int64
	var newRemoved []string
	var outs []*vector.Batch
	// The rewrite reads through the verified reader, with no cache and
	// no skipping: a quarantined or corrupt file fails the statement
	// typed, because leaving it out of a rewrite would lose its rows.
	rd := scan.Reader{Res: s.m.res(), Log: e.Log, Obs: e.Obs, Site: "scan"}
	src := scan.Source{Table: t, Store: store, Cred: cred, Budget: ctx.Budget, Principal: string(ctx.Principal)}
	for _, f := range live {
		sel, _, err := rd.ReadBatch(e.Clock, &src, f, nil, nil)
		if err != nil {
			return 0, err
		}
		batch := sel.Batch
		out, changed, err := transform(batch)
		if err != nil {
			return 0, err
		}
		if !changed {
			continue
		}
		affected += int64(batch.N)
		if out != nil {
			affected -= int64(out.N)
		}
		newRemoved = append(newRemoved, f.Key)
		if out != nil && out.N > 0 {
			outs = append(outs, out)
		}
	}
	// Buffered batches are this session's own uncommitted rows; the
	// transform rewrites them in place.
	replaced := make(map[int]*vector.Batch)
	for i, pb := range pending {
		out, changed, err := transform(pb)
		if err != nil {
			return 0, err
		}
		if !changed {
			continue
		}
		affected += int64(pb.N)
		if out != nil {
			affected -= int64(out.N)
		}
		replaced[i] = out
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state != stateActive {
		return 0, ErrClosed
	}
	b = s.buf(table)
	for _, k := range newRemoved {
		b.removed[k] = true
	}
	if len(replaced) > 0 {
		next := b.batches[:0]
		for i, pb := range b.batches {
			if out, ok := replaced[i]; ok {
				if out != nil && out.N > 0 {
					next = append(next, out)
				}
				continue
			}
			next = append(next, pb)
		}
		b.batches = next
	}
	b.batches = append(b.batches, outs...)
	return affected, nil
}

// --- commit protocol ---

// plannedFile is one data file the commit will materialize.
type plannedFile struct {
	table string
	t     catalog.Table
	store *objstore.Store
	cred  objstore.Credential
	batch *vector.Batch
	key   string
}

func sanitizeTxn(id string) string {
	out := []byte(id)
	for i, c := range out {
		if c == '/' || c == ':' {
			out[i] = '-'
		}
	}
	return string(out)
}

// writePlan derives the commit's deterministic data-file keys: tables
// in sorted order, batches in buffer order, a single global index.
// A recovered retry of the same transaction re-derives identical keys
// and overwrites its crashed predecessor's files.
func (s *Session) writePlan() ([]plannedFile, error) {
	tables := make([]string, 0, len(s.bufs))
	for tn, b := range s.bufs {
		if len(b.batches) > 0 || len(b.removed) > 0 {
			tables = append(tables, tn)
		}
	}
	sort.Strings(tables)
	var plan []plannedFile
	idx := 0
	for _, tn := range tables {
		t, store, cred, err := s.managedTable(tn)
		if err != nil {
			return nil, err
		}
		for _, batch := range s.bufs[tn].batches {
			key := fmt.Sprintf("%sdata/%s-%06d.blk", t.Prefix, sanitizeTxn(s.ID), idx)
			idx++
			plan = append(plan, plannedFile{table: tn, t: t, store: store, cred: cred, batch: batch, key: key})
		}
	}
	return plan, nil
}

// conflicts validates this session's read/write sets against one
// concurrently committed record (first-committer-wins OCC).
func (s *Session) conflicts(rec bigmeta.CommitRecord) error {
	if s.m.tc.validated != nil {
		s.m.tc.validated.Add(1)
	}
	for table, d := range rec.Deltas {
		if b := s.bufs[table]; b != nil && len(b.removed) > 0 {
			for _, k := range d.Removed {
				if b.removed[k] {
					return fmt.Errorf("%w: write-write on %s file %s (committed v%d)", ErrConflict, table, k, rec.Version)
				}
			}
		}
		if !s.readTables[table] {
			continue
		}
		if len(d.Added) > 0 {
			return fmt.Errorf("%w: read-write phantom on %s (v%d added %d files)", ErrConflict, table, rec.Version, len(d.Added))
		}
		rf := s.reads[table]
		for _, k := range d.Removed {
			if rf[k] {
				return fmt.Errorf("%w: read-write on %s file %s (committed v%d)", ErrConflict, table, k, rec.Version)
			}
		}
	}
	return nil
}

// commitSpan opens the named child span under the session's root (or
// the caller's span when the session is untraced).
func (s *Session) commitSpan(ctx *engine.QueryContext, name string) *obs.Span {
	if s.root != nil {
		return s.root.ChildAt(s.m.Eng.Clock, name)
	}
	if ctx != nil && ctx.Span != nil {
		return ctx.Span.ChildAt(s.m.Eng.Clock, name)
	}
	return nil
}

// Commit runs the multi-table commit protocol. ctx may be nil (a
// context is derived from the session); when given, its deadline and
// retry budget govern the protocol's object I/O.
//
// Protocol: AppliedTx replay check → cheap pre-validation (a doomed
// transaction aborts before writing anything durable) → journal intent
// covering every planned key → data PUTs at txn-derived keys → sealed
// validate-and-commit under the log mutex (CommitTxIf). A conflict
// discovered at seal time aborts the intent so GC reclaims the debris
// eagerly.
func (s *Session) Commit(ctx *engine.QueryContext) (int64, error) {
	s.mu.Lock()
	switch s.state {
	case stateCommitted:
		v := s.version
		s.mu.Unlock()
		return v, nil
	case stateAborted:
		s.mu.Unlock()
		return 0, ErrClosed
	}
	s.mu.Unlock()

	m := s.m
	e := m.Eng
	if ctx == nil {
		ctx = s.newCtx("commit")
	}
	if ctx.Budget == nil {
		ctx.Budget = resilience.NewBudget(e.Clock, engine.QueryRetryBudget, resilience.Seed64(s.ID))
		if ctx.Deadline > 0 {
			ctx.Budget.SetDeadline(e.Clock.Now() + ctx.Deadline)
		}
	}
	sp := s.commitSpan(ctx, "txn.commit")
	defer sp.End()
	// Whatever slice of the query's retry budget this commit's I/O
	// consumes (transient PUT/seal faults absorbed by the resilience
	// policy) is the transaction layer's retry pressure.
	if m.tc.retries != nil && ctx.Budget != nil {
		before := ctx.Budget.Remaining()
		defer func() {
			if spent := before - ctx.Budget.Remaining(); spent > 0 {
				m.tc.retries.Add(int64(spent))
			}
		}()
	}

	// A crashed predecessor may already have sealed this transaction:
	// replaying its COMMIT is an exact no-op returning the original
	// version.
	if v, ok := e.Log.AppliedTx(s.ID); ok {
		if m.tc.replays != nil {
			m.tc.replays.Add(1)
		}
		s.finish(stateCommitted, v)
		sp.SetInt("replayed", 1)
		return v, nil
	}

	s.mu.Lock()
	plan, err := s.writePlan()
	s.mu.Unlock()
	if err != nil {
		return 0, s.abortWith(ctx, abortFault, err)
	}

	// Read-only transactions commit at their snapshot: nothing to
	// validate (snapshot isolation already made them consistent) and
	// nothing to write.
	readOnly := true
	for _, b := range s.bufs {
		if len(b.batches) > 0 || len(b.removed) > 0 {
			readOnly = false
			break
		}
	}
	if readOnly {
		if m.tc.commitsRO != nil {
			m.tc.commitsRO.Add(1)
		}
		s.observePinAge()
		s.finish(stateCommitted, s.snapshot)
		return s.snapshot, nil
	}

	// Cheap pre-validation: most conflicts are caught here, before the
	// transaction has written a single durable byte, so aborts cost
	// nothing but the session's buffered memory.
	vsp := s.commitSpan(ctx, "txn.validate")
	s.mu.Lock()
	var preErr error
	for _, rec := range e.Log.Since(s.snapshot) {
		if preErr = s.conflicts(rec); preErr != nil {
			break
		}
	}
	s.mu.Unlock()
	vsp.End()
	if preErr != nil {
		return 0, s.abortWith(ctx, abortConflict, preErr)
	}
	if err := ctx.Budget.CheckDeadline(e.Clock); err != nil {
		return 0, s.abortWith(ctx, abortDeadline, err)
	}

	// Durable intent: every key the commit may write, declared before
	// the first PUT, so recovery can enumerate (and GC) the debris of
	// a crash anywhere past this point.
	m.Crash.At("txn.before_intent")
	var intentSeq int64
	if m.Journal != nil {
		keys := make([]string, len(plan))
		for i, p := range plan {
			keys[i] = p.key
		}
		isp := s.commitSpan(ctx, "txn.intent")
		err := m.res().Do(e.Clock, ctx.Budget, "INTENT "+s.ID, func() error {
			var ie error
			intentSeq, ie = m.Journal.AppendIntent(s.ID, string(s.Principal), keys)
			return ie
		})
		isp.End()
		if err != nil {
			return 0, s.abortIOErr(ctx, err)
		}
		s.mu.Lock()
		s.intentSeq = intentSeq
		s.mu.Unlock()
	}
	m.Crash.At("txn.after_intent")

	// Data PUTs at deterministic keys. Each write retries under the
	// resilience policy against the commit's budget; chaos faults ride
	// the backoff, fatal errors abort.
	psp := s.commitSpan(ctx, "txn.put")
	deltas := make(map[string]bigmeta.TableDelta)
	for _, p := range plan {
		m.Crash.At("txn.before_put")
		entry, err := s.writeDataFile(ctx, p)
		if err != nil {
			psp.End()
			return 0, s.abortIOErr(ctx, err)
		}
		m.Crash.At("txn.after_put")
		d := deltas[p.table]
		d.Added = append(d.Added, entry)
		deltas[p.table] = d
	}
	psp.SetInt("files", int64(len(plan)))
	psp.End()
	s.mu.Lock()
	for tn, b := range s.bufs {
		if len(b.removed) == 0 {
			continue
		}
		d := deltas[tn]
		for k := range b.removed {
			d.Removed = append(d.Removed, k)
		}
		sort.Strings(d.Removed)
		deltas[tn] = d
	}
	s.mu.Unlock()

	// Seal: validation and the multi-table commit record happen
	// atomically under the log's single mutex — deadlock-free by
	// construction, no table lock ordering to get wrong. The journal's
	// before_seal/after_seal crash points fire inside.
	ssp := s.commitSpan(ctx, "txn.seal")
	var version int64
	err = m.res().Do(e.Clock, ctx.Budget, "SEAL "+s.ID, func() error {
		s.mu.Lock()
		defer s.mu.Unlock()
		v, se := e.Log.CommitTxIf(string(s.Principal),
			bigmeta.TxOptions{TxnID: s.ID, IntentSeq: intentSeq},
			deltas, s.snapshot, s.conflicts)
		if se != nil {
			return se
		}
		version = v
		return nil
	})
	ssp.End()
	if err != nil {
		if errors.Is(err, ErrConflict) {
			// Late conflict: the intent is already durable, so hand
			// the debris to GC eagerly with an abort record.
			return 0, s.abortWith(ctx, abortConflict, err)
		}
		return 0, s.abortIOErr(ctx, err)
	}
	m.Crash.At("txn.after_seal")

	if m.tc.commits != nil {
		m.tc.commits.Add(1)
		m.tc.tables.Add(int64(len(deltas)))
		m.tc.files.Add(int64(len(plan)))
	}
	s.observePinAge()
	sp.SetInt("version", version)
	sp.SetInt("tables", int64(len(deltas)))
	s.finish(stateCommitted, version)
	return version, nil
}

// writeDataFile materializes one planned batch, mirroring blmt's
// crash-consistent PUT (encode → retried PUT → footer stats).
func (s *Session) writeDataFile(ctx *engine.QueryContext, p plannedFile) (bigmeta.FileEntry, error) {
	file, err := colfmt.WriteFile(p.batch, colfmt.WriterOptions{})
	if err != nil {
		return bigmeta.FileEntry{}, err
	}
	var info objstore.ObjectInfo
	if err := s.m.res().Do(s.m.Eng.Clock, ctx.Budget, "PUT "+p.t.Bucket+"/"+p.key, func() error {
		var pe error
		info, pe = p.store.Put(p.cred, p.t.Bucket, p.key, file, "application/x-blk")
		return pe
	}); err != nil {
		return bigmeta.FileEntry{}, err
	}
	return bigmeta.NewFileEntry(p.t.Bucket, p.key, info, file)
}

// Rollback discards the session's buffered writes. It is cheap (no
// durable writes happened before COMMIT) and idempotent: rolling back
// a closed session is a no-op.
func (s *Session) Rollback() error {
	s.mu.Lock()
	if s.state != stateActive {
		s.mu.Unlock()
		return nil
	}
	s.mu.Unlock()
	s.recordAbort(abortExplicit)
	s.finish(stateAborted, 0)
	return nil
}

// abortIOErr classifies a commit-path I/O failure (deadline vs
// exhausted-retries fault) and aborts the session.
func (s *Session) abortIOErr(ctx *engine.QueryContext, err error) error {
	cause := abortFault
	if resilience.Classify(err) == resilience.Deadline {
		cause = abortDeadline
	}
	return s.abortWith(ctx, cause, err)
}

// abortWith aborts the session for the given cause, appending a
// journal abort record when an intent was already durable so GC
// reclaims the planned keys without waiting for recovery.
func (s *Session) abortWith(ctx *engine.QueryContext, cause string, err error) error {
	s.mu.Lock()
	intentSeq := s.intentSeq
	closed := s.state != stateActive
	s.mu.Unlock()
	if closed {
		return err
	}
	if intentSeq > 0 && s.m.Journal != nil {
		// Best-effort: if the abort record itself fails, recovery
		// still classifies the unsealed intent's keys as orphans.
		_ = s.m.res().Do(s.m.Eng.Clock, nil, "ABORT "+s.ID, func() error {
			return s.m.Journal.AppendAbort(s.ID, intentSeq)
		})
	}
	s.recordAbort(cause)
	s.finish(stateAborted, 0)
	return err
}

func (s *Session) recordAbort(cause string) {
	if c := s.m.tc.aborts[cause]; c != nil {
		c.Add(1)
	}
	if sp := s.commitSpan(nil, "txn.abort"); sp != nil {
		sp.SetStr("cause", cause)
		sp.End()
	}
}

func (s *Session) observePinAge() {
	if s.m.tc.pinAgeUS != nil {
		s.m.tc.pinAgeUS.Observe(int64((s.m.Eng.Clock.Now() - s.beganAt) / time.Microsecond))
	}
}

// finish closes the session exactly once, settling the active gauge
// and the trace.
func (s *Session) finish(state int, version int64) {
	s.mu.Lock()
	if s.state != stateActive {
		s.mu.Unlock()
		return
	}
	s.state = state
	s.version = version
	s.mu.Unlock()
	s.m.sessionDelta(-1)
	if s.trace != nil {
		s.trace.Finish()
	}
}

// Trace returns the session's span tree (nil without a Tracer).
func (s *Session) Trace() *obs.Trace { return s.trace }
