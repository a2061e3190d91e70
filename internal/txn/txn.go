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
	"biglake/internal/engine"
	"biglake/internal/objstore"
	"biglake/internal/obs"
	"biglake/internal/resilience"
	"biglake/internal/scan"
	"biglake/internal/security"
	"biglake/internal/sqlparse"
	"biglake/internal/vector"
)

// Errors surfaced by the transaction layer.
var (
	// ErrConflict is a first-committer-wins validation failure: a
	// transaction that committed after this session's snapshot touched
	// an overlapping read or write set. The session is aborted; retry
	// by beginning a new transaction. It is the log's sentinel, so an
	// autocommit UPDATE/DELETE, Optimize or Repair that loses the same
	// validation satisfies errors.Is(err, ErrConflict) too.
	ErrConflict = bigmeta.ErrConflict
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
// engine's catalog, authority, log, stores, and retry policy; COMMIT
// runs the log's one commit protocol (bigmeta.CommitFiles), the same
// one autocommit DML, Optimize and the Write API run, so a recovered
// process replays single-statement and multi-table commits through one
// code path.
type Manager struct {
	Eng *engine.Engine
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

// NewManager assembles a transaction manager around an engine,
// publishing txn.* metrics into the engine's registry.
func NewManager(eng *engine.Engine) *Manager {
	m := &Manager{Eng: eng}
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

// ExecStmt executes a parsed statement inside the transaction. BEGIN
// is rejected (no nesting); COMMIT and ROLLBACK resolve the session and
// return a one-row status batch. A nil ctx derives a session-tagged
// context; a caller-supplied one (the serve layer passes a context
// whose retry budget it can cancel) is bound to the session — its
// Txn/Mutator hooks are overwritten — so reads pin to the snapshot and
// DML lands in the write buffer.
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
	return blmt.ManagedTable(s.m.Eng.Catalog, s.m.Eng.Planner().Access, name)
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
	return s.rewrite(ctx, table, blmt.DeleteRows(where))
}

// Update buffers a copy-on-write update.
func (s *Session) Update(ctx *engine.QueryContext, table string, set func(*vector.Batch) (*vector.Batch, error), where func(*vector.Batch) ([]bool, error)) (int64, error) {
	return s.rewrite(ctx, table, blmt.UpdateRows(set, where))
}

// rewrite applies a per-file transform over the session's view of the
// table: pinned snapshot files (minus already-rewritten ones) plus
// buffered batches. Touched files move into the removed set with their
// survivors re-buffered; touched buffered batches are replaced in
// place. The whole table's live file set enters the read set — an
// UPDATE/DELETE logically reads everything it scans.
func (s *Session) rewrite(ctx *engine.QueryContext, table string, transform blmt.Transform) (int64, error) {
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

	// The rewrite reads through the verified reader, with no cache and
	// no skipping: a quarantined or corrupt file fails the statement
	// typed, because leaving it out of a rewrite would lose its rows.
	rd := scan.Reader{Res: s.m.res(), Log: e.Log, Obs: e.Obs, Site: "scan"}
	src := scan.Source{Table: t, Store: store, Cred: cred, Budget: ctx.Budget, Principal: string(ctx.Principal)}
	newRemoved, outs, affected, err := blmt.RewriteFiles(e.Clock, rd, &src, live, transform)
	if err != nil {
		return 0, err
	}
	// Buffered batches are this session's own uncommitted rows; the
	// transform rewrites them in place.
	replaced := make(map[int]*vector.Batch)
	for i, pb := range pending {
		out, n, err := transform(pb)
		if err != nil {
			return 0, err
		}
		if n == 0 {
			continue
		}
		affected += n
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

// writePlan derives the commit's data files at deterministic keys:
// tables in sorted order, batches in buffer order, a single global
// index. A recovered retry of the same transaction re-derives identical
// keys and overwrites its crashed predecessor's files.
func (s *Session) writePlan() ([]bigmeta.DataFile, error) {
	tables := make([]string, 0, len(s.bufs))
	for tn, b := range s.bufs {
		if len(b.batches) > 0 {
			tables = append(tables, tn)
		}
	}
	sort.Strings(tables)
	var plan []bigmeta.DataFile
	for _, tn := range tables {
		t, store, cred, err := s.managedTable(tn)
		if err != nil {
			return nil, err
		}
		for _, batch := range s.bufs[tn].batches {
			key := fmt.Sprintf("%sdata/%s-%06d.blk", t.Prefix, bigmeta.SanitizeKey(s.ID), len(plan))
			plan = append(plan, bigmeta.DataFile{Table: tn, Store: store, Cred: cred, Bucket: t.Bucket, Key: key, Batch: batch})
		}
	}
	return plan, nil
}

// footprint copies the session's read and write sets for validation.
func (s *Session) footprint() bigmeta.Footprint {
	fp := bigmeta.Footprint{
		Removed: make(map[string]map[string]bool, len(s.bufs)),
		Reads:   make(map[string]map[string]bool, len(s.reads)),
	}
	copySet := func(set map[string]bool) map[string]bool {
		out := make(map[string]bool, len(set))
		for k := range set {
			out[k] = true
		}
		return out
	}
	for tn, b := range s.bufs {
		if len(b.removed) > 0 {
			fp.Removed[tn] = copySet(b.removed)
		}
	}
	for tn, set := range s.reads {
		fp.Reads[tn] = copySet(set)
	}
	return fp
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

// Commit commits the transaction through the log's commit protocol.
// ctx may be nil (a context is derived from the session); when given,
// its deadline and retry budget govern the protocol's object I/O.
//
// bigmeta.CommitFiles does the work every committer shares: AppliedTx
// replay check → cheap pre-validation (a doomed transaction aborts
// before writing anything durable) → journal intent covering every
// planned key → data PUTs at txn-derived keys → sealed
// validate-and-commit under the log mutex, with an abort record on any
// clean failure past the intent so GC reclaims the debris eagerly. What
// is left here is the session's own: the read-only fast path, the
// read/write footprint, abort-cause classification, txn.* metrics and
// spans.
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
	fp := s.footprint()
	s.mu.Unlock()
	if err != nil {
		return 0, s.abortWith(abortFault, err)
	}

	// Read-only transactions commit at their snapshot: nothing to
	// validate (snapshot isolation already made them consistent) and
	// nothing to write.
	if len(plan) == 0 && len(fp.Removed) == 0 {
		if m.tc.commitsRO != nil {
			m.tc.commitsRO.Add(1)
		}
		s.observePinAge()
		s.finish(stateCommitted, s.snapshot)
		return s.snapshot, nil
	}

	removed := fp.RemovedKeys()
	version, err := e.Log.CommitFiles(bigmeta.Tx{
		ID: s.ID, Principal: string(s.Principal), Res: m.res(), Budget: ctx.Budget,
		Files: plan, Removed: removed,
		Since: s.snapshot,
		Check: func(rec bigmeta.CommitRecord) error {
			if m.tc.validated != nil {
				m.tc.validated.Add(1)
			}
			return fp.Conflicts(rec)
		},
		Span: func(stage string) *obs.Span { return s.commitSpan(ctx, "txn."+stage) },
	})
	if version == 0 && err != nil {
		cause := abortFault
		switch {
		case errors.Is(err, ErrConflict):
			cause = abortConflict
		case resilience.Classify(err) == resilience.Deadline:
			cause = abortDeadline
		}
		return 0, s.abortWith(cause, err)
	}

	tables := make(map[string]bool, len(removed))
	for tn := range removed {
		tables[tn] = true
	}
	for _, f := range plan {
		tables[f.Table] = true
	}
	if m.tc.commits != nil {
		m.tc.commits.Add(1)
		m.tc.tables.Add(int64(len(tables)))
		m.tc.files.Add(int64(len(plan)))
	}
	s.observePinAge()
	sp.SetInt("version", version)
	sp.SetInt("tables", int64(len(tables)))
	s.finish(stateCommitted, version)
	// A non-nil err here is the post-commit export failing after the
	// transaction sealed.
	return version, err
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

// abortWith aborts the session for the given cause. The journal abort
// record, when an intent was already durable, is the commit protocol's
// job and has been written by the time CommitFiles returns.
func (s *Session) abortWith(cause string, err error) error {
	if !s.Active() {
		return err
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
