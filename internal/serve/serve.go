// Package serve is the multi-tenant query service front end: long-
// lived sessions with an explicit parse → prepare → execute
// lifecycle, bounded-page result streaming, cooperative cancellation
// wired into engine retry budgets, and one open transaction session
// per principal. Every execution passes through admission control —
// memory-budgeted, concurrency-capped, weighted-fair across tenants —
// which sheds load with typed "overloaded, retry after" errors
// instead of collapsing, and accounts per-tenant quota and egress
// through the obs metrics registry.
package serve

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"biglake/internal/engine"
	"biglake/internal/obs"
	"biglake/internal/resilience"
	"biglake/internal/security"
	"biglake/internal/sqlparse"
	"biglake/internal/systables"
	"biglake/internal/txn"
	"biglake/internal/vector"
)

// Serve-layer sentinel errors.
var (
	// ErrServerClosed rejects work on a shut-down server.
	ErrServerClosed = errors.New("serve: server closed")
	// ErrSessionClosed rejects work on a closed session.
	ErrSessionClosed = errors.New("serve: session closed")
	// ErrTxnOpen rejects BEGIN while the principal already holds an
	// open transaction session (one per principal).
	ErrTxnOpen = errors.New("serve: principal already has an open transaction")
	// ErrNoTxn rejects COMMIT/ROLLBACK outside a transaction.
	ErrNoTxn = errors.New("serve: no open transaction")
)

// defaultTableCost is the admission cost charged for a referenced
// table with no metadata (external tables, empty tables).
const defaultTableCost = 256 << 10

// Server fronts one engine (and optionally one transaction manager)
// with sessions and admission control. Metrics flow into the engine's
// obs registry when one is installed.
type Server struct {
	eng  *engine.Engine
	txns *txn.Manager
	cfg  Config
	adm  *admitter
	c    serveCounters

	mu       sync.Mutex
	closed   bool
	sessSeq  int64
	sessions int
	sessMap  map[string]*Session
	// openTxns maps each principal to the session holding its one open
	// transaction, a client's or Exec's.
	openTxns map[security.Principal]*Session
}

// New builds a server over eng. txns may be nil: BEGIN then fails
// with the engine's no-transaction error.
func New(eng *engine.Engine, txns *txn.Manager, cfg Config) *Server {
	cfg = cfg.withDefaults()
	srv := &Server{
		eng:      eng,
		txns:     txns,
		cfg:      cfg,
		adm:      newAdmitter(cfg, eng.Obs),
		c:        resolveServeCounters(eng.Obs),
		sessMap:  map[string]*Session{},
		openTxns: map[security.Principal]*Session{},
	}
	// The server is the system-table provider's session source and SLO
	// configurator: system.sessions enumerates open sessions and
	// system.slo reports against these objectives.
	eng.Sys.ConfigureSLOs(cfg.SLOs)
	eng.Sys.SetSessions(srv.sessionRows)
	return srv
}

// sessionRows snapshots the open sessions for system.sessions. Session
// pointers are copied out under the server mutex first; each session's
// counters are then read under its own mutex (the same srv.mu → s.mu
// order beginTxn-free paths use, never the reverse).
func (s *Server) sessionRows() []systables.SessionRow {
	s.mu.Lock()
	open := make([]*Session, 0, len(s.sessMap))
	for _, sess := range s.sessMap {
		open = append(open, sess)
	}
	s.mu.Unlock()
	rows := make([]systables.SessionRow, 0, len(open))
	for _, sess := range open {
		sess.mu.Lock()
		rows = append(rows, systables.SessionRow{
			ID:        sess.ID,
			Principal: string(sess.Principal),
			Inflight:  int64(len(sess.inflight)),
			Queries:   sess.qseq,
			TxnOpen:   sess.txn != nil && sess.txn.Active(),
		})
		sess.mu.Unlock()
	}
	return rows
}

// Usage returns the per-tenant accounting snapshot.
func (s *Server) Usage() map[string]TenantUsage { return s.adm.usage() }

// Open starts a session for principal. name, when non-empty, prefixes
// the session ID (and thus every query ID) for stable tracing.
func (s *Server) Open(principal security.Principal, name string) (*Session, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrServerClosed
	}
	s.sessSeq++
	seq := s.sessSeq
	s.sessions++
	n := s.sessions
	if name == "" {
		name = "sess"
	}
	sess := &Session{
		srv:       s,
		ID:        fmt.Sprintf("%s-%d", name, seq),
		Principal: principal,
		inflight:  map[string]*engine.QueryContext{},
	}
	s.sessMap[sess.ID] = sess
	s.mu.Unlock()
	s.c.sessions.Set(int64(n))
	return sess, nil
}

// Exec runs one statement for principal with no client session — the
// door Lakehouse.Query is: the same parse → prepare → admit → execute →
// record sequence, under query ID qid, the result returned whole. It
// runs inside the transaction a previous Exec BEGIN left open, on the
// session holding it; otherwise on a session of its own.
func (s *Server) Exec(principal security.Principal, qid, sql string) (*engine.Result, error) {
	s.mu.Lock()
	closed, sess := s.closed, s.openTxns[principal]
	s.mu.Unlock()
	if closed {
		return nil, ErrServerClosed
	}
	if sess == nil || !sess.door {
		sess = &Session{srv: s, ID: qid, Principal: principal, door: true, inflight: map[string]*engine.QueryContext{}}
	}
	p, err := sess.Parse(sql)
	if err != nil {
		return nil, err
	}
	p.SetQueryID(qid)
	cur, err := p.Execute()
	if err != nil {
		return nil, err
	}
	return cur.whole(), nil
}

// Close shuts the server: existing sessions keep draining, new Opens
// fail.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
}

// Session is one client's stateful connection: a query-ID sequence,
// at most one open transaction, and the set of in-flight queries that
// Cancel kills.
type Session struct {
	srv       *Server
	ID        string
	Principal security.Principal
	door      bool // Exec's: no client holds it

	mu       sync.Mutex
	closed   bool
	qseq     int64
	shedSeq  int64
	txn      *txn.Session
	inflight map[string]*engine.QueryContext
}

// Parse runs phase one of the lifecycle: SQL text to AST. No engine
// or admission resources are touched.
func (s *Session) Parse(sql string) (*Prepared, error) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return nil, ErrSessionClosed
	}
	stmt, _, err := s.srv.eng.Parse(sql)
	if err != nil {
		return nil, err
	}
	return &Prepared{sess: s, sql: sql, stmt: stmt, kind: sqlparse.Kind(stmt)}, nil
}

// Query is the convenience path: parse, prepare, and execute in one
// blocking call.
func (s *Session) Query(sql string) (*Cursor, error) {
	p, err := s.Parse(sql)
	if err != nil {
		return nil, err
	}
	if err := p.Prepare(); err != nil {
		return nil, err
	}
	return p.Execute()
}

// Cancel cooperatively kills every in-flight query on the session:
// each one's retry budget collapses, so it unwinds at its next
// object-store operation or page fetch.
func (s *Session) Cancel() {
	s.mu.Lock()
	ctxs := make([]*engine.QueryContext, 0, len(s.inflight))
	for _, ctx := range s.inflight {
		ctxs = append(ctxs, ctx)
	}
	s.mu.Unlock()
	for _, ctx := range ctxs {
		s.srv.c.canceled.Add(1)
		ctx.Cancel()
	}
}

// Close cancels in-flight work, rolls back any open transaction, and
// retires the session.
func (s *Session) Close() error {
	s.Cancel()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	open := s.txn
	s.mu.Unlock()
	var err error
	if open != nil {
		s.clearTxn(open)
		if open.Active() {
			err = open.Rollback()
		}
	}
	s.srv.mu.Lock()
	s.srv.sessions--
	n := s.srv.sessions
	delete(s.srv.sessMap, s.ID)
	s.srv.mu.Unlock()
	s.srv.c.sessions.Set(int64(n))
	return err
}

// TxnOpen reports whether the session holds an open transaction.
func (s *Session) TxnOpen() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.txn != nil && s.txn.Active()
}

func (s *Session) trackInflight(qid string, ctx *engine.QueryContext) {
	s.mu.Lock()
	s.inflight[qid] = ctx
	s.mu.Unlock()
}

func (s *Session) removeInflight(qid string) {
	s.mu.Lock()
	delete(s.inflight, qid)
	s.mu.Unlock()
}

// Prepared is phase two's output: a parsed statement with resolved
// table references and an admission cost estimate.
type Prepared struct {
	sess *Session
	sql  string
	stmt sqlparse.Statement
	kind string

	prepared bool
	tables   []string
	cost     int64
	deadline time.Duration
	qid      string // optional caller-pinned query ID
}

// Kind returns the statement class ("select", "insert", ...).
func (p *Prepared) Kind() string { return p.kind }

// Tables returns the referenced tables resolved by Prepare.
func (p *Prepared) Tables() []string { return p.tables }

// Cost returns the admission cost estimate in bytes.
func (p *Prepared) Cost() int64 { return p.cost }

// SetDeadline overrides the server's per-query deadline for this
// statement only.
func (p *Prepared) SetDeadline(d time.Duration) { p.deadline = d }

// SetQueryID pins the query ID (and therefore the retry budget's
// jitter seed) instead of using the session sequence — the
// differential oracle pins it so served and direct execution retry
// identically.
func (p *Prepared) SetQueryID(id string) { p.qid = id }

// Prepare resolves referenced tables and estimates the admission cost
// as the statement's metadata-visible working set: the summed file
// bytes of each referenced table's latest snapshot, floored per table
// for metadata-less (external or empty) tables.
func (p *Prepared) Prepare() error {
	if p.prepared {
		return nil
	}
	s := p.sess
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return ErrSessionClosed
	}
	p.tables = sqlparse.ReferencedTables(p.stmt)
	cost := int64(minCost)
	for _, t := range p.tables {
		var bytes int64
		if files, _, err := s.srv.eng.Log.Snapshot(t, -1); err == nil && len(files) > 0 {
			for i := range files {
				bytes += files[i].Size
			}
		}
		if bytes == 0 {
			bytes = defaultTableCost
		}
		cost += bytes
	}
	p.cost = cost
	p.prepared = true
	return nil
}

// Execute is the blocking phase three: admission (queueing if the
// server is busy), then execution, returning a paged cursor. Overload
// surfaces as a typed resilience.OverloadError rather than queueing
// without bound.
func (p *Prepared) Execute() (*Cursor, error) {
	type outcome struct {
		cur *Cursor
		err error
	}
	ch := make(chan outcome, 1)
	p.ExecuteAt(p.sess.srv.eng.Clock.Now(), func(_ time.Duration, run func() (*Cursor, error), err error) {
		if err != nil {
			ch <- outcome{nil, err}
			return
		}
		cur, rerr := run()
		ch <- outcome{cur, rerr}
	})
	o := <-ch
	return o.cur, o.err
}

// ExecuteAt is the event-driven phase three used by the deterministic
// load harness: the statement is submitted to admission at (virtual)
// time now, and deliver is invoked exactly once — inline for an
// immediate grant or typed rejection, later for a queued ticket —
// with either an error or the grant time plus a run closure that
// performs the execution and returns its cursor.
func (p *Prepared) ExecuteAt(now time.Duration, deliver func(grantedAt time.Duration, run func() (*Cursor, error), err error)) {
	if !p.prepared {
		if err := p.Prepare(); err != nil {
			deliver(0, nil, err)
			return
		}
	}
	p.sess.srv.adm.submit(string(p.sess.Principal), p.cost, now, func(g *Grant, err error) {
		if err != nil {
			p.sess.recordShed(p, now, err)
			deliver(0, nil, err)
			return
		}
		deliver(g.grantedAt, func() (*Cursor, error) { return p.sess.runStatement(p, g) }, nil)
	})
}

// recordShed lands an admission rejection in system.jobs: the
// statement never ran, so the record carries a synthetic query ID
// (outside the q-sequence that seeds retry budgets) and zero resource
// counts.
func (s *Session) recordShed(p *Prepared, now time.Duration, cause error) {
	sys := s.srv.eng.Sys
	if !sys.Enabled() {
		return
	}
	s.mu.Lock()
	s.shedSeq++
	ctx := engine.NewContext(s.Principal, fmt.Sprintf("%s-shed%03d", s.ID, s.shedSeq))
	s.mu.Unlock()
	ctx.SQLText, ctx.Stats.SimStart = p.sql, now
	job := engine.JobRecord(ctx, p.stmt, nil, cause)
	job.State = systables.StateShed
	sys.RecordJob(job)
}

// runStatement executes an admitted statement. The grant is handed to
// the cursor on success and released here on every error path.
func (s *Session) runStatement(p *Prepared, g *Grant) (cur *Cursor, err error) {
	srv := s.srv
	defer func() {
		if err != nil {
			// Zero service time on errors: failed admissions should not
			// drag the retry-after EWMA toward zero or infinity.
			srv.adm.release(g, 0, g.grantedAt)
		}
	}()

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrSessionClosed
	}
	s.qseq++
	qid := p.qid
	if qid == "" {
		qid = fmt.Sprintf("%s-q%03d", s.ID, s.qseq)
	}
	open := s.txn
	s.mu.Unlock()

	wallStart := time.Now()
	ctx := engine.NewContext(s.Principal, qid)
	// The serve layer records the statement in system.jobs exactly once,
	// at cursor close (or on the error paths below), with admission wait
	// and egress attached — once the stream outcome is known.
	ctx.SQLText = p.sql
	// Seed the retry budget exactly as engine.Execute would, but
	// before execution starts, so Cancel from another goroutine works
	// and served execution retries identically to direct execution
	// (the differential oracle diffs the two).
	ctx.Budget = resilience.NewBudget(srv.eng.Clock, engine.QueryRetryBudget, resilience.Seed64(qid))
	deadline := srv.cfg.Deadline
	if p.deadline > 0 {
		deadline = p.deadline
	}
	if deadline > 0 {
		ctx.Deadline = deadline
		ctx.Budget.SetDeadline(srv.eng.Clock.Now() + deadline)
	}

	var tr *obs.Trace
	if srv.eng.Tracer != nil {
		tr = srv.eng.Tracer.Start(qid, srv.eng.Clock)
		root := tr.Root()
		root.SetStr("tenant", string(s.Principal))
		root.SetStr("kind", p.kind)
		adm := root.Child("admission")
		adm.SetInt("cost_bytes", g.cost)
		adm.SetInt("queue_wait_us", g.queuedFor.Microseconds())
		adm.End()
		ctx.Trace = tr
		ctx.Span = root
	}

	s.trackInflight(qid, ctx)
	var res *engine.Result
	if open != nil {
		res, err = open.ExecStmt(ctx, p.stmt)
		if !open.Active() {
			// COMMIT, ROLLBACK, or an abort closed the transaction.
			s.clearTxn(open)
		}
	} else {
		switch p.stmt.(type) {
		case *sqlparse.BeginStmt:
			res, err = s.beginTxn(ctx, qid)
		case *sqlparse.CommitStmt, *sqlparse.RollbackStmt:
			err = ErrNoTxn
		default:
			res, err = srv.eng.Execute(ctx, p.stmt)
		}
	}
	if tr != nil {
		tr.Finish()
	}
	if err != nil {
		s.removeInflight(qid)
		job := engine.JobRecord(ctx, p.stmt, nil, err)
		job.AdmissionWait = g.queuedFor
		job.Wall = time.Since(wallStart)
		srv.eng.Sys.RecordJob(job)
		return nil, err
	}
	batch := res.Batch
	if batch == nil {
		batch = vector.EmptyBatch(vector.Schema{})
	}
	// Cursors outlive the query: pages stream to the client long after
	// the engine has recycled the query's arena. The engine detaches
	// its own results, but the session boundary owns the lifetime
	// guarantee, so enforce it here too.
	batch = vector.DetachBatch(batch)
	return &Cursor{
		sess:      s,
		ctx:       ctx,
		grant:     g,
		stmt:      p.stmt,
		batch:     batch,
		page:      srv.cfg.PageRows,
		wallStart: wallStart,
	}, nil
}

// beginTxn opens the principal's transaction session, enforcing one
// open transaction per principal across all sessions.
func (s *Session) beginTxn(ctx *engine.QueryContext, qid string) (*engine.Result, error) {
	srv := s.srv
	if srv.txns == nil {
		// No transaction manager installed: surface the engine's error.
		return srv.eng.Execute(ctx, &sqlparse.BeginStmt{})
	}
	srv.mu.Lock()
	if _, dup := srv.openTxns[s.Principal]; dup {
		srv.mu.Unlock()
		return nil, ErrTxnOpen
	}
	ts := srv.txns.Begin(s.Principal, qid)
	srv.openTxns[s.Principal] = s
	n := len(srv.openTxns)
	srv.mu.Unlock()
	s.mu.Lock()
	s.txn = ts
	s.mu.Unlock()
	srv.c.txnOpen.Set(int64(n))
	out := vector.MustBatch(
		vector.NewSchema(vector.Field{Name: "txn_id", Type: vector.String}),
		[]*vector.Column{vector.NewStringColumn([]string{qid})})
	return &engine.Result{Batch: out}, nil
}

// clearTxn drops ts from the session and, with it, the session from the
// registry.
func (s *Session) clearTxn(ts *txn.Session) {
	s.mu.Lock()
	mine := s.txn == ts
	if mine {
		s.txn = nil
	}
	s.mu.Unlock()
	if !mine {
		return
	}
	srv := s.srv
	srv.mu.Lock()
	if srv.openTxns[s.Principal] == s {
		delete(srv.openTxns, s.Principal)
	}
	n := len(srv.openTxns)
	srv.mu.Unlock()
	srv.c.txnOpen.Set(int64(n))
}

// Cursor streams one query's result in bounded pages. The admission
// grant is held until Close (or CloseAt), so capacity accounting
// covers result delivery, not just execution.
type Cursor struct {
	sess      *Session
	ctx       *engine.QueryContext
	grant     *Grant
	stmt      sqlparse.Statement
	batch     *vector.Batch
	page      int
	wallStart time.Time

	mu        sync.Mutex
	off       int
	sentFirst bool
	closed    bool
	egress    int64
	failErr   error
}

// Egress returns the result bytes streamed so far.
func (c *Cursor) Egress() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.egress
}

// Next returns the next page of at most PageRows rows. The first page
// is always returned (possibly with zero rows) so the schema reaches
// the client; after exhaustion Next returns (nil, nil). A canceled or
// past-deadline query fails here, releasing its admission hold.
func (c *Cursor) Next() (*vector.Batch, error) {
	c.mu.Lock()
	if c.closed || (c.sentFirst && c.off >= c.batch.N) {
		c.mu.Unlock()
		return nil, nil
	}
	if err := c.ctx.Budget.CheckDeadline(c.sess.srv.eng.Clock); err != nil {
		c.failErr = err
		c.mu.Unlock()
		c.Close()
		return nil, fmt.Errorf("serve: result stream killed: %w", err)
	}
	n := c.batch.N - c.off
	if n > c.page {
		n = c.page
	}
	pg := c.batch // a result that fits one page, zero rows included, is its page
	if n < c.batch.N {
		sel, err := vector.Window(c.batch, c.off, c.off+n, nil)
		if err == nil {
			pg, err = vector.FilterConcatWith(vector.Mem{}, []vector.Selection{sel})
		}
		if err != nil {
			c.mu.Unlock()
			return nil, err
		}
	}
	c.off += n
	c.sentFirst = true
	c.egress += pageBytes(pg)
	c.mu.Unlock()
	c.sess.srv.c.pages.Add(1)
	return pg, nil
}

// All drains the cursor, reassembling the pages into one batch, and
// closes it.
func (c *Cursor) All() (*vector.Batch, error) {
	var pages []*vector.Batch
	for {
		pg, err := c.Next()
		if err != nil {
			return nil, err
		}
		if pg == nil {
			break
		}
		pages = append(pages, pg)
	}
	c.Close()
	b, err := vector.Concat(pages)
	if b == nil && err == nil {
		b = vector.EmptyBatch(vector.Schema{})
	}
	return b, err
}

// whole delivers the entire result unpaged and closes the cursor, every
// row counted as returned.
func (c *Cursor) whole() *engine.Result {
	c.mu.Lock()
	c.off, c.sentFirst, c.egress = c.batch.N, true, pageBytes(c.batch)
	c.mu.Unlock()
	c.Close()
	return &engine.Result{Batch: c.batch, Stats: c.ctx.Stats}
}

// Cancel cooperatively kills the query and its stream: in-flight
// engine work fails at its next budget check and the next Next
// returns the cancellation error.
func (c *Cursor) Cancel() {
	c.sess.srv.c.canceled.Add(1)
	c.ctx.Cancel()
}

// Close releases the cursor's admission hold and charges its egress
// to the tenant. Idempotent.
func (c *Cursor) Close() { c.CloseAt(c.sess.srv.eng.Clock.Now()) }

// CloseAt is Close with a caller-supplied release time — the
// deterministic load harness passes its virtual event-loop time so
// queue drains and service-time accounting stay on one time base.
func (c *Cursor) CloseAt(now time.Duration) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	egress := c.egress
	rows := int64(c.off)
	failErr := c.failErr
	c.mu.Unlock()
	c.sess.removeInflight(c.ctx.QueryID)
	c.sess.srv.adm.release(c.grant, egress, now)

	// Record the job now that the stream outcome is known, after every
	// lock above is released: the provider copies under its own locks
	// only, so a concurrent scan of system.jobs (even from this very
	// session) cannot deadlock.
	job := engine.JobRecord(c.ctx, c.stmt, nil, failErr)
	job.AdmissionWait = c.grant.queuedFor
	job.RowsReturned, job.BytesReturned = rows, egress
	job.Wall = time.Since(c.wallStart)
	c.sess.srv.eng.Sys.RecordJob(job)
}

// pageBytes estimates a page's wire size for egress accounting — same
// shape as the engine's scan-cache estimator.
func pageBytes(b *vector.Batch) int64 {
	var n int64
	for _, c := range b.Cols {
		n += int64(len(c.Ints))*8 + int64(len(c.Floats))*8 + int64(len(c.Bools)) +
			int64(len(c.Nulls)) + int64(len(c.Codes))*4 + int64(len(c.Runs))*8
		for _, s := range c.Strs {
			n += int64(len(s)) + 16
		}
	}
	return n
}

// Clock returns the server's simulated time so harnesses share its
// time base.
func (s *Server) Clock() time.Duration { return s.eng.Clock.Now() }
