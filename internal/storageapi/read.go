// Package storageapi implements the BigQuery Storage APIs of §2.2: the
// Read API (CreateReadSession/ReadRows with parallel streams, filter
// pushdown, column projection, snapshot reads, dynamic stream
// splitting, table statistics, and optional aggregate pushdown) and
// the Write API (multi-stream append with exactly-once offsets,
// pending/committed modes, and cross-stream atomic commits).
//
// The Read API is the trust boundary of §3.2: every batch has row
// policies, column ACLs and masking applied *before* it is serialized
// to the (untrusted) external engine. A read session is a scan.Plan —
// what the engine's own scans are built on — with its files partitioned
// into streams (DESIGN.md "Who owns what").
package storageapi

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"biglake/internal/bigmeta"
	"biglake/internal/catalog"
	"biglake/internal/colfmt"
	"biglake/internal/objstore"
	"biglake/internal/obs"
	"biglake/internal/resilience"
	"biglake/internal/scan"
	"biglake/internal/security"
	"biglake/internal/sim"
	"biglake/internal/vector"
)

// Errors returned by the storage APIs.
var (
	ErrNoSession    = errors.New("storageapi: no such read session")
	ErrNoStream     = errors.New("storageapi: no such stream")
	ErrEndOfStream  = errors.New("storageapi: end of stream")
	ErrOffsetExists = errors.New("storageapi: rows at offset already appended")
	ErrBadOffset    = errors.New("storageapi: unexpected append offset")
	ErrFinalized    = errors.New("storageapi: stream finalized")
)

// SessionLatency models the server-side cost of creating a read
// session: enumerating/pruning files and persisting stream metadata to
// the small-state store ("expensive on the server side", §3.4).
const SessionLatency = 12 * time.Millisecond

// AggregateRequest asks the server to compute a partial aggregate
// instead of shipping rows (§3.4 future work: aggregate pushdown).
type AggregateRequest struct {
	Column string
	Kind   vector.AggKind
}

// ReadSessionRequest are the CreateReadSession parameters (§2.2.1).
type ReadSessionRequest struct {
	Table     string
	Principal security.Principal
	// Columns projects a subset (nil = all readable columns).
	Columns []string
	// Predicates are pushed-down row restrictions.
	Predicates []colfmt.Predicate
	// SnapshotVersion pins managed-table reads to a log version
	// (-1 = latest). BigLake tables read the current cache snapshot.
	SnapshotVersion int64
	// MaxStreams caps read parallelism (0 = server default).
	MaxStreams int
	// KeepEncodings retains dictionary/RLE encodings on the wire
	// (ablation A4).
	KeepEncodings bool
	// Aggregates, when set, turns the session into an aggregate
	// pushdown session.
	Aggregates []AggregateRequest
	// RowOriented selects the legacy row-oriented reader (the §3.4
	// first prototype; E2's baseline).
	RowOriented bool
}

// ReadSession is the session handle returned to clients.
type ReadSession struct {
	ID      string
	Table   string
	Schema  vector.Schema
	Streams []string
	// Stats carries Big Metadata table statistics for client-side
	// planning (§3.4: "We extended CreateReadSession to return data
	// statistics collected in Big Metadata").
	Stats bigmeta.TableStats
	// EstimatedRows is the post-pruning row estimate.
	EstimatedRows int64
	// Reused reports that an equivalent cached session was returned
	// instead of creating a new one (§3.4 future work: session reuse).
	Reused bool

	acq *acquisition // the acquisition Streams were minted for
}

// streamState is one live stream of one acquisition: the items it
// answers, in order, one per ReadRows (see session.items), and how many
// it has handed out.
type streamState struct {
	acq   *acquisition
	items [][]bigmeta.FileEntry
	next  int
}

// acquisition is one use of a session — one CreateReadSession, fresh or
// reused: the streams minted for it and the retry budget their reads
// share. It expires SessionTTL after it was opened.
type acquisition struct {
	budget *resilience.Budget
	// streams are the names minted for it: its streams, then its splits
	// in the order they were made (guarded by the session's mu).
	streams []string
}

// session is what every acquisition of one request shape shares: the
// plan, its partitioning and the projected schema, fixed at creation.
// Per-use state — streams, cursors, retry budget — is the
// acquisition's. Only live streams are stored: a stream's state goes
// once its last item has been served. The session goes (Server.reclaim)
// once its reuse window has closed and its last acquisition has
// expired, drained or not: a client that drained a stream still hears
// ErrEndOfStream from it until then.
type session struct {
	id, key string
	req     ReadSessionRequest
	schema  vector.Schema // projected, post-governance schema
	cols    []string      // the projection: schema's column names, in order
	// plan is the table read as resolved at creation: source, files,
	// and — renewed at every ReadRows — predicates and columns. It has
	// no budget: each ReadRows reads under its acquisition's.
	plan scan.Plan
	// items is, per stream, what it answers: a row stream's item is one
	// file, an aggregate session's first stream has one item, the whole
	// plan, and its other streams none. Each acquisition's streams start
	// over them; nothing writes them after creation.
	items [][][]bigmeta.FileEntry
	// expires closes the reuse window (creation + SessionTTL); held is
	// when the last acquisition opened expires. Both are guarded by the
	// server's mu.
	expires, held time.Duration

	mu       sync.Mutex
	acquired int // acquisitions opened
	minted   int // stream names minted: <id>/streams/0 .. minted-1
	streams  map[string]*streamState
}

// aggregate reports whether the session answers aggregates instead of
// rows (§3.4 future work: aggregate pushdown).
func (sess *session) aggregate() bool { return len(sess.req.Aggregates) > 0 }

// open opens an acquisition of the session: a retry budget of its own
// and fresh streams over the session's items, whose names it returns.
// The first acquisition's budget is seeded from the session ID, each
// later one's from the ID and its acquisition number.
func (sess *session) open(clock *sim.Clock) (*acquisition, []string) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	seed := resilience.Seed64(sess.id) ^ uint64(sess.acquired)*0x9E3779B97F4A7C15
	sess.acquired++
	acq := &acquisition{
		budget:  resilience.NewBudget(clock, sessionRetryBudget, seed),
		streams: make([]string, len(sess.items)),
	}
	for i, items := range sess.items {
		acq.streams[i] = sess.mint(acq, items)
	}
	return acq, acq.streams
}

// mint names a new stream of acq and stores it if it has items to
// answer — a stream with none has ended as it starts; the caller holds
// sess.mu.
func (sess *session) mint(acq *acquisition, items [][]bigmeta.FileEntry) string {
	name := sess.id + "/streams/" + strconv.Itoa(sess.minted)
	sess.minted++
	if len(items) > 0 {
		sess.streams[name] = &streamState{acq: acq, items: items}
	}
	return name
}

// missing is the answer for a stream name sess does not store:
// ErrEndOfStream if sess minted it (the stream has ended), ErrNoStream
// if it never did. The caller holds sess.mu.
func (sess *session) missing(name string) error {
	rest, ok := strings.CutPrefix(name, sess.id+"/streams/")
	if n, err := strconv.Atoi(rest); ok && err == nil && n >= 0 && n < sess.minted && strconv.Itoa(n) == rest {
		return ErrEndOfStream
	}
	return fmt.Errorf("%w: %s", ErrNoStream, name)
}

// Server is one region's Storage API frontend.
type Server struct {
	Catalog *catalog.Catalog
	Auth    *security.Authority
	Meta    *bigmeta.Cache
	Log     *bigmeta.Log
	Clock   *sim.Clock
	Stores  map[string]*objstore.Store
	// ManagedCred reads native tables.
	ManagedCred objstore.Credential
	// SessionTTL bounds read-session reuse (simulated time).
	SessionTTL time.Duration
	// Res is the retry/hedging policy for object-store reads and
	// write-path data-file puts. Nil behaves like resilience.NoRetry.
	Res *resilience.Policy

	// sc holds the server's registry and its "storageapi.*" counters;
	// UseObs swaps the whole struct atomically.
	sc atomic.Pointer[serverCounters]

	mu       sync.Mutex
	sessions map[string]*session
	cache    map[string]*session // request shape → the session it reuses
	seq      int
	wmu      sync.Mutex
	writes   map[string]*writeStream
	wseq     int
}

// serverCounters holds the server's registry (where its reader's
// "integrity.*" detections land) and its pre-resolved "storageapi.*"
// counters: a ReadRows pays atomic adds, never a map lookup.
type serverCounters struct {
	reg                             *obs.Registry
	sessionsCreated, sessionsReused *obs.Counter
	readRowsCalls, readRowsBytes    *obs.Counter
	appendedRows                    *obs.Counter
}

// NewServer assembles a Storage API server counting into the log's
// registry until UseObs points it at another.
func NewServer(cat *catalog.Catalog, auth *security.Authority, meta *bigmeta.Cache, log *bigmeta.Log, clock *sim.Clock, stores map[string]*objstore.Store) *Server {
	s := &Server{
		Catalog:    cat,
		Auth:       auth,
		Meta:       meta,
		Log:        log,
		Clock:      clock,
		Stores:     stores,
		SessionTTL: 10 * time.Minute,
		Res:        resilience.DefaultPolicy(),
		sessions:   make(map[string]*session),
		cache:      make(map[string]*session),
		writes:     make(map[string]*writeStream),
	}
	s.UseObs(log.Obs())
	return s
}

// UseObs points the server's "storageapi.*" counters and its reader's
// "integrity.*" and "resilience.*" counters at a shared registry in one
// atomic store, so it is safe with sessions in flight. Write-path
// commits count their retries in the log's registry.
func (s *Server) UseObs(r *obs.Registry) {
	if r == nil {
		return
	}
	s.sc.Store(&serverCounters{
		reg:             r,
		sessionsCreated: r.Counter("storageapi.sessions_created"),
		sessionsReused:  r.Counter("storageapi.sessions_reused"),
		readRowsCalls:   r.Counter("storageapi.readrows_calls"),
		readRowsBytes:   r.Counter("storageapi.readrows_bytes"),
		appendedRows:    r.Counter("storageapi.appended_rows"),
	})
}

// planner assembles the server's scan planner from its current fields.
// Its reader has no decoded-file cache and fails fast on a quarantined
// file; its integrity.* counters land in the server's registry.
func (s *Server) planner() scan.Planner {
	return scan.Planner{Meta: s.Meta, Clock: s.Clock,
		Access: scan.Access{Auth: s.Auth, Stores: s.Stores, ManagedCred: s.ManagedCred},
		Reader: scan.Reader{Res: s.Res, Log: s.Log, Obs: s.sc.Load().reg, Site: "scan"}}
}

// sessionKey is the request shape session reuse matches on, the stream
// cap included: a reused session keeps the streams it was cut into.
func sessionKey(req ReadSessionRequest) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s|%s|%v|%d|%v|%v|%v|%d", req.Table, req.Principal, req.Columns, req.SnapshotVersion, req.KeepEncodings, req.RowOriented, req.Aggregates, streamCap(req))
	preds := make([]string, len(req.Predicates))
	for i, p := range req.Predicates {
		preds[i] = p.String()
	}
	sort.Strings(preds)
	sb.WriteString(strings.Join(preds, "&"))
	return sb.String()
}

// DefaultStreams is the stream count when the caller does not specify
// one.
const DefaultStreams = 8

// streamCap is the request's stream cap, 0 resolved to DefaultStreams.
func streamCap(req ReadSessionRequest) int {
	if req.MaxStreams <= 0 {
		return DefaultStreams
	}
	return req.MaxStreams
}

// sessionRetryBudget bounds the total object-store retries one
// acquisition of a read session may spend across all its streams.
const sessionRetryBudget = 64

// CreateReadSession plans a consistent point-in-time read and returns
// stream handles (§2.2.1). Governance is resolved here: selecting a
// column the principal has no access to fails the whole session.
func (s *Server) CreateReadSession(req ReadSessionRequest) (*ReadSession, error) {
	if err := s.Auth.CheckRead(req.Principal, req.Table); err != nil {
		return nil, err
	}
	t, err := s.Catalog.Table(req.Table)
	if err != nil {
		return nil, err
	}

	// Session reuse from the cache (§3.4 future work) — same request
	// shape within the TTL returns the existing session. The acquisition
	// opens under the server lock, so no reclaim can take the session
	// between the lookup and its new streams.
	key := sessionKey(req)
	s.mu.Lock()
	if sess, now := s.cache[key], s.Clock.Now(); sess != nil && now <= sess.expires {
		sess.held = max(sess.held, now+s.SessionTTL)
		acq, streams := sess.open(s.Clock)
		s.mu.Unlock()
		s.sc.Load().sessionsReused.Add(1)
		return s.describe(sess, acq, streams, true), nil
	}
	s.mu.Unlock()

	if t.Type == catalog.External || t.Type == catalog.Object {
		return nil, fmt.Errorf("storageapi: table type %v not readable through the Read API", t.Type)
	}

	// Column-level security: fail early on denied columns. What is left
	// is the projected output schema (types may change under masking).
	cols := req.Columns
	if cols == nil {
		for _, f := range t.Schema.Fields {
			cols = append(cols, f.Name)
		}
	}
	schema, err := t.Schema.Select(cols)
	if err != nil {
		return nil, err
	}
	for i, d := range s.Auth.ColumnDecisionsFor(req.Principal, req.Table, cols) {
		if d.Denied {
			return nil, fmt.Errorf("%w: column %s.%s", security.ErrDenied, req.Table, d.Column)
		}
		if d.Mask != vector.MaskNone {
			schema.Fields[i].Type = vector.String
		}
	}

	// What a read decodes starts from the projection — or, for an
	// aggregate session, the columns it aggregates; nil is every column.
	var project scan.Columns
	switch {
	case len(req.Aggregates) > 0:
		project = scan.NewColumns(nil, t.Schema.Len())
		for _, a := range req.Aggregates {
			project.AddNamed(t.Schema, a.Column)
		}
	case req.Columns != nil:
		project = scan.ColumnsOf(t.Schema, cols...)
	}
	// A session reads a BigLake table's cache snapshot and never LISTs.
	plan, err := s.planner().Plan(scan.Request{
		Table: t, Principal: req.Principal, Project: project, Predicates: req.Predicates,
		Version: req.SnapshotVersion, Granularity: bigmeta.PruneFiles, MetadataCache: true,
	})
	if err != nil {
		return nil, err
	}

	// Partition files across streams, round robin.
	nStreams := streamCap(req)
	if nStreams > len(plan.Files) && len(plan.Files) > 0 {
		nStreams = len(plan.Files)
	}
	if nStreams == 0 {
		nStreams = 1
	}
	sess := &session{
		key:     key,
		req:     req,
		schema:  schema,
		cols:    cols,
		plan:    plan,
		items:   make([][][]bigmeta.FileEntry, nStreams),
		streams: make(map[string]*streamState),
	}
	if sess.aggregate() {
		sess.items[0] = [][]bigmeta.FileEntry{plan.Files}
	} else {
		for i := range plan.Files {
			sess.items[i%nStreams] = append(sess.items[i%nStreams], plan.Files[i:i+1:i+1])
		}
	}
	s.mu.Lock()
	now := s.Clock.Now()
	s.reclaim(now)
	s.seq++
	sess.id = fmt.Sprintf("sessions/%d", s.seq)
	sess.expires = now + s.SessionTTL
	sess.held = sess.expires
	s.sessions[sess.id] = sess
	s.cache[key] = sess
	acq, streams := sess.open(s.Clock)
	s.mu.Unlock()

	// Server-side session creation cost.
	s.Clock.Advance(SessionLatency)
	s.sc.Load().sessionsCreated.Add(1)
	return s.describe(sess, acq, streams, false), nil
}

// reclaim drops every session whose reuse window has closed by now and
// whose last acquisition has expired, with its cache entry; the caller
// holds s.mu. It runs when a session is created, so the sessions held
// are those of request shapes used within SessionTTL, and a handle to a
// dropped session answers ErrNoSession.
func (s *Server) reclaim(now time.Duration) {
	for id, sess := range s.sessions {
		if now > sess.expires && now > sess.held {
			delete(s.sessions, id)
			if s.cache[sess.key] == sess {
				delete(s.cache, sess.key)
			}
		}
	}
}

// describe builds the client handle for one acquisition of the session;
// streams are the names open minted for it.
func (s *Server) describe(sess *session, acq *acquisition, streams []string, reused bool) *ReadSession {
	stats := sess.plan.Stats()
	return &ReadSession{
		ID:            sess.id,
		Table:         sess.req.Table,
		Schema:        sess.schema,
		Streams:       streams,
		Stats:         stats,
		EstimatedRows: stats.Rows,
		Reused:        reused,
		acq:           acq,
	}
}

// session looks up a live session by ID.
func (s *Server) session(id string) (*session, error) {
	s.mu.Lock()
	sess, ok := s.sessions[id]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoSession, id)
	}
	return sess, nil
}

// ReadRows drains the next chunk of a stream, returning a wire-encoded
// batch. io semantics: (nil, ErrEndOfStream) once the stream is
// exhausted. Each call answers one item: a row stream's reads one
// file, applies pushdown predicates during the scan, enforces
// governance, projects, and serializes; an aggregate stream's folds
// the whole plan into one row.
func (s *Server) ReadRows(sessionID, streamName string) ([]byte, error) {
	return s.ReadRowsOn(s.Clock, sessionID, streamName)
}

// ReadRowsOn is ReadRows with latency charged to a parallel client
// track.
func (s *Server) ReadRowsOn(ch sim.Charger, sessionID, streamName string) ([]byte, error) {
	sess, err := s.session(sessionID)
	if err != nil {
		return nil, err
	}
	sess.mu.Lock()
	st, ok := sess.streams[streamName]
	if !ok {
		err := sess.missing(streamName)
		sess.mu.Unlock()
		return nil, err
	}
	if st.next >= len(st.items) { // its last item is being read
		sess.mu.Unlock()
		return nil, ErrEndOfStream
	}
	idx := st.next
	item := st.items[idx]
	st.next++
	last := st.next == len(st.items)
	sess.mu.Unlock()

	p, err := s.planner().Renew(&sess.plan)
	p.Budget = st.acq.budget
	var batch *vector.Batch
	switch {
	case err != nil:
	case sess.aggregate():
		batch, err = s.computeAggregates(ch, sess, &p, item)
	default:
		batch, err = s.readGoverned(ch, sess, &p, item[0])
	}
	if err != nil {
		// Roll the cursor back so the stream resumes at the failed item:
		// a client retrying the same ReadRows call after a transient
		// fault re-reads it rather than silently skipping it.
		sess.mu.Lock()
		if st.next == idx+1 {
			st.next = idx
		}
		sess.mu.Unlock()
		return nil, err
	}
	if last {
		// The stream has served its last item: its state goes, and its
		// name answers ErrEndOfStream from now on.
		sess.mu.Lock()
		delete(sess.streams, streamName)
		sess.mu.Unlock()
	}
	payload := vector.EncodeBatch(batch, sess.req.KeepEncodings)
	sc := s.sc.Load()
	sc.readRowsBytes.Add(int64(len(payload)))
	sc.readRowsCalls.Add(1)
	return payload, nil
}

// readGoverned reads one file through p — the session's plan, renewed
// by the caller, so predicates, columns and governance are the ones
// the policy now in force calls for — and projects inside the trust
// boundary: an aggregate session keeps every governed column it read,
// the others the session's columns.
func (s *Server) readGoverned(ch sim.Charger, sess *session, p *scan.Plan, file bigmeta.FileEntry) (*vector.Batch, error) {
	var batch *vector.Batch
	var err error
	if sess.req.RowOriented {
		_, err = p.Reader.Read(ch, &p.Source, file, func(data []byte, _ objstore.ObjectInfo) (err error) {
			batch, err = decodeRowOriented(data, p.Pushed, file.Partition, p.Table.Schema)
			return err
		})
	} else {
		// No cache, so the pushed predicates were applied during the
		// decode and the batch is the selection.
		var sel vector.Selection
		sel, _, err = p.Reader.ReadBatch(ch, &p.Source, file, p.Columns, nil, p.Pushed)
		batch = sel.Batch
	}
	if err != nil {
		return nil, err
	}

	// Governance: the Read API applies row filters and masking before
	// data leaves the boundary (§3.2).
	governed, err := p.Govern(batch)
	if err != nil || sess.aggregate() {
		return governed, err
	}
	return governed.Project(sess.cols)
}

// decodeRowOriented is the legacy pipeline (the §3.4 first prototype;
// E2's baseline): row-oriented reader, every column decoded, rows
// re-columnarized.
func decodeRowOriented(data []byte, preds []colfmt.Predicate, partition map[string]string, schema vector.Schema) (*vector.Batch, error) {
	footer, err := colfmt.ReadFooter(data)
	if err != nil {
		return nil, err
	}
	r, err := colfmt.RowReaderFor(data, footer, nil, scan.FilePredicates(footer.Schema(), preds))
	if err != nil {
		return nil, err
	}
	batch, err := r.ReadAllColumnar()
	if err != nil {
		return nil, err
	}
	return scan.InjectPartitionColumns(batch, partition, schema, nil)
}

// computeAggregates folds the governed rows of files — the renewed
// plan's, in plan order — through the engine's aggregate accumulators
// into one row: the answer the engine gives over the same rows, float
// sums included. COUNT over no row is 0; SUM, MIN and MAX over none
// are NULL.
func (s *Server) computeAggregates(ch sim.Charger, sess *session, p *scan.Plan, files []bigmeta.FileEntry) (*vector.Batch, error) {
	aggs := sess.req.Aggregates
	kinds := make([]vector.AggKind, len(aggs))
	for i, a := range aggs {
		kinds[i] = a.Kind
	}
	fold := vector.NewFold(vector.Mem{}, kinds)
	in := make([]*vector.Column, len(aggs))
	for _, f := range files {
		batch, err := s.readGoverned(ch, sess, p, f)
		if err != nil {
			return nil, err
		}
		for i, a := range aggs {
			if in[i] = batch.Column(a.Column); in[i] == nil {
				return nil, fmt.Errorf("storageapi: aggregate column %q not found", a.Column)
			}
		}
		if err := fold.Add(in); err != nil {
			return nil, err
		}
	}
	cols := fold.Finish()
	fields := make([]vector.Field, len(aggs))
	for i, a := range aggs {
		fields[i] = vector.Field{Name: fmt.Sprintf("%s_%s", strings.ToLower(a.Kind.String()), a.Column), Type: cols[i].Type}
	}
	return &vector.Batch{Schema: vector.Schema{Fields: fields}, Cols: cols, N: 1}, nil
}

// SplitStream divides a stream's remaining work in two for dynamic
// rebalancing (§2.2.1), returning the new stream's name.
func (s *Server) SplitStream(sessionID, streamName string) (string, error) {
	sess, err := s.session(sessionID)
	if err != nil {
		return "", err
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	st, ok := sess.streams[streamName]
	if !ok {
		return "", sess.missing(streamName)
	}
	if sess.aggregate() {
		return "", fmt.Errorf("storageapi: stream %s answers an aggregate once and cannot be split", streamName)
	}
	remaining := len(st.items) - st.next
	if remaining < 2 {
		return "", fmt.Errorf("storageapi: stream %s has too little work to split", streamName)
	}
	half := st.next + remaining/2
	name := sess.mint(st.acq, st.items[half:])
	st.items = st.items[:half]
	st.acq.streams = append(st.acq.streams, name)
	return name, nil
}

// ReadAll is a client convenience: drain every stream of an
// acquisition — its streams, then the splits made of them, each in the
// order it was minted — sequentially, and decode into one batch.
func (s *Server) ReadAll(rs *ReadSession) (*vector.Batch, error) {
	sess, err := s.session(rs.ID)
	if err != nil {
		return nil, err
	}
	var parts []*vector.Batch
	for i := 0; ; i++ {
		stream, ok := sess.streamOf(rs, i)
		if !ok {
			break
		}
		for {
			payload, err := s.ReadRows(rs.ID, stream)
			if errors.Is(err, ErrEndOfStream) {
				break
			}
			if err != nil {
				return nil, err
			}
			b, err := vector.DecodeBatch(payload)
			if err != nil {
				return nil, err
			}
			parts = append(parts, b)
		}
	}
	out, err := vector.Concat(parts)
	if out == nil && err == nil {
		out = vector.EmptyBatch(rs.Schema)
	}
	return out, err
}

// streamOf is the i-th stream minted for rs's acquisition (a handle
// built by hand has only its Streams), or false past the last.
func (sess *session) streamOf(rs *ReadSession, i int) (string, bool) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	names := rs.Streams
	if rs.acq != nil {
		names = rs.acq.streams
	}
	if i >= len(names) {
		return "", false
	}
	return names[i], true
}
