package storageapi

import (
	"fmt"

	"biglake/internal/bigmeta"
	"biglake/internal/catalog"
	"biglake/internal/security"
	"biglake/internal/vector"
)

func securityPrincipal(p string) security.Principal { return security.Principal(p) }

// WriteMode selects commit semantics for a write stream (§2.2.2).
type WriteMode int

// Write modes.
const (
	// CommittedMode makes rows visible as soon as each append returns
	// (real-time streaming).
	CommittedMode WriteMode = iota
	// PendingMode buffers rows until the stream is finalized and
	// explicitly committed (batch commit), enabling cross-stream
	// transactions.
	PendingMode
	// BufferedMode holds appended rows until the client advances the
	// flush offset with FlushRows; rows up to the flush point become
	// visible, later rows stay buffered.
	BufferedMode
)

func (m WriteMode) String() string {
	switch m {
	case PendingMode:
		return "PENDING"
	case BufferedMode:
		return "BUFFERED"
	}
	return "COMMITTED"
}

type writeStream struct {
	id        string
	table     string
	mode      WriteMode
	principal string
	rows      *vector.Batch
	offset    int64
	// flushed is the row offset already made visible (BufferedMode).
	flushed int64
	// flushSeq numbers this stream's successful flushes; data-file keys
	// derive from it, so a retried flush overwrites its own earlier
	// attempt instead of stranding it.
	flushSeq  int64
	finalized bool
	committed bool
}

// state snapshots the stream's durable fields for sealing inside a
// commit record; atOffset is the row offset the commit makes durable.
func (ws *writeStream) state(atOffset int64) bigmeta.StreamState {
	return bigmeta.StreamState{
		Table:     ws.table,
		Principal: ws.principal,
		Mode:      int(ws.mode),
		Offset:    atOffset,
		FlushSeq:  ws.flushSeq,
		Finalized: ws.finalized,
		Committed: ws.committed,
	}
}

// CreateWriteStream opens a write stream against a managed table.
func (s *Server) CreateWriteStream(principal, table string, mode WriteMode) (string, error) {
	if err := s.Auth.CheckWrite(securityPrincipal(principal), table); err != nil {
		return "", err
	}
	t, err := s.Catalog.Table(table)
	if err != nil {
		return "", err
	}
	if t.Type != catalog.Managed && t.Type != catalog.Native {
		return "", fmt.Errorf("storageapi: write streams require a managed table, %s is %v", table, t.Type)
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.wseq++
	id := fmt.Sprintf("writeStreams/%d", s.wseq)
	s.writes[id] = &writeStream{id: id, table: table, mode: mode, principal: principal}
	return id, nil
}

// RestoreStreams reinstalls durable write-stream state after a crash.
// Each restored stream resumes at exactly its last sealed offset:
// buffered-but-unflushed rows died with the process, so clients
// re-append from Offset; appends the crashed process already sealed
// answer ErrOffsetExists, which exactly-once clients treat as success.
func (s *Server) RestoreStreams(states map[string]bigmeta.StreamState) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	for id, st := range states {
		s.writes[id] = &writeStream{
			id:        id,
			table:     st.Table,
			mode:      WriteMode(st.Mode),
			principal: st.Principal,
			offset:    st.Offset,
			flushed:   st.Offset,
			flushSeq:  st.FlushSeq,
			finalized: st.Finalized,
			committed: st.Committed,
		}
		// Keep the ID allocator ahead of every restored stream so new
		// streams cannot collide with recovered ones.
		var n int
		if _, err := fmt.Sscanf(id, "writeStreams/%d", &n); err == nil && n > s.wseq {
			s.wseq = n
		}
	}
}

// AppendRows appends a batch at the given offset. Offsets provide
// exactly-once semantics: re-sending an already-applied offset is an
// idempotent no-op reporting ErrOffsetExists; appending beyond the end
// is ErrBadOffset. Pass offset -1 for "at end".
func (s *Server) AppendRows(streamID string, offset int64, rows *vector.Batch) (int64, error) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	ws, ok := s.writes[streamID]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNoStream, streamID)
	}
	if ws.finalized {
		return 0, fmt.Errorf("%w: %s", ErrFinalized, streamID)
	}
	if offset >= 0 {
		if offset < ws.offset {
			return ws.offset, fmt.Errorf("%w: offset %d already applied (next %d)", ErrOffsetExists, offset, ws.offset)
		}
		if offset > ws.offset {
			return ws.offset, fmt.Errorf("%w: offset %d beyond next %d", ErrBadOffset, offset, ws.offset)
		}
	}
	savedRows, savedOffset := ws.rows, ws.offset
	merged, err := vector.Concat([]*vector.Batch{ws.rows, rows})
	if err != nil {
		return ws.offset, err
	}
	ws.rows = merged
	ws.offset += int64(rows.N)
	s.sc.Load().appendedRows.Add(int64(rows.N))

	if ws.mode == CommittedMode {
		if err := s.flushStreamLocked(ws, ws.offset); err != nil {
			// Roll the append back entirely: a committed-mode append is
			// acked only once its rows are committed, so a failed flush
			// must leave the stream where the client left it — the retry
			// re-sends the same offset and succeeds rather than colliding
			// with ErrOffsetExists over rows that never became visible.
			ws.rows, ws.offset = savedRows, savedOffset
			return ws.offset, err
		}
	}
	return ws.offset, nil
}

// dataFile plans ws's buffered rows as the data file name under its
// table's data/ prefix, written under the table's credential.
func (s *Server) dataFile(ws *writeStream, name string) (bigmeta.DataFile, error) {
	t, err := s.Catalog.Table(ws.table)
	if err != nil {
		return bigmeta.DataFile{}, err
	}
	store, cred, err := s.planner().Resolve(t)
	return bigmeta.DataFile{Table: ws.table, Store: store, Cred: cred, Bucket: t.Bucket,
		Key: fmt.Sprintf("%sdata/%s.blk", t.Prefix, name), Batch: ws.rows}, err
}

// flushStreamLocked commits buffered rows as one data file through the
// log's commit protocol (bigmeta.CommitFiles: journal intent → data
// PUT → sealed commit), sealing the stream's durable state (offset
// atOffset, next flush sequence) in the same commit record. The
// data-file key derives from the stream's flush sequence, so a retried
// flush overwrites its own earlier attempt; a flush that dies between
// PUT and seal leaves one orphan the journal intent has already
// declared for GC.
func (s *Server) flushStreamLocked(ws *writeStream, atOffset int64) error {
	if ws.rows == nil || ws.rows.N == 0 {
		return nil
	}
	txnID := fmt.Sprintf("%s:f%d", ws.id, ws.flushSeq)
	if _, done := s.Log.AppliedTx(txnID); !done {
		file, err := s.dataFile(ws, fmt.Sprintf("%s-f%06d", bigmeta.SanitizeKey(ws.id), ws.flushSeq))
		if err != nil {
			return err
		}
		sealed := ws.state(atOffset)
		sealed.FlushSeq = ws.flushSeq + 1 // the retried flush mints the next key
		if _, err := s.Log.CommitFiles(bigmeta.Tx{
			ID: txnID, Principal: ws.principal, Res: s.Res,
			Files:   []bigmeta.DataFile{file},
			Streams: map[string]bigmeta.StreamState{ws.id: sealed},
		}); err != nil {
			return err
		}
	}
	// Sealed now, or by a crashed predecessor of this exact flush.
	ws.rows = nil
	ws.flushSeq++
	return nil
}

// FlushRows makes a buffered stream's rows visible up to offset
// (exclusive). Flushing at or behind the current flush point is a
// no-op; flushing beyond the appended rows is an error. Returns the
// new flush offset.
func (s *Server) FlushRows(streamID string, offset int64) (int64, error) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	ws, ok := s.writes[streamID]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNoStream, streamID)
	}
	if ws.mode != BufferedMode {
		return 0, fmt.Errorf("storageapi: FlushRows requires a BUFFERED stream, %s is %v", streamID, ws.mode)
	}
	if offset > ws.offset {
		return ws.flushed, fmt.Errorf("%w: flush offset %d beyond appended %d", ErrBadOffset, offset, ws.offset)
	}
	if offset <= ws.flushed {
		return ws.flushed, nil
	}
	// Materialize rows [flushed, offset) as one visible file. The
	// buffered batch holds rows starting at ws.flushed.
	n := int(offset - ws.flushed)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	cols := make([]*vector.Column, len(ws.rows.Cols))
	for i, c := range ws.rows.Cols {
		cols[i] = vector.GatherWith(vector.Mem{}, c, idx)
	}
	visible, err := vector.NewBatch(ws.rows.Schema, cols)
	if err != nil {
		return ws.flushed, err
	}
	rest := ws.rows.N - n
	restIdx := make([]int, rest)
	for i := range restIdx {
		restIdx[i] = n + i
	}
	restCols := make([]*vector.Column, len(ws.rows.Cols))
	for i, c := range ws.rows.Cols {
		restCols[i] = vector.GatherWith(vector.Mem{}, c, restIdx)
	}
	remaining, err := vector.NewBatch(ws.rows.Schema, restCols)
	if err != nil {
		return ws.flushed, err
	}
	saved := ws.rows
	ws.rows = visible
	if err := s.flushStreamLocked(ws, offset); err != nil {
		ws.rows = saved
		return ws.flushed, err
	}
	ws.rows = remaining
	ws.flushed = offset
	return ws.flushed, nil
}

// FinalizeStream seals a stream against further appends and returns
// the final row offset. Finalizing an already-finalized stream is an
// idempotent no-op returning the same offset, and the caller's
// authority over the table is re-verified like every other stream RPC.
func (s *Server) FinalizeStream(streamID string) (int64, error) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	ws, ok := s.writes[streamID]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNoStream, streamID)
	}
	if err := s.Auth.CheckWrite(securityPrincipal(ws.principal), ws.table); err != nil {
		return 0, err
	}
	if ws.finalized {
		return ws.offset, nil
	}
	ws.finalized = true
	return ws.offset, nil
}

// BatchCommitStreams atomically commits a set of finalized pending
// streams into their table(s) — the cross-stream transaction of
// §2.2.2. Streams for different tables commit in one multi-table Big
// Metadata transaction. Committing an already-committed stream is an
// error; crash-safe clients that need a retryable commit use
// BatchCommitStreamsTx.
func (s *Server) BatchCommitStreams(streamIDs []string) error {
	return s.batchCommit("", streamIDs)
}

// BatchCommitStreamsTx is BatchCommitStreams with a client-supplied
// idempotency ID: retrying after a crash or timeout is an exact no-op
// once the original commit sealed, so the transaction applies exactly
// once no matter how many times it is driven to completion.
func (s *Server) BatchCommitStreamsTx(txnID string, streamIDs []string) error {
	if txnID == "" {
		return fmt.Errorf("storageapi: BatchCommitStreamsTx requires a txn ID")
	}
	return s.batchCommit(txnID, streamIDs)
}

func (s *Server) batchCommit(txnID string, streamIDs []string) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()

	if _, done := s.Log.AppliedTx(txnID); done {
		// The original commit sealed before the caller heard the ack;
		// converge local stream state and succeed idempotently.
		for _, id := range streamIDs {
			if ws, ok := s.writes[id]; ok {
				ws.committed = true
				ws.rows = nil
			}
		}
		return nil
	}

	// Validate every stream before touching the store, so a bad stream
	// ID midway can no longer strand earlier PUTs. Keys are
	// deterministic per stream, so a crashed attempt's files are
	// overwritten by the retry.
	principal := ""
	var prepared []*writeStream
	var files []bigmeta.DataFile
	streams := map[string]bigmeta.StreamState{}
	for _, id := range streamIDs {
		ws, ok := s.writes[id]
		if !ok {
			return fmt.Errorf("%w: %s", ErrNoStream, id)
		}
		if !ws.finalized {
			return fmt.Errorf("storageapi: stream %s must be finalized before commit", id)
		}
		if ws.committed {
			if txnID != "" {
				continue // an already-durable member of this transaction
			}
			return fmt.Errorf("storageapi: stream %s already committed", id)
		}
		if ws.mode != PendingMode {
			return fmt.Errorf("storageapi: stream %s is %v, not PENDING", id, ws.mode)
		}
		principal = ws.principal
		prepared = append(prepared, ws)
		sealed := ws.state(ws.offset)
		sealed.Committed = true // committed iff the seal below lands
		streams[ws.id] = sealed
		if ws.rows == nil || ws.rows.N == 0 {
			continue
		}
		file, err := s.dataFile(ws, bigmeta.SanitizeKey(ws.id))
		if err != nil {
			return err
		}
		files = append(files, file)
	}

	// One multi-table transaction through the log's commit protocol
	// seals the data files and every stream's committed state
	// atomically.
	if len(files) > 0 {
		if _, err := s.Log.CommitFiles(bigmeta.Tx{
			ID: txnID, Principal: principal, Res: s.Res,
			Files: files, Streams: streams,
		}); err != nil {
			return err
		}
	}
	for _, ws := range prepared {
		ws.committed = true
		ws.rows = nil
	}
	return nil
}
