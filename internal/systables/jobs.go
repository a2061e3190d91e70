package systables

import (
	"errors"
	"sync"
	"time"

	"biglake/internal/bigmeta"
	"biglake/internal/catalog"
	"biglake/internal/integrity"
	"biglake/internal/resilience"
	"biglake/internal/security"
)

// Terminal job states.
const (
	StateDone      = "done"      // statement executed, cursor drained or closed
	StateFailed    = "failed"    // execution or fetch returned an error
	StateCancelled = "cancelled" // cooperative cancellation
	StateShed      = "shed"      // rejected by admission control; never ran
)

// JobRecord is one finished (or shed) statement, built by
// engine.JobRecord whichever door the statement came through. Durations
// are sim time except Wall. Byte/row counts are this statement's alone.
type JobRecord struct {
	QueryID    string
	Principal  string
	SQL        string
	Kind       string // sqlparse.Kind: select/insert/.../begin
	Class      string // SLO class: point/olap/dml/txn
	State      string
	ErrorClass string // classified cause for failed/cancelled/shed
	AbortCause string // txn abort detail, if any

	Start         time.Duration // sim time execution (or shed) happened
	AdmissionWait time.Duration // queue wait before the grant (serve path)
	ExecSim       time.Duration // simulated execution time
	Wall          time.Duration // host wall-clock spent executing

	RowsScanned     int64
	BytesScanned    int64
	RowsReturned    int64
	BytesReturned   int64
	CacheHits       int64
	QuarantineSkips int64
}

// JobRing is a bounded, mutex-guarded ring of job records. Recording
// is O(1) and never blocks on anything but the ring's own mutex;
// Snapshot copies out under the same mutex and releases it before
// returning, so a scan holding the copy cannot deadlock a recorder.
type JobRing struct {
	mu    sync.Mutex
	buf   []JobRecord
	size  int
	next  int   // write position
	total int64 // records ever written
}

// NewJobRing returns a ring retaining the last capacity records.
func NewJobRing(capacity int) *JobRing {
	if capacity < 1 {
		capacity = 1
	}
	return &JobRing{buf: make([]JobRecord, capacity)}
}

// Record appends one record, evicting the oldest when full.
func (r *JobRing) Record(rec JobRecord) {
	r.mu.Lock()
	r.buf[r.next] = rec
	r.next = (r.next + 1) % len(r.buf)
	if r.size < len(r.buf) {
		r.size++
	}
	r.total++
	r.mu.Unlock()
}

// Snapshot returns the retained records, oldest first.
func (r *JobRing) Snapshot() []JobRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]JobRecord, 0, r.size)
	start := (r.next - r.size + len(r.buf)) % len(r.buf)
	for i := 0; i < r.size; i++ {
		out = append(out, r.buf[(start+i)%len(r.buf)])
	}
	return out
}

// Len returns the number of retained records.
func (r *JobRing) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.size
}

// Total returns the number of records ever written (retained or
// evicted) — the ring's monotonic sequence number.
func (r *JobRing) Total() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// ClassifyError buckets an execution error into the error_class
// vocabulary used by system.jobs. It is the one classifier: every job
// row, whichever door its statement came through, takes its class here.
func ClassifyError(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, bigmeta.ErrConflict):
		return "txn_conflict"
	case errors.Is(err, resilience.ErrQuotaExceeded):
		return "quota"
	case errors.Is(err, resilience.ErrCanceled):
		return "cancelled"
	case errors.Is(err, resilience.ErrDeadlineExceeded):
		return "deadline"
	case isOverload(err) != "":
		return isOverload(err)
	case errors.Is(err, integrity.ErrCorrupt):
		return "integrity"
	case errors.Is(err, security.ErrDenied):
		return "denied"
	case errors.Is(err, catalog.ErrNotFound):
		return "not_found"
	}
	return "error"
}

func isOverload(err error) string {
	var ov *resilience.OverloadError
	if errors.As(err, &ov) {
		if ov.Reason != "" {
			return "overload_" + ov.Reason
		}
		return "overload"
	}
	if errors.Is(err, resilience.ErrOverloaded) {
		return "overload"
	}
	return ""
}
