// Package resilience is the shared retry/backoff/hedging layer between
// BigLake's components and the object stores they consume. The paper
// assumes throughout (§3.3 Storage API, §3.5 BLMT) that the engine —
// not the user — absorbs the transient faults, throttling, and tail
// latency endemic to cloud object stores; this package centralizes that
// absorption so every consumer (query scans, read/write API sessions,
// metadata cache refresh, compaction, Iceberg snapshot export, omni
// cross-cloud transfers) applies one policy:
//
//   - capped exponential backoff with full jitter, charged to the
//     simulated clock (never wall-clock sleeps),
//   - a per-query retry budget plus a simulated-time deadline, so a
//     retry storm is bounded twice over,
//   - error classification separating retryable transients from
//     fatal errors, CAS conflicts (retryable only after a reload),
//     and deadline expiry,
//   - hedged requests for tail latency: if the primary attempt runs
//     past a threshold, a second attempt races it and the caller pays
//     the earlier finish time.
//
// All decisions are deterministic given the budget seed, so chaos runs
// reproduce exactly.
package resilience

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"biglake/internal/integrity"
	"biglake/internal/objstore"
	"biglake/internal/obs"
	"biglake/internal/sim"
)

// Sentinel errors introduced by the resilience layer itself.
var (
	// ErrDeadlineExceeded reports that a query's simulated-time
	// deadline passed; surfaced as its own class so callers can tell
	// "ran out of time retrying" from the underlying fault.
	ErrDeadlineExceeded = errors.New("resilience: query deadline exceeded")
	// ErrBudgetExhausted reports that the per-query retry budget was
	// spent. The wrapped cause remains visible to Classify.
	ErrBudgetExhausted = errors.New("resilience: retry budget exhausted")
	// ErrCanceled reports that the query's budget was cooperatively
	// canceled (Budget.Cancel); it classifies as Deadline so every
	// abort path treats a kill like an expired time budget.
	ErrCanceled = errors.New("resilience: query canceled")
	// ErrOverloaded is the sentinel all OverloadError values match:
	// admission control shed this request before it consumed capacity.
	// Retrying after OverloadError.RetryAfter is safe and expected.
	ErrOverloaded = errors.New("resilience: overloaded")
	// ErrQuotaExceeded rejects a tenant past its egress quota
	// (serve.QuotaError); retrying does not help until it is raised.
	ErrQuotaExceeded = errors.New("resilience: tenant egress quota exceeded")
)

// OverloadError is the typed "overloaded, retry later" error an
// admission controller returns instead of collapsing under load. It
// matches ErrOverloaded via errors.Is and carries a backoff hint.
type OverloadError struct {
	// Op names the shedding component, e.g. "serve.admission".
	Op string
	// Reason is the shed cause: "queue_full", "queue_wait",
	// "memory", or "concurrency".
	Reason string
	// RetryAfter is the suggested simulated-time backoff before the
	// caller resubmits; derived from observed service times so the
	// hint tracks actual drain rate.
	RetryAfter time.Duration
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("%s: %v (%s), retry after %v", e.Op, ErrOverloaded, e.Reason, e.RetryAfter)
}

// Is makes errors.Is(err, ErrOverloaded) true for every OverloadError.
func (e *OverloadError) Is(target error) bool { return target == ErrOverloaded }

// Class buckets an error by how the caller should react.
type Class int

// Error classes, from least to most recoverable.
const (
	// Fatal errors must surface immediately: access denied, missing
	// buckets/objects, malformed files.
	Fatal Class = iota
	// Retryable errors are transient backend faults worth retrying
	// with backoff.
	Retryable
	// CASConflict is a failed generation precondition: retrying the
	// identical write can never succeed, but reloading the current
	// generation and re-deriving the write can (DoCAS).
	CASConflict
	// Deadline means the query's time budget expired.
	Deadline
	// Corrupt means the bytes failed checksum or generation
	// verification. Blindly re-running the same read against the same
	// source is pointless when the stored copy itself rotted — and
	// under in-flight corruption a retry could *succeed silently*,
	// hiding a sick replica. Do surfaces Corrupt immediately; the
	// caller decides between an alternate source (fresh fetch bypassing
	// caches, a replica) and quarantine. Never retried in place.
	Corrupt
)

func (c Class) String() string {
	switch c {
	case Retryable:
		return "retryable"
	case CASConflict:
		return "cas-conflict"
	case Deadline:
		return "deadline"
	case Corrupt:
		return "corrupt"
	}
	return "fatal"
}

// Classify maps an error onto its resilience class. Deadline wins over
// the fault that was being retried when time ran out.
func Classify(err error) Class {
	switch {
	case errors.Is(err, ErrDeadlineExceeded), errors.Is(err, ErrCanceled):
		return Deadline
	case errors.Is(err, ErrOverloaded):
		return Retryable
	case errors.Is(err, objstore.ErrPreconditionFail):
		return CASConflict
	case errors.Is(err, objstore.ErrTransient):
		return Retryable
	case errors.Is(err, integrity.ErrCorrupt):
		return Corrupt
	default:
		return Fatal
	}
}

// Policy is a retry/hedging configuration. A nil *Policy behaves like
// NoRetry with hedging disabled, so call sites never need nil checks.
type Policy struct {
	// MaxAttempts bounds total tries per operation (first attempt
	// included). Values < 1 mean 1.
	MaxAttempts int
	// BaseBackoff/MaxBackoff/Multiplier shape capped exponential
	// backoff; each retry charges a full-jitter draw in [0, cur] of
	// simulated time.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	Multiplier  float64
	// HedgeAfter, when > 0, enables hedged requests in HedgedDo: if
	// the primary attempt's charged latency exceeds this threshold, a
	// second attempt is issued and the cheaper completion is paid.
	HedgeAfter time.Duration
}

// Counted is a policy bound to the registry that receives its
// "resilience.*" counters (retries, hedges, exhaustions). A Policy is
// pure configuration and holds no registry: the component that owns it
// binds it to its own registry at each use, so a policy swapped in by
// hand counts where the one it replaced did. The zero Counted behaves
// like NoRetry and counts nowhere.
type Counted struct {
	*Policy
	obs *obs.Registry
}

// Counting binds p (nil is NoRetry) to reg (nil counts nowhere).
func (p *Policy) Counting(reg *obs.Registry) Counted { return Counted{p, reg} }

// DefaultPolicy returns the production policy every component installs
// unless a test overrides it.
func DefaultPolicy() *Policy {
	return &Policy{
		MaxAttempts: 4,
		BaseBackoff: 10 * time.Millisecond,
		MaxBackoff:  2 * time.Second,
		Multiplier:  2,
		HedgeAfter:  150 * time.Millisecond,
	}
}

// NoRetry returns a policy that surfaces the first error unchanged —
// the pre-resilience behaviour, used by tests that assert raw fault
// propagation.
func NoRetry() *Policy { return &Policy{MaxAttempts: 1} }

// Budget is the per-query retry allowance: a bounded number of retries
// shared by every operation the query issues, plus an optional
// absolute simulated-time deadline. A nil *Budget means unlimited
// retries and no deadline (background work that polices itself via
// MaxAttempts).
type Budget struct {
	clock *sim.Clock

	mu       sync.Mutex
	rng      *sim.RNG
	retries  int
	deadline time.Duration // absolute sim time; 0 = none
	canceled bool
}

// NewBudget returns a budget of `retries` total retries for one query.
// seed drives the jitter sequence so runs are reproducible.
func NewBudget(clock *sim.Clock, retries int, seed uint64) *Budget {
	return &Budget{clock: clock, rng: sim.NewRNG(seed), retries: retries}
}

// SetDeadline sets the absolute simulated time after which every
// operation under this budget fails with ErrDeadlineExceeded.
func (b *Budget) SetDeadline(at time.Duration) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.deadline = at
	b.mu.Unlock()
}

// Cancel cooperatively kills the query: every subsequent deadline
// check — Policy.Do performs one at the top of each attempt — fails
// with ErrCanceled, so the query unwinds at its next object-store
// operation. Safe to call from a different goroutine than the one
// running the query, and idempotent.
func (b *Budget) Cancel() {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.canceled = true
	b.mu.Unlock()
}

// Remaining returns the unspent retry count.
func (b *Budget) Remaining() int {
	if b == nil {
		return -1
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.retries
}

// timeSource lets deadline checks read the frontier being charged —
// both *sim.Clock and *sim.Track satisfy it, so a parallel worker's
// private track counts against the deadline too.
type timeSource interface{ Now() time.Duration }

// CheckDeadline reports ErrCanceled if the budget was canceled, or
// ErrDeadlineExceeded if the budget's deadline has passed on ch's
// frontier (falling back to the global clock).
func (b *Budget) CheckDeadline(ch sim.Charger) error {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	d := b.deadline
	canceled := b.canceled
	b.mu.Unlock()
	if canceled {
		return ErrCanceled
	}
	if d <= 0 {
		return nil
	}
	var now time.Duration
	if ts, ok := ch.(timeSource); ok {
		now = ts.Now()
	} else if b.clock != nil {
		now = b.clock.Now()
	}
	if now >= d {
		return fmt.Errorf("%w: simulated time %v past deadline %v", ErrDeadlineExceeded, now, d)
	}
	return nil
}

// takeRetry consumes one retry; false means the budget is spent.
func (b *Budget) takeRetry() bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.retries <= 0 {
		return false
	}
	b.retries--
	return true
}

// jitter draws a full-jitter backoff in [0, max).
func (b *Budget) jitter(max time.Duration) time.Duration {
	if max <= 0 {
		return 0
	}
	if b == nil {
		return max / 2
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.rng == nil {
		return max / 2
	}
	return time.Duration(b.rng.Float64() * float64(max))
}

// Do runs op under the policy: retry on Retryable errors with capped
// full-jitter backoff charged to ch, bounded by MaxAttempts, the
// budget's retry count, and the budget's deadline. Fatal, CASConflict,
// and Deadline errors surface immediately. name tags error messages
// with the operation (e.g. "scan GET lake/part-1"). Every count is off
// the success path, so the cold by-name Add is enough.
func (c Counted) Do(ch sim.Charger, b *Budget, name string, op func() error) error {
	p := c.Policy
	max := 1
	var backoff, capB time.Duration
	mult := 2.0
	if p != nil {
		if p.MaxAttempts > 1 {
			max = p.MaxAttempts
		}
		backoff, capB = p.BaseBackoff, p.MaxBackoff
		if p.Multiplier > 1 {
			mult = p.Multiplier
		}
	}
	var lastErr error
	for attempt := 0; attempt < max; attempt++ {
		if err := b.CheckDeadline(ch); err != nil {
			if lastErr != nil {
				return fmt.Errorf("%s: %w (while retrying %w)", name, err, lastErr)
			}
			return fmt.Errorf("%s: %w", name, err)
		}
		err := op()
		if err == nil {
			if attempt > 0 {
				c.obs.Add("resilience.retry_successes", 1)
			}
			return nil
		}
		lastErr = err
		switch Classify(err) {
		case Retryable:
			// fall through to the backoff below
		case CASConflict:
			c.obs.Add("resilience.cas_conflicts", 1)
			return err
		case Deadline:
			return err
		case Corrupt:
			// Same-source retry is never the answer for bad bytes;
			// surface immediately so the caller can try an alternate
			// source or quarantine.
			c.obs.Add("resilience.corruption_detected", 1)
			return err
		default:
			c.obs.Add("resilience.fatal_errors", 1)
			return err
		}
		if attempt == max-1 {
			break
		}
		if !b.takeRetry() {
			c.obs.Add("resilience.budget_exhausted", 1)
			return fmt.Errorf("%s: %w: %w", name, ErrBudgetExhausted, err)
		}
		c.obs.Add("resilience.retries", 1)
		if d := b.jitter(backoff); d > 0 {
			ch.Charge(d)
		}
		backoff = time.Duration(float64(backoff) * mult)
		if capB > 0 && backoff > capB {
			backoff = capB
		}
	}
	c.obs.Add("resilience.retries_exhausted", 1)
	return fmt.Errorf("%s: retries exhausted: %w", name, lastErr)
}

// DoCAS runs a compare-and-swap commit loop: attempt is retried (via
// Do) for transient faults, and on a CAS conflict reload is called to
// re-read current state before the next attempt — the LakeVilla-style
// contention fix. Attempts are bounded by MaxAttempts.
func (c Counted) DoCAS(ch sim.Charger, b *Budget, name string, attempt func() error, reload func() error) error {
	p := c.Policy
	max := 1
	if p != nil && p.MaxAttempts > 1 {
		max = p.MaxAttempts
	}
	var lastErr error
	for i := 0; i < max; i++ {
		err := c.Do(ch, b, name, attempt)
		if err == nil {
			return nil
		}
		lastErr = err
		if Classify(err) != CASConflict {
			return err
		}
		if i == max-1 {
			break
		}
		c.obs.Add("resilience.cas_reloads", 1)
		if rerr := reload(); rerr != nil {
			return fmt.Errorf("%s: reload after CAS conflict: %w", name, rerr)
		}
	}
	return fmt.Errorf("%s: CAS attempts exhausted: %w", name, lastErr)
}

// probe accumulates latency charged by one attempt so HedgedDo can
// compare primary vs hedge completion times before charging the real
// frontier.
type probe struct {
	mu sync.Mutex
	d  time.Duration
}

func (pr *probe) Charge(d time.Duration) {
	if d > 0 {
		pr.mu.Lock()
		pr.d += d
		pr.mu.Unlock()
	}
}

func (pr *probe) total() time.Duration {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	return pr.d
}

// HedgedDo is Do for read-path operations with hedging: op receives
// the charger to bill its latency to. If the primary attempt's charged
// latency exceeds HedgeAfter (a tail event — e.g. an injected
// slowdown), a second attempt is issued and ch is charged
// min(primary, HedgeAfter+hedge), modelling two racing requests in
// simulated time. Errors still go through classification and retry.
//
// op may run twice (primary + hedge): it must publish its result only
// on success, so a failed hedge cannot clobber the primary's result.
func (c Counted) HedgedDo(ch sim.Charger, b *Budget, name string, op func(sim.Charger) error) error {
	p := c.Policy
	if p == nil || p.HedgeAfter <= 0 {
		return c.Do(ch, b, name, func() error { return op(ch) })
	}
	return c.Do(ch, b, name, func() error {
		pr := &probe{}
		err := op(pr)
		lat := pr.total()
		if err != nil {
			ch.Charge(lat)
			return err
		}
		if lat > p.HedgeAfter {
			c.obs.Add("resilience.hedges", 1)
			pr2 := &probe{}
			if err2 := op(pr2); err2 == nil {
				if hedged := p.HedgeAfter + pr2.total(); hedged < lat {
					c.obs.Add("resilience.hedge_wins", 1)
					lat = hedged
				}
			}
			// A failed hedge costs nothing extra: the primary already
			// succeeded and its latency stands.
		}
		ch.Charge(lat)
		return nil
	})
}

// ListAll drains every LIST page for a prefix with per-page retry —
// the resilient replacement for objstore.Store.ListAll.
func ListAll(c Counted, ch sim.Charger, b *Budget, store *objstore.Store, cred objstore.Credential, bucket, prefix string) ([]objstore.ObjectInfo, error) {
	var out []objstore.ObjectInfo
	token := ""
	for {
		var page objstore.ListPage
		err := c.Do(ch, b, "LIST "+bucket+"/"+prefix, func() error {
			var e error
			page, e = store.ListOn(ch, cred, bucket, prefix, token)
			return e
		})
		if err != nil {
			return nil, err
		}
		out = append(out, page.Objects...)
		if page.NextToken == "" {
			return out, nil
		}
		token = page.NextToken
	}
}

// Seed64 hashes a string (e.g. a query ID) into a budget seed.
func Seed64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
