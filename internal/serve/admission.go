package serve

import (
	"fmt"
	"sync"
	"time"

	"biglake/internal/obs"
	"biglake/internal/resilience"
	"biglake/internal/systables"
)

// ErrQuotaExceeded is resilience.ErrQuotaExceeded: every QuotaError
// matches it via errors.Is.
var ErrQuotaExceeded = resilience.ErrQuotaExceeded

// QuotaError rejects a submission from a tenant whose cumulative
// result egress exceeded its configured quota. Unlike an overload
// shed, retrying does not help until the quota is raised.
type QuotaError struct {
	Tenant string
	Quota  int64
	Used   int64
}

func (e *QuotaError) Error() string {
	return fmt.Sprintf("serve: tenant %q egress quota exceeded (%d of %d bytes)", e.Tenant, e.Used, e.Quota)
}

// Is makes errors.Is(err, ErrQuotaExceeded) true.
func (e *QuotaError) Is(target error) bool { return target == ErrQuotaExceeded }

// TenantConfig is one tenant's service contract.
type TenantConfig struct {
	// Weight sets the tenant's share of contended capacity — the fair
	// queue serves backlogged tenants in proportion to their weights.
	// Values <= 0 mean 1.
	Weight float64
	// EgressQuota, when > 0, caps the tenant's cumulative result bytes;
	// once exceeded, new submissions fail with QuotaError until the
	// quota is raised.
	EgressQuota int64
}

// Config tunes a Server and its admission controller. The zero value
// gets sensible defaults from withDefaults.
type Config struct {
	// MemoryBudget bounds the summed admission cost (estimated working
	// set bytes) of concurrently running queries. Default 256 MiB.
	MemoryBudget int64
	// MaxConcurrent caps concurrently executing queries. Default 16.
	MaxConcurrent int
	// MaxQueue bounds the admission queue; submissions beyond it are
	// shed with a typed queue_full overload error. Default
	// 4*MaxConcurrent.
	MaxQueue int
	// MaxQueueWait bounds how long a ticket may sit queued (in the
	// caller's time base — simulated time for the load harness) before
	// it is shed with a queue_wait overload error rather than served
	// stale. Default 2s.
	MaxQueueWait time.Duration
	// PageRows bounds each result page streamed by a Cursor. Default
	// 1024.
	PageRows int
	// Deadline, when > 0, bounds each query to that much simulated
	// time; serve seeds the retry budget so the deadline also makes the
	// query cancelable.
	Deadline time.Duration
	// DefaultTenant applies to tenants absent from Tenants.
	DefaultTenant TenantConfig
	// Tenants holds per-tenant overrides keyed by principal.
	Tenants map[string]TenantConfig
	// SLOs sets the per-query-class latency objectives surfaced by
	// system.slo (class, objective, target attainment). Empty installs
	// systables.DefaultSLOTargets.
	SLOs []systables.SLOTarget
}

func (c Config) withDefaults() Config {
	if c.MemoryBudget <= 0 {
		c.MemoryBudget = 256 << 20
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 16
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4 * c.MaxConcurrent
	}
	if c.MaxQueueWait <= 0 {
		c.MaxQueueWait = 2 * time.Second
	}
	if c.PageRows <= 0 {
		c.PageRows = 1024
	}
	return c
}

// minCost floors every admission cost so control statements and
// unknown tables still hold a nonzero slice of the memory budget.
const minCost = 64 << 10

// ticket is one queued admission request.
type ticket struct {
	tenant   string
	cost     int64
	seq      int64
	submitAt time.Duration
	vfinish  float64
	deliver  func(*Grant, error)
}

// Grant is one admitted query's hold on server capacity. It is
// released exactly once — by cursor close, or by the error path of the
// execution it admitted.
type Grant struct {
	tenant    string
	cost      int64
	grantedAt time.Duration
	queuedFor time.Duration
	released  bool // guarded by the admitter's mu
}

type tenantState struct {
	cfg        TenantConfig
	egress     int64
	admitted   int64
	completed  int64
	completedC *obs.Counter
	egressC    *obs.Counter
}

func (ts *tenantState) weight() float64 {
	if ts.cfg.Weight <= 0 {
		return 1
	}
	return ts.cfg.Weight
}

// serveCounters is the pre-resolved handle set for the serve layer's
// hot-path metrics; all fields are nil-safe when no registry is
// installed.
type serveCounters struct {
	submitted     *obs.Counter
	admitted      *obs.Counter
	completed     *obs.Counter
	canceled      *obs.Counter
	pages         *obs.Counter
	egress        *obs.Counter
	rejectedFull  *obs.Counter
	rejectedWait  *obs.Counter
	rejectedQuota *obs.Counter
	queueDepth    *obs.Gauge
	running       *obs.Gauge
	memUsed       *obs.Gauge
	sessions      *obs.Gauge
	txnOpen       *obs.Gauge
	queueWait     *obs.Histogram
}

func resolveServeCounters(r *obs.Registry) serveCounters {
	if r == nil {
		return serveCounters{}
	}
	return serveCounters{
		submitted:     r.Counter("serve.submitted"),
		admitted:      r.Counter("serve.admitted"),
		completed:     r.Counter("serve.completed"),
		canceled:      r.Counter("serve.canceled"),
		pages:         r.Counter("serve.pages"),
		egress:        r.Counter("serve.egress.bytes"),
		rejectedFull:  r.Counter("serve.rejected.queue_full"),
		rejectedWait:  r.Counter("serve.rejected.queue_wait"),
		rejectedQuota: r.Counter("serve.rejected.quota"),
		queueDepth:    r.Gauge("serve.queue.depth"),
		running:       r.Gauge("serve.running"),
		memUsed:       r.Gauge("serve.mem.used"),
		sessions:      r.Gauge("serve.sessions.active"),
		txnOpen:       r.Gauge("serve.txn.open"),
		queueWait: r.Histogram("serve.queue.wait_us", []int64{
			100, 1000, 10_000, 100_000, 1_000_000, 10_000_000,
		}),
	}
}

// admitter is the admission controller: memory-budgeted, concurrency-
// capped, with a weighted fair queue across tenants and graceful load
// shedding. Time is always supplied by the caller (`now`), so the
// same controller serves both the wall-clock blocking path and the
// load harness's virtual-time event loop.
type admitter struct {
	cfg Config
	c   serveCounters
	reg *obs.Registry

	mu      sync.Mutex
	q       *wfq
	seq     int64
	running int
	memUsed int64
	ewmaSvc float64 // EWMA of per-query service time (sim ns)
	tenants map[string]*tenantState
}

func newAdmitter(cfg Config, reg *obs.Registry) *admitter {
	return &admitter{
		cfg:     cfg,
		c:       resolveServeCounters(reg),
		reg:     reg,
		q:       newWFQ(),
		tenants: map[string]*tenantState{},
	}
}

func (a *admitter) tenantLocked(name string) *tenantState {
	ts := a.tenants[name]
	if ts == nil {
		cfg, ok := a.cfg.Tenants[name]
		if !ok {
			cfg = a.cfg.DefaultTenant
		}
		ts = &tenantState{cfg: cfg}
		if a.reg != nil {
			ts.completedC = a.reg.Counter("serve.tenant." + name + ".completed")
			ts.egressC = a.reg.Counter("serve.tenant." + name + ".egress_bytes")
		}
		a.tenants[name] = ts
	}
	return ts
}

func (a *admitter) fitsLocked(cost int64) bool {
	return a.running < a.cfg.MaxConcurrent && a.memUsed+cost <= a.cfg.MemoryBudget
}

// retryAfterLocked derives the backoff hint shipped inside overload
// errors: the observed per-query service time scaled by how much work
// is ahead of a resubmission, floored at 1ms.
func (a *admitter) retryAfterLocked() time.Duration {
	svc := a.ewmaSvc
	if svc <= 0 {
		svc = float64(10 * time.Millisecond)
	}
	ra := time.Duration(svc * float64(a.q.len()+1) / float64(a.cfg.MaxConcurrent))
	if ra < time.Millisecond {
		ra = time.Millisecond
	}
	return ra
}

func (a *admitter) observeServiceLocked(d time.Duration) {
	if d < 0 {
		return
	}
	if a.ewmaSvc == 0 {
		a.ewmaSvc = float64(d)
		return
	}
	a.ewmaSvc = 0.8*a.ewmaSvc + 0.2*float64(d)
}

func (a *admitter) grantLocked(tenant string, cost int64, submitAt, now time.Duration) *Grant {
	ts := a.tenantLocked(tenant)
	ts.admitted++
	a.running++
	a.memUsed += cost
	a.c.admitted.Add(1)
	a.c.running.Set(int64(a.running))
	a.c.memUsed.Set(a.memUsed)
	wait := now - submitAt
	if wait < 0 {
		wait = 0
	}
	a.c.queueWait.Observe(wait.Microseconds())
	return &Grant{tenant: tenant, cost: cost, grantedAt: now, queuedFor: wait}
}

// submit requests capacity for one query at time now. deliver is
// invoked exactly once — inline for an immediate grant or typed
// rejection, or later (from the release that freed capacity) for a
// queued ticket — and never while the admitter's lock is held.
func (a *admitter) submit(tenant string, cost int64, now time.Duration, deliver func(*Grant, error)) {
	if cost < minCost {
		cost = minCost
	}
	if cost > a.cfg.MemoryBudget {
		// A query larger than the whole budget still runs — alone.
		cost = a.cfg.MemoryBudget
	}
	a.mu.Lock()
	a.c.submitted.Add(1)
	ts := a.tenantLocked(tenant)
	if q := ts.cfg.EgressQuota; q > 0 && ts.egress >= q {
		used := ts.egress
		a.c.rejectedQuota.Add(1)
		a.mu.Unlock()
		deliver(nil, &QuotaError{Tenant: tenant, Quota: q, Used: used})
		return
	}
	// Grant inline only when nothing is queued: queued tickets hold
	// strict priority, or a steady trickle would starve the queue.
	if a.q.len() == 0 && a.fitsLocked(cost) {
		g := a.grantLocked(tenant, cost, now, now)
		a.mu.Unlock()
		deliver(g, nil)
		return
	}
	if a.q.len() >= a.cfg.MaxQueue {
		ra := a.retryAfterLocked()
		a.c.rejectedFull.Add(1)
		a.mu.Unlock()
		deliver(nil, &resilience.OverloadError{Op: "serve.admission", Reason: "queue_full", RetryAfter: ra})
		return
	}
	a.seq++
	t := &ticket{tenant: tenant, cost: cost, seq: a.seq, submitAt: now, deliver: deliver}
	a.q.push(t, ts.weight())
	a.c.queueDepth.Set(int64(a.q.len()))
	a.mu.Unlock()
}

type pendingDeliver struct {
	t *ticket
	g *Grant
	e error
}

// release returns a grant's capacity at time now, charges egress to
// the tenant, and drains the queue: stale heads are shed with typed
// queue_wait errors, fitting heads are granted. Idempotent per grant.
func (a *admitter) release(g *Grant, egress int64, now time.Duration) {
	if g == nil {
		return
	}
	a.mu.Lock()
	if g.released {
		a.mu.Unlock()
		return
	}
	g.released = true
	a.running--
	a.memUsed -= g.cost
	ts := a.tenantLocked(g.tenant)
	ts.completed++
	a.c.completed.Add(1)
	ts.completedC.Add(1)
	if egress > 0 {
		ts.egress += egress
		a.c.egress.Add(egress)
		ts.egressC.Add(egress)
	}
	a.observeServiceLocked(now - g.grantedAt)

	// Lazy shedding: queue-wait limits are enforced when a ticket
	// reaches the head, not by timers — deterministic under both wall
	// and virtual time.
	var out []pendingDeliver
	for a.q.len() > 0 {
		head := a.q.peek()
		if a.cfg.MaxQueueWait > 0 && now-head.submitAt > a.cfg.MaxQueueWait {
			t := a.q.pop()
			a.c.rejectedWait.Add(1)
			out = append(out, pendingDeliver{t: t, e: &resilience.OverloadError{
				Op: "serve.admission", Reason: "queue_wait", RetryAfter: a.retryAfterLocked(),
			}})
			continue
		}
		if !a.fitsLocked(head.cost) {
			break
		}
		t := a.q.pop()
		out = append(out, pendingDeliver{t: t, g: a.grantLocked(t.tenant, t.cost, t.submitAt, now)})
	}
	a.c.running.Set(int64(a.running))
	a.c.memUsed.Set(a.memUsed)
	a.c.queueDepth.Set(int64(a.q.len()))
	a.mu.Unlock()
	for _, p := range out {
		p.t.deliver(p.g, p.e)
	}
}

// TenantUsage is one tenant's cumulative accounting snapshot.
type TenantUsage struct {
	Admitted  int64
	Completed int64
	Egress    int64
}

// Usage returns per-tenant accounting for every tenant seen so far.
func (a *admitter) usage() map[string]TenantUsage {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[string]TenantUsage, len(a.tenants))
	for name, ts := range a.tenants {
		out[name] = TenantUsage{Admitted: ts.admitted, Completed: ts.completed, Egress: ts.egress}
	}
	return out
}
