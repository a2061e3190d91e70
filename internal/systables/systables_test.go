package systables

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"biglake/internal/bigmeta"
	"biglake/internal/obs"
	"biglake/internal/resilience"
	"biglake/internal/sim"
)

func TestJobRingWrap(t *testing.T) {
	r := NewJobRing(4)
	for i := 0; i < 10; i++ {
		r.Record(JobRecord{QueryID: fmt.Sprintf("q%d", i)})
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
	if r.Total() != 10 {
		t.Fatalf("Total = %d, want 10", r.Total())
	}
	recs := r.Snapshot()
	for i, rec := range recs {
		if want := fmt.Sprintf("q%d", 6+i); rec.QueryID != want {
			t.Errorf("recs[%d] = %q, want %q (oldest first)", i, rec.QueryID, want)
		}
	}
}

func TestSLOTrackerMath(t *testing.T) {
	tr := NewSLOTracker(8)
	tr.Configure([]SLOTarget{{Class: "point", Objective: 10 * time.Millisecond, Target: 0.9}})
	// 8 observations: 6 within, 2 over → window attainment 0.75,
	// burn (1-0.75)/(1-0.9) = 2.5.
	for i := 0; i < 6; i++ {
		tr.Observe("point", 5*time.Millisecond)
	}
	tr.Observe("point", 20*time.Millisecond)
	tr.Observe("point", 30*time.Millisecond)
	rows := tr.Rows()
	var row SLORow
	for _, r := range rows {
		if r.Class == "point" {
			row = r
		}
	}
	if row.Total != 8 || row.Attained != 6 {
		t.Fatalf("total/attained = %d/%d, want 8/6", row.Total, row.Attained)
	}
	if row.WindowAttainment != 0.75 {
		t.Errorf("window attainment = %v, want 0.75", row.WindowAttainment)
	}
	if burn := row.ErrorBudgetBurn; burn < 2.49 || burn > 2.51 {
		t.Errorf("error budget burn = %v, want 2.5", burn)
	}
	if row.P50Us != 5000 {
		t.Errorf("p50 = %d, want 5000", row.P50Us)
	}
	if row.P99Us != 30000 {
		t.Errorf("p99 = %d, want 30000", row.P99Us)
	}

	// Rolling window: 8 more fast observations push the two misses out.
	for i := 0; i < 8; i++ {
		tr.Observe("point", 1*time.Millisecond)
	}
	rows = tr.Rows()
	for _, r := range rows {
		if r.Class == "point" {
			if r.WindowAttainment != 1.0 {
				t.Errorf("window attainment after refill = %v, want 1.0", r.WindowAttainment)
			}
			if r.ErrorBudgetBurn != 0 {
				t.Errorf("burn after refill = %v, want 0", r.ErrorBudgetBurn)
			}
			if r.Total != 16 {
				t.Errorf("cumulative total = %d, want 16", r.Total)
			}
		}
	}
}

func TestSLOUnconfiguredClassGetsFallback(t *testing.T) {
	tr := NewSLOTracker(8)
	tr.Observe("weird", time.Millisecond)
	for _, r := range tr.Rows() {
		if r.Class == "weird" {
			if r.ObjectiveUs != fallbackTarget.Objective.Microseconds() {
				t.Errorf("fallback objective = %d", r.ObjectiveUs)
			}
			return
		}
	}
	t.Fatal("no row for unconfigured class")
}

// TestHistoryDeltaReconciliation is the satellite property test: over
// seeded random increment schedules, summing metrics_history deltas
// for a counter reconciles exactly with the counter's value difference
// across the retained window (the ring is sized not to wrap here).
func TestHistoryDeltaReconciliation(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		reg := obs.NewRegistry()
		h := NewMetricsHistory(64, 0)
		names := []string{"a.count", "b.count", "c.count"}
		now := time.Duration(0)
		h.Capture(now, reg) // baseline
		captures := 1 + rng.Intn(40)
		for i := 0; i < captures; i++ {
			for _, n := range names {
				if rng.Intn(2) == 1 {
					reg.Add(n, int64(rng.Intn(100)))
				}
			}
			now += time.Duration(1+rng.Intn(5)) * time.Millisecond
			h.Capture(now, reg)
		}
		rows := h.Rows()
		for _, n := range names {
			var sum, first, last int64
			seen := false
			for _, r := range rows {
				if r.Name != n || r.Kind != "counter" {
					continue
				}
				if !seen {
					first = r.Value
					seen = true
				} else {
					sum += r.Delta
				}
				last = r.Value
			}
			if !seen {
				continue // counter never registered before first capture with it
			}
			if sum != last-first {
				t.Fatalf("seed %d counter %s: delta sum %d != value diff %d", seed, n, sum, last-first)
			}
			if last != reg.Get(n) {
				t.Fatalf("seed %d counter %s: last history value %d != live %d", seed, n, last, reg.Get(n))
			}
		}
	}
}

func TestHistoryRingEviction(t *testing.T) {
	reg := obs.NewRegistry()
	h := NewMetricsHistory(4, 0)
	for i := 0; i < 10; i++ {
		reg.Add("x", 1)
		h.Capture(time.Duration(i)*time.Millisecond, reg)
	}
	rows := h.Rows()
	var count int
	for _, r := range rows {
		if r.Name == "x" {
			count++
			// Deltas survive eviction of their predecessor snapshot.
			if r.Value > 1 && r.Delta != 1 {
				t.Errorf("row value %d delta = %d, want 1", r.Value, r.Delta)
			}
		}
	}
	if count != 4 {
		t.Fatalf("retained x rows = %d, want 4", count)
	}
	if h.Taken() != 10 {
		t.Fatalf("Taken = %d, want 10", h.Taken())
	}
}

func TestHistorySameInstantDeduped(t *testing.T) {
	reg := obs.NewRegistry()
	h := NewMetricsHistory(8, 0)
	if !h.Capture(time.Millisecond, reg) {
		t.Fatal("first capture refused")
	}
	if h.Capture(time.Millisecond, reg) {
		t.Fatal("duplicate same-instant capture accepted")
	}
}

func TestClassifyError(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{nil, ""},
		{resilience.ErrCanceled, "cancelled"},
		{resilience.ErrDeadlineExceeded, "deadline"},
		{&resilience.OverloadError{Reason: "queue_full"}, "overload_queue_full"},
		{fmt.Errorf("wrapped: %w", resilience.ErrCanceled), "cancelled"},
		{fmt.Errorf("commit q-1: %w", fmt.Errorf("%w: write-write on ds.t", bigmeta.ErrConflict)), "txn_conflict"},
		{fmt.Errorf("serve: %w", resilience.ErrQuotaExceeded), "quota"},
		{fmt.Errorf("serve: %w", &resilience.OverloadError{Reason: "queue_wait"}), "overload_queue_wait"},
		{fmt.Errorf("boom"), "error"},
	}
	for _, c := range cases {
		if got := ClassifyError(c.err); got != c.want {
			t.Errorf("ClassifyError(%v) = %q, want %q", c.err, got, c.want)
		}
	}
}

func TestProviderRecordAndScan(t *testing.T) {
	clock := sim.NewClock()
	reg := obs.NewRegistry()
	p := NewProvider(clock, reg, nil)
	p.RecordJob(JobRecord{QueryID: "q1", Class: "point", State: StateDone, ExecSim: time.Millisecond})
	p.RecordJob(JobRecord{QueryID: "q2", Class: "point", State: StateShed, ErrorClass: "overload_queue_full"})
	b, err := p.Scan(TableJobs)
	if err != nil {
		t.Fatal(err)
	}
	if b.N != 2 {
		t.Fatalf("jobs batch N = %d", b.N)
	}
	if got := reg.Get("systables.jobs.recorded"); got != 2 {
		t.Fatalf("recorded counter = %d", got)
	}
	// Shed jobs don't feed SLOs.
	for _, r := range p.SLORows() {
		if r.Class == "point" && r.Total != 1 {
			t.Errorf("point slo total = %d, want 1", r.Total)
		}
	}
	// Every table scans clean even with empty sources.
	for _, name := range []string{TableMetrics, TableHistory, TableEvents, TableSessions, TableQuarantine, TableSLO} {
		if _, err := p.Scan(name); err != nil {
			t.Errorf("Scan(%s): %v", name, err)
		}
	}
	// Nil provider and disabled provider are safe no-ops.
	var nilP *Provider
	nilP.RecordJob(JobRecord{})
	if nilP.Enabled() {
		t.Error("nil provider reports enabled")
	}
}
