package systables

import (
	"sort"
	"sync"
	"time"

	"biglake/internal/obs"
)

// HistoryRow is one (snapshot, metric) pair from system.metrics_history.
type HistoryRow struct {
	Ts    time.Duration
	Name  string
	Kind  string // "counter" or "gauge"
	Value int64
	// Delta is the change since the previous capture, stored at capture
	// time so it survives ring eviction of the predecessor. The first
	// capture after a baseline reset (including provider construction)
	// carries Delta 0, so summing Delta across retained counter rows
	// reconciles with Value(last) - Value(first) as long as the ring
	// has not wrapped; after wrap the rows are still exact per-interval
	// rates.
	Delta int64
}

type histEntry struct {
	ts       time.Duration
	counters map[string]int64
	gauges   map[string]int64
	deltas   map[string]int64 // non-zero counter deltas vs previous capture
}

// MetricsHistory is a fixed-size ring of registry snapshots taken at
// most once per `every` of sim time, driven opportunistically from job
// recording (plus explicit Capture calls from experiments).
type MetricsHistory struct {
	mu    sync.Mutex
	every time.Duration
	buf   []histEntry
	size  int
	next  int
	taken int64
	// prev holds the last captured counter values (independent of ring
	// eviction) for delta computation; nil right after a baseline
	// reset, meaning the next capture records zero deltas.
	prev     map[string]int64
	hasPrev  bool
	lastAt   time.Duration
	hasTaken bool
}

// NewMetricsHistory returns a ring of capacity snapshots at least
// every apart.
func NewMetricsHistory(capacity int, every time.Duration) *MetricsHistory {
	if capacity < 1 {
		capacity = 1
	}
	return &MetricsHistory{every: every, buf: make([]histEntry, capacity)}
}

// SetEvery adjusts the minimum sim-time between opportunistic captures.
func (h *MetricsHistory) SetEvery(d time.Duration) {
	h.mu.Lock()
	h.every = d
	h.mu.Unlock()
}

// ResetBaseline forgets the previous capture's values: the next
// capture records Delta 0 for every metric. Called when the provider
// is re-pointed at a different registry, so cross-registry value jumps
// never appear as rates.
func (h *MetricsHistory) ResetBaseline() {
	h.mu.Lock()
	h.prev, h.hasPrev = nil, false
	h.mu.Unlock()
}

// MaybeCapture snapshots the registry if at least `every` sim time has
// passed since the last capture. Reports whether a snapshot was taken.
func (h *MetricsHistory) MaybeCapture(now time.Duration, reg *obs.Registry) bool {
	h.mu.Lock()
	due := !h.hasTaken || now-h.lastAt >= h.every
	h.mu.Unlock()
	if !due {
		return false
	}
	return h.Capture(now, reg)
}

// Capture snapshots the registry unconditionally (unless a capture at
// the same sim instant already exists — sim time can stand still
// across many events, and duplicate zero-delta rows would only add
// noise). The registry snapshot is taken before the history lock so
// the two structures never lock-nest.
func (h *MetricsHistory) Capture(now time.Duration, reg *obs.Registry) bool {
	snap := reg.Snapshot()
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.hasTaken && now == h.lastAt {
		return false
	}
	e := histEntry{ts: now, counters: snap.Counters, gauges: snap.Gauges}
	if h.hasPrev {
		// Most counters stand still between two captures: keep only
		// the ones that moved, in a map sized for them.
		moved := 0
		for name, v := range snap.Counters {
			if v != h.prev[name] {
				moved++
			}
		}
		e.deltas = make(map[string]int64, moved)
		for name, v := range snap.Counters {
			if d := v - h.prev[name]; d != 0 {
				e.deltas[name] = d
			}
		}
	}
	h.prev, h.hasPrev = snap.Counters, true
	h.buf[h.next] = e
	h.next = (h.next + 1) % len(h.buf)
	if h.size < len(h.buf) {
		h.size++
	}
	h.taken++
	h.lastAt = now
	h.hasTaken = true
	return true
}

// Taken returns the number of snapshots ever captured.
func (h *MetricsHistory) Taken() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.taken
}

// Rows flattens the retained snapshots, oldest first, metrics sorted
// by name within each snapshot, counters before gauges.
func (h *MetricsHistory) Rows() []HistoryRow {
	h.mu.Lock()
	entries := make([]histEntry, 0, h.size)
	start := (h.next - h.size + len(h.buf)) % len(h.buf)
	for i := 0; i < h.size; i++ {
		entries = append(entries, h.buf[(start+i)%len(h.buf)])
	}
	h.mu.Unlock()

	var rows []HistoryRow
	for _, e := range entries {
		names := make([]string, 0, len(e.counters))
		for name := range e.counters {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			rows = append(rows, HistoryRow{
				Ts: e.ts, Name: name, Kind: "counter",
				Value: e.counters[name], Delta: e.deltas[name],
			})
		}
		names = names[:0]
		for name := range e.gauges {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			rows = append(rows, HistoryRow{
				Ts: e.ts, Name: name, Kind: "gauge", Value: e.gauges[name],
			})
		}
	}
	return rows
}
