package main

// Turning a measured window into named metrics. End-to-end metrics
// come from an untraced window only; the per-layer metrics read the
// harness spans (H), registry deltas (R) and runtime.MemStats of an
// untraced window, the engine's own spans of a traced window (T), and
// direct replays (D, replay.go).

import (
	"math"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Segments are the metric over up to ten equal consecutive parts of
	// the window, of which Value is the fastest, or the repeated set-ups,
	// of which setup_s is the median. The compare rule reads their spread.
	Segments []float64 `json:"segments,omitempty"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit}
}

// maxSegments is how many parts a window is cut into. The reference
// box shares its host: for seconds to a minute at a time everything
// runs 10-30% slower, memory-bound work most (README, "How the timings
// are read"). Interference only ever adds time, so each timing is
// computed per segment and the fastest segment is reported, as one
// reports the minimum of repeated timings. A segment is a run of whole
// chunks about 1.5 s long, so whatever the program does with a shorter
// period (GC cycles, evictions, an ingest epoch's Optimize passes) is
// inside every segment and moves the value.
const maxSegments = 10

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// percentile is the nearest-rank percentile of an ascending slice.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n == 0 {
		return 0
	} else if n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// fastest is the best of the segment values: the lowest time, the
// highest rate.
func fastest(segs []float64, higherIsBetter bool) float64 {
	if len(segs) == 0 {
		return 0
	}
	if higherIsBetter {
		return slices.Max(segs)
	}
	return slices.Min(segs)
}

// quartiles are the lower and upper quartile of v by nearest rank.
func quartiles(v []float64) (lo, hi float64) {
	if len(v) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	k := (len(s) - 1) / 4
	return s[k], s[len(s)-1-k]
}

// segment is a run of whole consecutive chunks.
type segment struct {
	samples []sample
	wall    time.Duration
}

// segmentsOf cuts the window into up to maxSegments runs of whole
// chunks, as equal in chunk count as they come.
func segmentsOf(win *window) []segment {
	n := min(maxSegments, len(win.chunks))
	segs := make([]segment, 0, n)
	at := 0
	for k := 0; k < n; k++ {
		var ops int
		var wall time.Duration
		for _, c := range win.chunks[k*len(win.chunks)/n : (k+1)*len(win.chunks)/n] {
			ops, wall = ops+c.ops, wall+c.wall
		}
		segs = append(segs, segment{win.samples[at : at+ops], wall})
		at += ops
	}
	return segs
}

func quantile(samples []sample, q float64, f func(*sample) time.Duration) float64 {
	v := make([]float64, len(samples))
	for i := range samples {
		v[i] = ms(f(&samples[i]))
	}
	sort.Float64s(v)
	return percentile(v, q)
}

// endToEnd computes the window's end-to-end metrics (all but setup_s
// and the resident-set ones, which belong to the process).
func endToEnd(win *window) metrics {
	m := metrics{}
	n := float64(len(win.samples))
	failed := 0
	for i := range win.samples {
		if win.samples[i].fail {
			failed++
		}
	}
	wall := func(r *sample) time.Duration { return r.wall }
	first := func(r *sample) time.Duration { return r.first }
	sim := func(r *sample) time.Duration { return r.sim }

	segs := segmentsOf(win)
	rates, p50, p95, first50 := make([]float64, len(segs)), make([]float64, len(segs)), make([]float64, len(segs)), make([]float64, len(segs))
	for k, sg := range segs {
		rates[k] = ratio(float64(len(sg.samples)), sg.wall.Seconds())
		p50[k] = quantile(sg.samples, 0.50, wall)
		p95[k] = quantile(sg.samples, 0.95, wall)
		first50[k] = quantile(sg.samples, 0.50, first)
	}
	// Correct ops per second of op time.
	m["ops_per_s"] = metric{fastest(rates, true) * (1 - ratio(float64(failed), n)), "1/s", rates}
	m["wall_p50_ms"] = metric{fastest(p50, false), "ms", p50}
	m["wall_p95_ms"] = metric{fastest(p95, false), "ms", p95}
	m["first_page_p50_ms"] = metric{fastest(first50, false), "ms", first50}
	// The p99 is over every op of the window, interference and all.
	m.set("wall_p99_ms", quantile(win.samples, 0.99, wall), "ms")

	var simSum time.Duration
	for i := range win.samples {
		simSum += win.samples[i].sim
	}
	m.set("sim_mean_ms", ratio(ms(simSum), n), "ms")
	m.set("sim_p99_ms", quantile(win.samples, 0.99, sim), "ms")

	c := win.counters
	m.set("store_bytes_per_op", ratio(float64(c["objstore.get.bytes"]+c["objstore.put.bytes"]), n), "B")
	m.set("store_reqs_per_op", ratio(float64(c["objstore.get.count"]+c["objstore.put.count"]+
		c["objstore.list.count"]+c["objstore.head.count"]+c["objstore.delete.count"]), n), "count")
	m.set("fail_share", ratio(float64(failed), n), "ratio")
	return m
}

// procStatusMB reads one size field ("VmRSS", "VmHWM") of the process.
func procStatusMB(field string) float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// layerMetrics computes the H, R and MemStats per-layer metrics of an
// untraced window.
func layerMetrics(win *window) metrics {
	m := metrics{}
	c := win.counters
	cnt := func(name string) float64 { return float64(c[name]) }
	n := float64(len(win.samples))
	h := &win.h
	stmts, reads, streams := float64(h.stmts), float64(h.reads), float64(h.streams)

	m.set("serve.parse_us", ratio(us(h.parse), stmts), "us")
	m.set("serve.prepare_us", ratio(us(h.prepare), stmts), "us")
	m.set("serve.execute_us", ratio(us(h.execute), stmts), "us")
	m.set("serve.drain_us", ratio(us(h.drain), stmts), "us")
	m.set("serve.close_us", ratio(us(h.closeCur), stmts), "us")
	m.set("serve.admission_wait_us", ratio(float64(win.waitSum), cnt("serve.admitted")), "us")
	m.set("serve.pages_per_op", ratio(cnt("serve.pages"), n), "count")
	m.set("serve.egress_bytes_per_op", ratio(cnt("serve.egress.bytes"), n), "B")

	m.set("engine.rows_scanned_per_op", ratio(cnt("engine.scan.rows"), n), "count")
	m.set("engine.rows_scanned_per_row_returned", ratio(cnt("engine.scan.rows"), float64(h.rowsOut)), "ratio")
	m.set("engine.files_scanned_per_op", ratio(cnt("engine.scan.files"), n), "count")
	m.set("engine.files_pruned_per_op", ratio(cnt("engine.scan.pruned"), n), "count")
	m.set("engine.cache_hit_ratio", ratio(cnt("engine.scan.cache_hit"), cnt("engine.scan.cache_hit")+cnt("engine.scan.cache_miss")), "ratio")
	m.set("engine.cache_bytes", float64(win.cacheBytes), "B")

	m.set("bigmeta.log_version_delta", ratio(float64(win.logVersions), n), "1/op")

	m.set("objstore.get_per_op", ratio(cnt("objstore.get.count"), n), "count")
	m.set("objstore.get_bytes_per_op", ratio(cnt("objstore.get.bytes"), n), "B")
	m.set("objstore.put_per_op", ratio(cnt("objstore.put.count"), n), "count")
	m.set("objstore.put_bytes_per_op", ratio(cnt("objstore.put.bytes"), n), "B")
	m.set("objstore.list_per_op", ratio(cnt("objstore.list.count"), n), "count")
	m.set("objstore.head_per_op", ratio(cnt("objstore.head.count"), n), "count")

	m.set("resilience.retries_per_op", ratio(cnt("resilience.retries"), n), "count")
	m.set("resilience.hedges_per_op", ratio(cnt("resilience.hedges"), n), "count")

	var detected float64
	for name, v := range c {
		if strings.HasPrefix(name, "integrity.detected.") {
			detected += float64(v)
		}
	}
	m.set("integrity.detected_per_op", ratio(detected, n), "count")

	m.set("arena.bytes_in_use_peak", float64(win.arenaPeak), "B")
	m.set("arena.recycled", float64(win.arenaRecycled), "count")
	m.set("arena.heap_allocs_per_op", ratio(float64(win.mem.mallocs), n), "count")
	m.set("arena.heap_bytes_per_op", ratio(float64(win.mem.bytes), n), "B")
	m.set("arena.gc_cycles", float64(win.mem.gcCycles), "count")
	m.set("arena.gc_pause_us_per_op", ratio(float64(win.mem.gcPauseNs)/1e3, n), "us")

	m.set("storageapi.create_session_us", ratio(us(h.create), reads), "us")
	m.set("storageapi.read_rows_us", ratio(us(h.readRows), streams), "us")
	m.set("storageapi.streams_per_session", ratio(streams, reads), "count")
	m.set("storageapi.rows_per_s", ratio(float64(h.rowsOut), h.readWall.Seconds()), "1/s")
	m.set("storageapi.wire_bytes_per_row", ratio(float64(h.wireBytes), float64(h.rowsOut)), "B")
	m.set("storageapi.session_reuse_ratio", ratio(float64(h.reused), reads), "ratio")

	m.set("blmt.optimize_ms", ratio(ms(h.maintWall), float64(h.maint)), "ms")
	m.set("blmt.files_live_end", float64(win.filesLive), "count")
	m.set("blmt.write_amp", ratio(cnt("objstore.put.bytes"), float64(h.userBytes)), "ratio")
	m.set("blmt.space_amp", ratio(float64(win.prefixBytes), float64(win.liveUser)), "ratio")

	m.set("wal.records_per_commit", ratio(float64(win.walRecords), cnt("bigmeta.meta_commits")), "count")

	m.set("txn.commit_us", ratio(us(h.commit), float64(h.txns)), "us")
	m.set("txn.commit_retries_per_op", ratio(cnt("txn.commit.retries"), n), "count")
	m.set("txn.validated_records_per_commit", ratio(cnt("txn.commit.validated_records"), cnt("txn.commits")), "count")

	m.set("systables.jobs_recorded_per_op", ratio(cnt("systables.jobs.recorded"), stmts), "count")
	return m
}

// classStat is one op class's share of a window.
type classStat struct {
	Ops        int     `json:"ops"`
	WallP50Ms  float64 `json:"wall_p50_ms"`
	WallP99Ms  float64 `json:"wall_p99_ms"`
	WallMeanMs float64 `json:"wall_mean_ms"`
	// HSumMeanMs is the class's harness spans, per op, to set against
	// WallMeanMs: the spans must account for the op.
	HSumMeanMs float64 `json:"h_sum_mean_ms"`
}

func classStats(wl *workload, win *window) map[string]classStat {
	out := map[string]classStat{}
	for ci, name := range wl.classes {
		var walls []float64
		var wsum time.Duration
		for i := range win.samples {
			if r := &win.samples[i]; int(r.class) == ci {
				walls = append(walls, ms(r.wall))
				wsum += r.wall
			}
		}
		if len(walls) == 0 {
			continue
		}
		sort.Float64s(walls)
		k := float64(len(walls))
		out[name] = classStat{Ops: len(walls), WallP50Ms: percentile(walls, 0.5), WallP99Ms: percentile(walls, 0.99),
			WallMeanMs: ms(wsum) / k, HSumMeanMs: ms(win.hByClass[ci]) / k}
	}
	return out
}
