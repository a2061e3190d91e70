// Command benchmark is the repo's one benchmark: five named workloads
// through serve and the Storage Read API, every answer checked against
// the generator, end-to-end and per-layer metrics printed by name.
//
//	go run ./benchmark --workload point_hot --seed 1 --seconds 10 --trace 0
//	go run ./benchmark -seed 1            # all five, fixed op counts
//	go run ./benchmark -seed 1 -traced    # ... plus the traced runs
//	go run ./benchmark -compare a.json b.json
//
// See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"biglake/internal/obs"
)

// config is one workload run.
type config struct {
	workload string
	seed     uint64
	seconds  float64 // > 0: measure for this long; 0: fixed op count
	scale    int     // 1, or what the smoke test divides op counts by; the world is only asserted at 1
	traced   bool
	setups   int // runSetups, or 1 in the smoke test
	sz       sizes
	outDir   string
}

// result is what one workload run reports; the suite file holds one
// per workload and mode.
type result struct {
	Workload   string               `json:"workload"`
	Traced     bool                 `json:"traced"`
	Seed       uint64               `json:"seed"`
	Correct    bool                 `json:"correct"`
	Attempted  int                  `json:"attempted"`
	Failed     int                  `json:"failed"`
	Samples    int                  `json:"samples"`
	WarmOps    int                  `json:"warm_ops"`
	MeasuredS  float64              `json:"measured_s"`
	InputsS    float64              `json:"inputs_s"`
	Metrics    metrics              `json:"metrics"`
	Classes    map[string]classStat `json:"classes"`
	Failures   []failure            `json:"failures,omitempty"`
	Provenance provenance           `json:"provenance"`
}

type provenance struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	When       string `json:"when"`
}

func newProvenance() provenance {
	p := provenance{Commit: "unknown", GoVersion: runtime.Version(), NProc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), When: time.Now().UTC().Format(time.RFC3339)}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		p.Commit = strings.TrimSpace(string(out))
	}
	return p
}

// endToEndNames and the BENCHMARK.json "end_to_end" list are the same
// set: what --trace 0 prints on its last line. The README's other
// end-to-end metrics (counts that are zero on some workload, so that no
// bound can be a share of them, and a p99 too few ops support) print
// with --trace 1, from that run's untraced part.
var (
	endToEndNames  = []string{"setup_s", "ops_per_s", "wall_p50_ms", "wall_p95_ms", "first_page_p50_ms", "mem_settled_mb"}
	unboundedNames = []string{"wall_p99_ms", "sim_mean_ms", "sim_p99_ms", "store_bytes_per_op", "store_reqs_per_op", "fail_share"}
)

// runSetups is how many times a run sets up; setup_s is their median.
const runSetups = 5

func runWorkload(cfg config) (*result, error) {
	wl := workloadByName(cfg.workload)
	if wl == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	wl.fixedOps = max(wl.fixedOps/cfg.scale, 5)
	wl.warmOps = max(wl.warmOps/cfg.scale, 5)
	wl.chunkOps = max(wl.chunkOps/cfg.scale, 1)
	res := &result{Workload: wl.name, Traced: cfg.traced, Seed: cfg.seed, WarmOps: wl.warmOps, Provenance: newProvenance()}

	// Inputs: generated and encoded once, before the program is touched.
	t0 := time.Now()
	in := &inputs{seed: cfg.seed, sz: cfg.sz}
	r := &runner{wl: wl, in: in, tables: wl.gen(in)}
	if err := encodeTables(r.tables); err != nil {
		return nil, err
	}
	res.InputsS = time.Since(t0).Seconds()

	// Set-up, repeated: world build plus warm-up. The last world is the
	// one measured.
	var setups []float64
	for k := 0; k < cfg.setups; k++ {
		r.teardown()
		runtime.GC()
		t0 = time.Now()
		if err := r.setup(); err != nil {
			return nil, fmt.Errorf("%s seed %d: set-up: %w", wl.name, cfg.seed, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	// The files now live in the world's store; drop the harness's copy
	// and the set-ups' garbage.
	r.tables = nil
	debug.FreeOSMemory()

	// measure runs a share of the run: of the seconds given, or of the
	// workload's fixed op count.
	measure := func(share float64, ta *traceAgg) (*window, error) {
		if cfg.seconds > 0 {
			limit := time.Duration(cfg.seconds * share * float64(time.Second))
			return r.measure(1<<20, func(elapsed time.Duration, _ int) bool { return elapsed >= limit }, ta)
		}
		target := int(float64(wl.fixedOps) * share)
		return r.measure(target+wl.chunkOps, func(_ time.Duration, ops int) bool { return ops >= target }, ta)
	}

	res.Metrics = metrics{}
	var wins []*window
	if !cfg.traced {
		win, err := measure(1, nil)
		if err != nil {
			return nil, err
		}
		wins = append(wins, win)
		for name, v := range endToEnd(win) {
			res.Metrics[name] = v
		}
		for name, v := range layerMetrics(win) {
			res.Metrics[name] = v
		}
		res.Metrics["setup_s"] = metric{Value: median(setups), Unit: "s", Segments: setups}
		res.Classes = classStats(wl, win)
	} else {
		// A traced run is a quarter-length fixed-count run (or the
		// given seconds), split into an untraced part, which supplies
		// the H/R/MemStats metrics and the overhead baseline, and a
		// traced part, which supplies the T metrics.
		quarter := 1.0
		if cfg.seconds == 0 {
			quarter = 0.25
		}
		plain, err := measure(0.4*quarter, nil)
		if err != nil {
			return nil, err
		}
		ta := newTraceAgg()
		r.tracer = &obs.Tracer{}
		r.w.lh.Engine.Tracer = r.tracer
		tracedWin, err := measure(0.6*quarter, ta)
		if err != nil {
			return nil, err
		}
		wins = append(wins, plain, tracedWin)
		e2e := endToEnd(plain)
		for _, name := range unboundedNames {
			res.Metrics[name] = e2e[name]
		}
		for name, v := range layerMetrics(plain) {
			res.Metrics[name] = v
		}
		for name, v := range ta.metrics(len(tracedWin.samples)) {
			res.Metrics[name] = v
		}
		// The overhead compares the two parts' p50 over all their ops:
		// they differ in length, so their fastest segments do not compare.
		wall := func(r *sample) time.Duration { return r.wall }
		base, with := quantile(plain.samples, 0.5, wall), quantile(tracedWin.samples, 0.5, wall)
		res.Metrics.set("obs.trace_overhead_pct", 100*(ratio(with, base)-1), "%")
		d, err := r.replays(tracedWin.lastOps)
		if err != nil {
			return nil, fmt.Errorf("%s: replays: %w", wl.name, err)
		}
		for name, v := range d {
			res.Metrics[name] = v
		}
		res.Classes = classStats(wl, plain)
		if err := writeTraceFiles(cfg, r, ta, tracedWin, res); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: trace files:", err)
		}
	}
	// Memory: what the process still holds from the OS once the window's
	// garbage is collected and handed back, and its peak resident set.
	// The first is the runtime's own account, not VmRSS: a pooled arena
	// slab counts whether or not its pages were ever touched, which on
	// olap_hot moved VmRSS by 30 MB between runs of one op sequence.
	debug.FreeOSMemory()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	res.Metrics.set("mem_settled_mb", float64(mem.Sys-mem.HeapReleased)/(1<<20), "MB")
	res.Metrics.set("rss_peak_mb", procStatusMB("VmHWM"), "MB")

	for _, win := range wins {
		res.Attempted += len(win.samples)
		res.Failed += len(win.failures)
		res.Failures = append(res.Failures, win.failures...)
		res.MeasuredS += win.elapsed.Seconds()
	}
	res.Samples = len(wins[0].samples)
	res.Correct = res.Failed == 0
	if cfg.scale == 1 {
		if err := assertWorld(wl, r, wins[0], res); err != nil {
			return res, err
		}
	}
	return res, nil
}

// assertWorld fails loudly when the world is not the one the README
// describes: the hot workloads must be served from the scan cache, the
// cold ones must scan a table several times the cache, and every serve
// statement must land in system.jobs exactly once.
func assertWorld(wl *workload, r *runner, win *window, res *result) error {
	hit := res.Metrics["engine.cache_hit_ratio"].Value
	if wl.hot && hit < 0.95 {
		return fmt.Errorf("%s: scan-cache hit ratio %.3f < 0.95: the working set does not fit the cache", wl.name, hit)
	}
	if wl.cold {
		b, err := r.decodeFirst(wl.replayTable)
		if err != nil {
			return err
		}
		var decoded int64
		for _, c := range b.Cols {
			decoded += int64(len(c.Ints))*8 + int64(len(c.Floats))*8 + int64(len(c.Codes))*4 + int64(len(c.Runs))*8
			for _, s := range c.Strs {
				decoded += int64(len(s)) + 16
			}
		}
		if total := decoded * int64(r.in.sz.WideFiles); total < 3*scanCacheBytes {
			return fmt.Errorf("%s: %s decodes to %d bytes < 3x the %d-byte scan cache", wl.name, wl.replayTable, total, scanCacheBytes)
		}
	}
	if stmts := win.h.stmts; stmts > 0 && win.counters["systables.jobs.recorded"] != stmts {
		return fmt.Errorf("%s: %d statements but %d job records", wl.name, stmts, win.counters["systables.jobs.recorded"])
	}
	return nil
}

// writeTraceFiles writes the Chrome trace of the first harness and
// engine traces and the layer breakdown of the traced run.
func writeTraceFiles(cfg config, r *runner, ta *traceAgg, win *window, res *result) error {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	trace, err := obs.ChromeTrace(append(r.htraces, ta.kept...)...)
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(cfg.outDir, res.Workload+".trace.json"), trace, 0o644); err != nil {
		return err
	}
	layers := map[string]any{
		"workload": res.Workload, "seed": res.Seed, "traced_ops": len(win.samples),
		"stages": ta.stageShares(len(win.samples)), "classes": res.Classes, "metrics": res.Metrics,
	}
	data, err := json.MarshalIndent(layers, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.outDir, res.Workload+".layers.json"), data, 0o644)
}

// lastLine is the contract's result object: with --trace 0 every
// end-to-end metric of BENCHMARK.json, with --trace 1 every other.
func lastLine(res *result) string {
	out := map[string]any{"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed}
	ms := map[string]map[string]any{}
	for name, v := range res.Metrics {
		isE2E := false
		for _, e := range endToEndNames {
			isE2E = isE2E || e == name
		}
		if isE2E != res.Traced {
			ms[name] = map[string]any{"value": v.Value, "unit": v.Unit}
		}
	}
	out["metrics"] = ms
	data, _ := json.Marshal(out)
	return string(data)
}

func printMetrics(w *os.File, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	mode := "untraced"
	if res.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s (%s, seed %d): %d ops measured in %.2fs after %d warm-up ops, %d failed\n",
		res.Workload, mode, res.Seed, res.Attempted, res.MeasuredS, res.WarmOps, res.Failed)
	for _, name := range names {
		v := res.Metrics[name]
		fmt.Fprintf(w, "  %-40s %16.4f %s\n", name, v.Value, v.Unit)
	}
	for _, f := range res.Failures {
		fmt.Fprintf(w, "  FAILED op %d (%s) seed %d: %s\n", f.Op, f.Class, res.Seed, f.What)
	}
}

func main() {
	var (
		workload = flag.String("workload", "", "run one workload and print the result object as the last line")
		seed     = flag.Uint64("seed", 1, "workload seed")
		seconds  = flag.Float64("seconds", 0, "measure for this many seconds (0: the workload's fixed op count)")
		trace    = flag.Int("trace", 0, "with -workload: 1 runs the traced variant and prints the per-layer metrics")
		traced   = flag.Bool("traced", false, "suite: also run every workload traced, at quarter length")
		compare  = flag.Bool("compare", false, "compare two suite result files: -compare a.json b.json")
		outDir   = flag.String("out", filepath.Join("benchmark", "out"), "directory for result, trace and layer files")
		asChild  = flag.Bool("result", false, "with -workload: print the whole result as JSON (what the suite reads)")
	)
	flag.Parse()
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare a.json b.json")
			os.Exit(2)
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1)))
	case *workload != "":
		cfg := config{workload: *workload, seed: *seed, seconds: *seconds, scale: 1, traced: *trace == 1,
			setups: runSetups, sz: fullSizes(), outDir: *outDir}
		res, err := runWorkload(cfg)
		if res != nil && *asChild {
			data, _ := json.Marshal(res)
			fmt.Println(string(data))
		} else if res != nil {
			printMetrics(os.Stdout, res)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		if !*asChild {
			fmt.Println(lastLine(res))
		}
		if !res.Correct {
			fmt.Fprintf(os.Stderr, "benchmark: %s seed %d: %d of %d ops failed\n", res.Workload, res.Seed, res.Failed, res.Attempted)
			os.Exit(1)
		}
	default:
		os.Exit(runSuite(*seed, *seconds, *traced, *outDir))
	}
}

// runSuite runs every workload in a child process of its own (set-up
// time, peak RSS, GC state and arena pools are per workload), collects
// the children's result files, and prints every metric.
func runSuite(seed uint64, seconds float64, traced bool, outDir string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	suite := map[string]any{"provenance": newProvenance(), "seed": seed}
	runs := map[string]*result{}
	code := 0
	modes := []int{0}
	if traced {
		modes = append(modes, 1)
	}
	for _, wl := range workloads() {
		for _, mode := range modes {
			cmd := exec.Command(exe, "-workload", wl.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
				"-trace", fmt.Sprint(mode), "-out", outDir, "-result")
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s (trace %d): %v\n", wl.name, mode, err)
				code = 1
			}
			var res result
			if json.Unmarshal(out, &res) != nil {
				continue
			}
			printMetrics(os.Stdout, &res)
			key := wl.name
			if mode == 1 {
				key += ".traced"
			}
			runs[key] = &res
		}
	}
	suite["runs"] = runs
	if err := os.MkdirAll(outDir, 0o755); err == nil {
		data, _ := json.MarshalIndent(suite, "", "  ")
		path := filepath.Join(outDir, fmt.Sprintf("result-seed%d.json", seed))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			code = 1
		} else {
			fmt.Println("results written to", path)
		}
	}
	return code
}
