// Command benchlake regenerates every paper table/figure-shaped result
// (DESIGN.md experiments E1–E18 and ablations A1–A5) and prints them
// as tables. Run a single experiment by id, or everything:
//
//	benchlake e1        # Figure 4: TPC-DS speedup with metadata caching
//	benchlake all       # the full evaluation
//	benchlake -scale 2 e1
//
// Observability flags apply uniformly to every experiment (and may
// appear before or after the experiment id):
//
//	benchlake e15 -trace            # Chrome-trace spans -> trace.json
//	benchlake e15 -trace=e15.json   # ... to a chosen file
//	benchlake e1 -profile           # print EXPLAIN ANALYZE of the slowest query
//	benchlake e15 -json             # BENCH_E15.json + BENCH_E15_METRICS.json
//
// The differential fuzzer is also exposed here for ad-hoc soaks:
//
//	benchlake -seed 7 -trials 4 -queries 100 fuzz
//	benchlake -serve fuzz    # also diff through the serve session path
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"biglake/internal/exp"
	"biglake/internal/obs"
	"biglake/internal/oracle"
)

var (
	scale       = flag.Int("scale", 1, "workload scale factor")
	fuzzSeed    = flag.Uint64("seed", 1, "fuzz: base RNG seed")
	fuzzTrials  = flag.Int("trials", 2, "fuzz: generated worlds per run")
	fuzzQueries = flag.Int("queries", 70, "fuzz: SELECTs per world per phase")
	fuzzServe   = flag.Bool("serve", false, "fuzz: also diff execution through the serve session path")
	jsonOut     = flag.Bool("json", false, "also write BENCH_<ID>.json and BENCH_<ID>_METRICS.json in the cwd")
	traceOut    = flag.String("trace", "", "write a Chrome-trace (Perfetto-loadable) span file; bare -trace means trace.json")
	profileOut  = flag.Bool("profile", false, "print EXPLAIN ANALYZE of the experiment's slowest traced query")
)

// experiments is the uniform dispatch table: every entry gets the same
// -json/-trace/-profile handling from run(). Populated by register()
// in init, never by literal — the duplicate guard is the point.
var experiments = map[string]runner{}

// allIDs is the "all" expansion and the canonical ordering, derived
// from registration order. fuzz and top register but are excluded:
// one is a soak, the other an operator view, not a table.
var allIDs []string

// nonTable experiments register normally but stay out of "all".
var nonTable = map[string]bool{"fuzz": true, "top": true}

// register adds one experiment to the dispatch table. It panics on a
// duplicate id so a new experiment cannot silently shadow an earlier
// one — the guard runs at init, so a collision fails every invocation
// loudly rather than corrupting one result quietly.
func register(id string, fn runner) {
	if _, dup := experiments[id]; dup {
		panic(fmt.Sprintf("benchlake: duplicate experiment id %q", id))
	}
	experiments[id] = fn
	if !nonTable[id] {
		allIDs = append(allIDs, id)
	}
}

func init() {
	register("e1", runE1)
	register("e2", runE2)
	register("e3", runE3)
	register("e4", runE4)
	register("e5", runE5)
	register("e6", runE6)
	register("e7", runE7)
	register("e8", runE8)
	register("e9", runE9)
	register("e10", runE10)
	register("e11", runE11)
	register("e12", runE12)
	register("e13", runE13)
	register("e14", runE14)
	register("e15", runE15)
	register("e16", runE16)
	register("e17", runE17)
	register("e18", runE18)
	register("e19", runE19)
	register("e20", runE20)
	register("e21", runE21)
	register("a1", runA1)
	register("a2", runA2)
	register("a3", runA3)
	register("a4", runA4)
	register("fuzz", runFuzz)
	register("top", runTop)
}

// valueFlags take a separate value argument (`-scale 2`); everything
// else is boolean-ish or uses `-flag=value` form.
var valueFlags = map[string]bool{"scale": true, "seed": true, "trials": true, "queries": true}

// normalizeArgs lets flags appear before or after experiment ids (the
// stdlib flag package stops at the first positional) and rewrites a
// bare `-trace` into `-trace=trace.json`.
func normalizeArgs(argv []string) []string {
	var flags, pos []string
	for i := 0; i < len(argv); i++ {
		a := argv[i]
		if !strings.HasPrefix(a, "-") {
			pos = append(pos, a)
			continue
		}
		name := strings.TrimLeft(a, "-")
		if eq := strings.IndexByte(name, '='); eq >= 0 {
			name = name[:eq]
		}
		if name == "trace" && !strings.Contains(a, "=") {
			// Bare -trace: consume a following filename if one is
			// present and isn't itself a flag or experiment id.
			if i+1 < len(argv) && !strings.HasPrefix(argv[i+1], "-") && !knownID(argv[i+1]) {
				flags = append(flags, "-trace="+argv[i+1])
				i++
			} else {
				flags = append(flags, "-trace=trace.json")
			}
			continue
		}
		flags = append(flags, a)
		if valueFlags[name] && !strings.Contains(a, "=") && i+1 < len(argv) {
			flags = append(flags, argv[i+1])
			i++
		}
	}
	return append(flags, pos...)
}

func knownID(s string) bool {
	s = strings.ToLower(s)
	if s == "all" || nonTable[s] {
		return true
	}
	for _, id := range allIDs {
		if s == id {
			return true
		}
	}
	return false
}

func main() {
	if err := flag.CommandLine.Parse(normalizeArgs(os.Args[1:])); err != nil {
		os.Exit(2)
	}
	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	ids := args
	if len(args) == 1 && strings.EqualFold(args[0], "all") {
		ids = allIDs
	}
	multi := len(ids) > 1
	for _, id := range ids {
		if err := run(strings.ToLower(id), multi); err != nil {
			fmt.Fprintf(os.Stderr, "benchlake: %s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Println()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: benchlake [-scale N] [-json] [-trace[=file.json]] [-profile] <experiment>...
experiments: `+strings.Join(allIDs, " ")+` all
telemetry:   benchlake top          # most expensive retained jobs + hottest counters (system.* SQL)
fuzzing:     benchlake [-seed N] [-trials N] [-queries N] [-serve] fuzz`)
}

// emitJSON writes one result struct as <name>.json for machine
// consumption (CI trend tracking).
func emitJSON(name string, res any) error {
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(name, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", name)
	return nil
}

func header(title string) {
	fmt.Println(title)
	fmt.Println(strings.Repeat("-", len(title)))
}

// obsSetup is the per-experiment observability rig: a registry every
// environment of the experiment feeds, and (when -trace/-profile ask
// for spans) a tracer attached to every environment engine.
type obsSetup struct {
	reg    *obs.Registry
	tracer *obs.Tracer
}

func newObsSetup() *obsSetup {
	o := &obsSetup{reg: obs.NewRegistry()}
	if *traceOut != "" || *profileOut {
		o.tracer = &obs.Tracer{Cap: 4096}
	}
	exp.SetObsHook(func(env *exp.Env) { env.Observe(o.reg, o.tracer) })
	return o
}

// emit writes/prints the observability artifacts after an experiment.
func (o *obsSetup) emit(id string, multi bool) error {
	exp.SetObsHook(nil)
	if *jsonOut {
		if err := emitJSON("BENCH_"+strings.ToUpper(id)+"_METRICS.json", o.reg.Snapshot()); err != nil {
			return err
		}
	}
	if o.tracer == nil {
		return nil
	}
	traces := o.tracer.Traces()
	if *traceOut != "" {
		name := *traceOut
		if multi {
			name = id + "_" + name
		}
		data, err := obs.ChromeTrace(traces...)
		if err != nil {
			return err
		}
		if err := os.WriteFile(name, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d traces, %d bytes)\n", name, len(traces), len(data))
	}
	if *profileOut {
		if t := slowest(traces); t != nil {
			fmt.Println()
			fmt.Print(obs.BuildProfile(t).Text())
		} else {
			fmt.Println("profile: no traces recorded (experiment runs no engine queries)")
		}
	}
	return nil
}

// slowest picks the trace with the largest simulated root duration —
// the query EXPLAIN ANALYZE is most interesting for.
func slowest(traces []*obs.Trace) *obs.Trace {
	var best *obs.Trace
	for _, t := range traces {
		if t.Root() == nil {
			continue
		}
		if best == nil || t.Root().SimDuration() > best.Root().SimDuration() {
			best = t
		}
	}
	return best
}

// runner executes one experiment, prints its table, and returns the
// result struct for -json emission.
type runner func(ob *obsSetup) (any, error)

func run(id string, multi bool) error {
	fn, ok := experiments[id]
	if !ok {
		usage()
		return fmt.Errorf("unknown experiment %q", id)
	}
	ob := newObsSetup()
	defer exp.SetObsHook(nil)
	res, err := fn(ob)
	if err != nil {
		return err
	}
	if *jsonOut {
		if err := emitJSON("BENCH_"+strings.ToUpper(id)+".json", res); err != nil {
			return err
		}
	}
	return ob.emit(id, multi)
}

func runE1(_ *obsSetup) (any, error) {
	res, err := exp.RunE1(*scale)
	if err != nil {
		return nil, err
	}
	header("E1 | Figure 4: TPC-DS speedup with metadata caching (simulated wall clock)")
	fmt.Printf("%-6s %-10s %14s %14s %10s\n", "query", "kind", "cache off", "cache on", "speedup")
	for _, r := range res.Rows {
		fmt.Printf("%-6s %-10s %14s %14s %9.2fx\n", r.QueryID, r.Kind, r.CacheOff, r.CacheOn, r.Speedup)
	}
	fmt.Printf("%-6s %-10s %14s %14s %9.2fx   (paper: ~4x overall)\n",
		"TOTAL", "", res.TotalOff, res.TotalOn, res.OverallSpeedup)
	return res, nil
}

func runE2(_ *obsSetup) (any, error) {
	res, err := exp.RunE2(60000 * *scale)
	if err != nil {
		return nil, err
	}
	header("E2 | §3.4: vectorized vs row-oriented Read API (real CPU time)")
	fmt.Printf("rows=%d  vectorized=%v  row-oriented=%v  gain=%.2fx  (paper: ~2x throughput)\n",
		res.Rows, res.VectorizedTime, res.RowOrientedTime, res.ThroughputGain)
	return res, nil
}

func runE3(_ *obsSetup) (any, error) {
	res, err := exp.RunE3(*scale)
	if err != nil {
		return nil, err
	}
	header("E3 | §3.4: read-session statistics improve external-engine plans")
	fmt.Printf("%-6s %14s %14s %10s\n", "plan", "blind", "with stats", "speedup")
	for _, r := range res.Rows {
		fmt.Printf("%-6s %14s %14s %9.2fx\n", r.QueryID, r.Blind, r.WithStat, r.Speedup)
	}
	fmt.Printf("overall %.2fx  (paper: 5x on TPC-DS)\n", res.OverallSpeedup)
	return res, nil
}

func runE4(_ *obsSetup) (any, error) {
	res, err := exp.RunE4(*scale)
	if err != nil {
		return nil, err
	}
	header("E4 | §3.4: external engine via Read API vs direct object-store reads (TPC-H)")
	fmt.Printf("%-10s %14s %14s %18s\n", "plan", "direct", "read api", "direct/api ratio")
	for _, r := range res.Rows {
		fmt.Printf("%-10s %14s %14s %17.2fx\n", r.QueryID, r.Direct, r.ReadAPI, r.Ratio)
	}
	fmt.Println("(paper: Read API matches or exceeds the direct baseline)")
	return res, nil
}

func runE5(_ *obsSetup) (any, error) {
	res, err := exp.RunE5(30 * *scale)
	if err != nil {
		return nil, err
	}
	header("E5 | §3.5: BLMT commit throughput vs object-store-committed formats")
	fmt.Printf("commits=%d  blmt=%.1f/s  objstore=%.1f/s  advantage=%.1fx  read-after=%v\n",
		res.Commits, res.BLMTPerSecond, res.ObjStorePerSecond, res.ThroughputAdvantage, res.ReadAfterCommits)
	fmt.Println("(paper: object stores allow only a handful of mutations per second)")
	return res, nil
}

func runE6(_ *obsSetup) (any, error) {
	res, err := exp.RunE6(5000 * *scale)
	if err != nil {
		return nil, err
	}
	header("E6 | §4.1: object-table inventory vs direct listing")
	fmt.Printf("objects=%d  direct-list=%v  object-table=%v  speedup=%.0fx\n",
		res.Objects, res.DirectList, res.ObjectTable, res.ListSpeedup)
	fmt.Printf("1%% sample: %d rows in %v  (paper: two lines of SQL, seconds not hours)\n",
		res.SampleRows, res.SampleTime)
	return res, nil
}

func runE7(_ *obsSetup) (any, error) {
	res, err := exp.RunE7(16 * *scale)
	if err != nil {
		return nil, err
	}
	header("E7 | Figure 7: distributed preprocess/infer split")
	fmt.Printf("images=%d  colocated-peak=%dB  split-peak=%dB  reduction=%.2fx\n",
		res.Images, res.ColocatedPeakBytes, res.SplitPeakBytes, res.MemoryReduction)
	fmt.Printf("raw-image-bytes=%d  tensor-wire-bytes=%d  (%.0fx smaller on the wire)\n",
		res.RawImageBytes, res.TensorWireBytes, res.WireReductionFactor)
	return res, nil
}

func runE8(_ *obsSetup) (any, error) {
	res, err := exp.RunE8(5, 8**scale)
	if err != nil {
		return nil, err
	}
	header("E8 | §4.2: in-engine vs external inference under burst")
	fmt.Printf("queries=%d  in-engine=%v  remote=%v  penalty=%.2fx  big-model-rejected=%v\n",
		res.Queries, res.InEngineTime, res.RemoteTime, res.RemotePenalty, res.BigModelRejected)
	return res, nil
}

func runE9(_ *obsSetup) (any, error) {
	res, err := exp.RunE9(*scale)
	if err != nil {
		return nil, err
	}
	header("E9 | §5.4: Dremel performance parity across clouds (TPC-H)")
	fmt.Printf("%-6s %14s %14s %10s\n", "query", "gcp", "aws", "aws/gcp")
	for _, r := range res.Rows {
		fmt.Printf("%-6s %14s %14s %9.2fx\n", r.QueryID, r.GCP, r.AWS, r.Ratio)
	}
	return res, nil
}

func runE10(_ *obsSetup) (any, error) {
	res, err := exp.RunE10(100**scale, 1000**scale)
	if err != nil {
		return nil, err
	}
	header("E10 | §5.6.1: cross-cloud join with filter pushdown (A5 = pushdown off)")
	fmt.Printf("pushdown: egress=%dB time=%v\n", res.PushdownEgress, res.PushdownTime)
	fmt.Printf("full ship: egress=%dB time=%v\n", res.FullEgress, res.FullTime)
	fmt.Printf("egress reduction=%.1fx  answers-agree=%v\n", res.EgressReduction, res.AnswersAgree)
	return res, nil
}

func runE11(_ *obsSetup) (any, error) {
	res, err := exp.RunE11(5**scale, 100)
	if err != nil {
		return nil, err
	}
	header("E11 | §5.6.2: CCMV incremental vs full replication")
	fmt.Printf("incremental: files=%d bytes=%d\n", res.IncrementalFiles, res.IncrementalBytes)
	fmt.Printf("full:        files=%d bytes=%d\n", res.FullFiles, res.FullBytes)
	fmt.Printf("egress reduction=%.1fx  replica-correct=%v\n", res.EgressReduction, res.ReplicaRowsCorrect)
	return res, nil
}

func runE12(_ *obsSetup) (any, error) {
	res, err := exp.RunE12()
	if err != nil {
		return nil, err
	}
	header("E12 | §3.2: uniform governance across engines (zero-trust boundary)")
	fmt.Printf("engine rows=%d  read-api rows=%d  rows-agree=%v  masking-agrees=%v\n",
		res.EngineRows, res.ReadAPIRows, res.RowsAgree, res.MaskingAgrees)
	fmt.Printf("hostile-read-denied=%v  denied-column-fails=%v\n",
		res.HostileReadDenied, res.DeniedColumnFails)
	return res, nil
}

func runE13(_ *obsSetup) (any, error) {
	res, err := exp.RunE13(*scale, 40)
	if err != nil {
		return nil, err
	}
	header("E13 | availability under injected object-store faults (TPC-H)")
	fmt.Printf("%-6s %-10s %8s %10s %9s %8s %7s %8s\n",
		"rate", "arm", "queries", "succeeded", "success%", "retries", "hedges", "faults")
	for _, r := range res.Rows {
		fmt.Printf("%-6s %-10s %8d %10d %8.1f%% %8d %7d %8d\n",
			fmt.Sprintf("%.0f%%", 100*r.FaultRate), r.Arm, r.Queries, r.Succeeded, 100*r.SuccessRate, r.Retries, r.Hedges, r.FaultsInjected)
	}
	return res, nil
}

func runE14(_ *obsSetup) (any, error) {
	res, err := exp.RunE14(*scale)
	if err != nil {
		return nil, err
	}
	header("E14 | crash recovery: journal replay time and orphan GC vs journal length")
	fmt.Printf("%8s %8s %11s %9s %10s %9s %12s\n",
		"commits", "orphans", "recover(ms)", "gc(ms)", "gc-bytes", "gc-files", "us/commit")
	for _, r := range res.Rows {
		fmt.Printf("%8d %8d %11.2f %9.2f %10d %9d %12.1f\n",
			r.Commits, r.Orphans, r.RecoverySimMS, r.GCSimMS, r.GCBytes, r.GCDeleted, r.PerCommitUS)
	}
	return res, nil
}

func runE15(_ *obsSetup) (any, error) {
	res, err := exp.RunE15(400000 * *scale)
	if err != nil {
		return nil, err
	}
	header("E15 | vectorized parallel execution: typed kernels, morsels, scan cache (real CPU time)")
	fmt.Printf("fact=%d dim=%d  vectorized=%v\n", res.FactRows, res.DimRows, res.VectorizedTime)
	fmt.Printf("%-8s %14s %10s\n", "workers", "time", "vs 1")
	for _, r := range res.Scaling {
		fmt.Printf("%-8d %14s %9.2fx\n", r.Workers, r.Time, r.Speedup)
	}
	fmt.Printf("scan cache: cold=%v warm=%v (sim %v -> %v)  hits=%d misses=%d warm-GETs=%d\n",
		res.CacheColdTime, res.CacheWarmTime, res.CacheColdSim, res.CacheWarmSim,
		res.CacheHits, res.CacheMisses, res.CacheWarmGets)
	return res, nil
}

func runE16(_ *obsSetup) (any, error) {
	res, err := exp.RunE16(400000 * *scale)
	if err != nil {
		return nil, err
	}
	header("E16 | observability: trace-span attribution of the E15 star join")
	fmt.Printf("fact=%d  stages total=%v\n", res.FactRows, res.StagesTotal)
	fmt.Printf("%-10s %14s\n", "stage", "wall")
	for _, st := range res.Stages {
		fmt.Printf("%-10s %14s\n", st.Name, st.Wall)
	}
	fmt.Printf("scan cache sim-I/O: cold=%v (%d GETs) warm=%v (%d GETs)  hits=%d misses=%d\n",
		res.ColdScanSim, res.ColdGets, res.WarmScanSim, res.WarmGets, res.CacheHits, res.CacheMisses)
	return res, nil
}

func runE17(_ *obsSetup) (any, error) {
	res, err := exp.RunE17(*scale)
	if err != nil {
		return nil, err
	}
	header("E17 | interactive transactions: contention sweep, OCC abort rate and commit throughput")
	fmt.Printf("%-8s %10s %9s %8s %8s %10s %12s %12s %9s\n",
		"writers", "committed", "attempts", "aborts", "retries", "abort rate", "txn/sim-s", "base/sim-s", "overhead")
	for _, r := range res.Rows {
		fmt.Printf("%-8d %10d %9d %8d %8d %9.1f%% %12.1f %12.1f %8.2fx\n",
			r.Writers, r.Committed, r.Attempts, r.Aborts, r.Retries, 100*r.AbortRate, r.TxnPerSec, r.BasePerSec, r.Overhead)
	}
	fmt.Printf("(%d same-snapshot rounds per writer count; 1 in 4 writers read-modify-writes a shared counter file)\n", res.Rounds)
	return res, nil
}

func runE18(_ *obsSetup) (any, error) {
	res, err := exp.RunE18(*scale)
	if err != nil {
		return nil, err
	}
	header("E18 | multi-tenant query service: admission control, fairness, graceful overload")
	fmt.Printf("calibrated warm service time: %v per query\n", res.ServiceEst)
	fmt.Printf("%-6s %8s %10s %7s %10s %10s %8s %12s %12s %12s\n",
		"load", "offered", "completed", "failed", "shed(full)", "shed(wait)", "qps", "p50", "p99", "p999")
	for _, r := range res.Rows {
		fmt.Printf("%-6s %8d %10d %7d %10d %10d %8.0f %12s %12s %12s\n",
			fmt.Sprintf("%.1fx", r.Load), r.Offered, r.Completed, r.Failed,
			r.RejQueueFull, r.RejQueueWait, r.GoodputQPS, r.P50, r.P99, r.P999)
	}
	fmt.Printf("goodput: peak=%.0f qps, at max load=%.0f qps, ratio=%.2f (graceful if >= 0.8)\n",
		res.PeakGoodput, res.GoodputAtMaxLoad, res.GoodputMaxRatio)
	fmt.Printf("fairness: equal-weight max/min=%.2f (want <= 2)  4:1-weight heavy/light=%.2f (want > 1)\n",
		res.EqualFairRatio, res.WeightedRatio)
	fmt.Println("(every shed is a typed overloaded/retry-after error, counted in the serve metrics)")
	return res, nil
}

func runE19(_ *obsSetup) (any, error) {
	res, err := exp.RunE19(*scale)
	if err != nil {
		return nil, err
	}
	header("E19 | end-to-end integrity: silent corruption, quarantine, self-healing repair")
	fmt.Printf("%-6s %8s %8s %8s %7s %6s %8s %7s %9s %10s %9s %10s %6s\n",
		"rate", "damaged", "typed", "wrong", "heals", "scrubs", "scrubMB", "detect", "scrubTime", "rewritten", "reverify", "repairTime", "avail")
	for _, r := range res.Rows {
		fmt.Printf("%-6s %8d %8d %8d %7d %6d %8.2f %6.0f%% %9s %10d %9d %10s %6v\n",
			fmt.Sprintf("%.1f%%", r.Rate*100), r.Damaged, r.TypedFailures, r.WrongAnswers,
			r.RefetchHeals, r.ScrubPasses, float64(r.ScrubBytes)/(1<<20), r.DetectionRate*100,
			r.ScrubTime, r.Rewritten, r.Reverified, r.RepairTime, r.FullAvailability)
	}
	fmt.Printf("wrong answers across the sweep: %d (invariant: 0)\n", res.WrongAnswers)
	fmt.Printf("all damaged objects detected: %v   repair restores availability at >=1%%: %v\n",
		res.AllDetected, res.RestoredAtOnePercent)
	fmt.Println("(corruption degrades to typed integrity errors; scrub and repair heal the table in place)")
	return res, nil
}

func runE20(_ *obsSetup) (any, error) {
	res, err := exp.RunE20(*scale)
	if err != nil {
		return nil, err
	}
	header("E20 | GC-lean execution: per-query arenas, late materialization, perf trajectory")
	fmt.Printf("star join (fact=%d dim=%d), steady state, %s wall:\n", res.FactRows, res.DimRows, res.Lean.Time)
	fmt.Printf("%14s %16s %8s %12s\n", "allocs/op", "bytes/op", "GC/op", "GC-pause/op")
	fmt.Printf("%14.0f %16.0f %8.2f %10.0fus\n", res.Lean.AllocsPerOp, res.Lean.BytesPerOp, res.Lean.GCPerOp, res.Lean.GCPauseUsPerOp)
	fmt.Printf("mixed serve traffic (%d stmts, star join every %d): %.0f qps  point-lookup p99 %.0fus\n",
		res.PointQueries, res.MixEvery, res.LeanQPS, res.LeanP99Us)
	fmt.Printf("%-36s %8s %12s %12s\n", "variance cell", "samples", "mean", "stddev")
	for _, c := range res.Cells {
		fmt.Printf("%-36s %8d %10.0fus %10.0fus\n", c.Name, c.Samples, c.MeanUs, c.StddevUs)
	}
	if regs, base, err := compareE20Baseline(res.Cells); err != nil {
		return nil, err
	} else if base {
		if len(regs) == 0 {
			fmt.Println("trajectory vs committed BENCH_E20.json: all cells within noise bands")
		} else {
			for _, r := range regs {
				fmt.Printf("trajectory REGRESSION %s\n", r)
			}
			return nil, fmt.Errorf("perf trajectory: %d cell(s) regressed beyond the recorded noise band", len(regs))
		}
	}
	return res, nil
}

// compareE20Baseline loads the committed BENCH_E20.json (if any) and
// flags cells outside its noise bands. The bool reports whether a
// baseline existed; no baseline is not an error — the first -json run
// creates it.
func compareE20Baseline(cur []exp.E20Cell) ([]exp.E20Regression, bool, error) {
	data, err := os.ReadFile("BENCH_E20.json")
	if err != nil {
		if os.IsNotExist(err) {
			return nil, false, nil
		}
		return nil, false, err
	}
	var base exp.E20Result
	if err := json.Unmarshal(data, &base); err != nil {
		return nil, false, fmt.Errorf("BENCH_E20.json: %w", err)
	}
	return exp.TrajectoryCompare(base.Cells, cur), true, nil
}

func runE21(_ *obsSetup) (any, error) {
	res, err := exp.RunE21(*scale)
	if err != nil {
		return nil, err
	}
	header("E21 | queryable telemetry: overhead gate and operator questions in system.* SQL")
	fmt.Printf("tenants=%d offered=%d completed=%d shed=%d  service=%v interarrival=%v\n",
		res.Tenants, res.Offered, res.Completed, res.Shed, res.ServiceEst, res.Interarrival)
	fmt.Printf("goodput: recording-off=%.0f qps  recording-on=%.0f qps  overhead=%.2f%% (budget 2%%)\n",
		res.GoodputOff, res.GoodputOn, res.OverheadPct)
	fmt.Printf("trajectory checksums match=%v  wall: off=%v on=%v (informational)\n",
		res.ChecksumMatch, res.WallOff, res.WallOn)
	fmt.Printf("retained jobs=%d  history captures=%d  delta/counter reconcile=%v\n",
		res.JobsRetained, res.HistoryCaptures, res.ReconcileOK)
	fmt.Printf("top tenants by total exec time (system.jobs):\n")
	fmt.Printf("  %-14s %8s %12s\n", "principal", "queries", "total_us")
	for _, r := range res.TopTenants {
		fmt.Printf("  %-14s %8d %12d\n", r.Principal, r.Queries, r.TotalUs)
	}
	fmt.Printf("per-class SLO (system.slo):\n")
	fmt.Printf("  %-8s %10s %12s %8s %8s\n", "class", "p99_us", "attainment", "burn", "total")
	for _, r := range res.SLO {
		fmt.Printf("  %-8s %10d %11.3f%% %8.2f %8d\n", r.Class, r.P99Us, 100*r.Attainment, r.Burn, r.Total)
	}
	fmt.Printf("shed timeline (system.metrics_history, serve.rejected.queue_full): %d points\n",
		len(res.ShedTimeline))
	return res, nil
}

func runTop(_ *obsSetup) (any, error) {
	res, err := exp.RunTop(10)
	if err != nil {
		return nil, err
	}
	header("TOP | most expensive retained jobs and hottest counters (system.* SQL)")
	fmt.Printf("%-14s %-12s %-6s %-6s %10s %12s %10s %12s\n",
		"query_id", "principal", "class", "state", "wait_us", "exec_us", "rows", "bytes")
	for _, j := range res.Jobs {
		fmt.Printf("%-14s %-12s %-6s %-6s %10d %12d %10d %12d\n",
			j.QueryID, j.Principal, j.Class, j.State, j.AdmissionWaitUs, j.ExecSimUs, j.RowsScanned, j.BytesScanned)
	}
	fmt.Println()
	fmt.Printf("%-40s %12s\n", "counter", "value")
	for _, m := range res.Metrics {
		fmt.Printf("%-40s %12d\n", m.Name, m.Value)
	}
	return res, nil
}

func runA1(_ *obsSetup) (any, error) {
	res, err := exp.RunA1(*scale)
	if err != nil {
		return nil, err
	}
	header("A1 | ablation: file-level statistics vs partition-only pruning")
	fmt.Printf("files=%d  scanned(partition-only)=%d  scanned(file-stats)=%d  gain=%.1fx\n",
		res.FilesTotal, res.ScannedPartOnly, res.ScannedFileStats, res.GranularityGain)
	return res, nil
}

func runA2(_ *obsSetup) (any, error) {
	res, err := exp.RunA2(4000 * *scale)
	if err != nil {
		return nil, err
	}
	header("A2 | ablation: governance at the Read API boundary vs client-side")
	fmt.Printf("rows=%d visible=%d  client-side bytes=%d (raw rows leak to the engine)\n",
		res.TotalRows, res.VisibleRows, res.ClientSideBytes)
	fmt.Printf("boundary bytes=%d  exposure reduction=%.1fx  raw-leaked=%v\n",
		res.BoundaryBytes, res.ExposureReduction, res.RawLeaked)
	return res, nil
}

func runA3(_ *obsSetup) (any, error) {
	res, err := exp.RunA3(2000 * *scale)
	if err != nil {
		return nil, err
	}
	header("A3 | ablation: baseline-reconciled snapshot reads vs full log replay")
	fmt.Printf("commits=%d  baseline=%dns/read  replay=%dns/read  speedup=%.1fx\n",
		res.Commits, res.BaselineNanos, res.ReplayNanos, res.Speedup)
	return res, nil
}

func runA4(_ *obsSetup) (any, error) {
	res, err := exp.RunA4(20000 * *scale)
	if err != nil {
		return nil, err
	}
	header("A4 | ablation: dictionary/RLE retention on the ReadRows wire")
	fmt.Printf("plain=%dB  encoded=%dB  reduction=%.1fx\n", res.PlainBytes, res.EncodedBytes, res.Reduction)
	return res, nil
}

func runFuzz(ob *obsSetup) (any, error) {
	mode := ""
	if *fuzzServe {
		mode = " serve=on"
	}
	header(fmt.Sprintf("FUZZ | differential oracle soak (seed=%d trials=%d queries=%d%s)",
		*fuzzSeed, *fuzzTrials, *fuzzQueries, mode))
	rep, err := oracle.Run(oracle.Options{
		Seed:    *fuzzSeed,
		Trials:  *fuzzTrials,
		Queries: *fuzzQueries,
		Serve:   *fuzzServe,
		Tracer:  ob.tracer,
		Log: func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		},
	})
	if err != nil {
		return nil, err
	}
	fmt.Printf("trials=%d queries=%d executions=%d fault-errors-accepted=%d\n",
		rep.Trials, rep.Queries, rep.Executions, rep.FaultErrors)
	if rep.Divergence != nil {
		fmt.Println(rep.Divergence.Format())
		return nil, fmt.Errorf("engine diverged from oracle")
	}
	fmt.Println("no divergences: engine matches oracle across the full configuration matrix")
	return rep, nil
}
