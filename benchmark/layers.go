package main

// The two per-layer sources that need a traced run: self times of the
// engine's own spans (T), read from an obs.Tracer the benchmark
// attaches, and direct replays (D): each layer's public function timed
// on inputs the workload just used.

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"biglake/internal/bigmeta"
	"biglake/internal/catalog"
	"biglake/internal/colfmt"
	"biglake/internal/engine"
	"biglake/internal/integrity"
	"biglake/internal/obs"
	"biglake/internal/sqlparse"
	"biglake/internal/vector"
	"biglake/internal/wal"
)

// traceAgg sums span self times by layer stage over a traced window.
type traceAgg struct {
	wall, sim map[string]time.Duration
	kept      []*obs.Trace // the first engine traces, for the trace file
}

func newTraceAgg() *traceAgg {
	return &traceAgg{wall: map[string]time.Duration{}, sim: map[string]time.Duration{}}
}

// stageOf maps an engine span name to the stage its self time counts
// under. A scan span's whole subtree (meta.prune, per-file reads) is
// the scan stage: its children run on parallel worker tracks, so there
// is no meaningful "self" below it.
func stageOf(name string) (stage string, subtree bool) {
	switch {
	case name == "execute":
		return "plan", false
	case name == "order_by":
		return "order", false
	case strings.HasPrefix(name, "scan "):
		return "scan", true
	case name == "parse", name == "filter", name == "join", name == "aggregate", name == "project", name == "admission":
		return name, false
	case name == "query":
		return "serve", false
	}
	return "other", false
}

func (ta *traceAgg) fold(s *obs.Span) {
	stage, subtree := stageOf(s.Name())
	wall, sim := s.WallDuration(), s.SimDuration()
	if !subtree {
		for _, c := range s.Children() {
			wall -= c.WallDuration()
			sim -= c.SimDuration()
			ta.fold(c)
		}
	}
	ta.wall[stage] += max(wall, 0)
	ta.sim[stage] += max(sim, 0)
}

// absorb folds and drops every trace the tracer holds.
func (ta *traceAgg) absorb(tr *obs.Tracer) {
	for _, t := range tr.Traces() {
		ta.fold(t.Root())
		if len(ta.kept) < harnessTraces {
			ta.kept = append(ta.kept, t)
		}
	}
	tr.Reset()
}

// metrics reports the T metrics, per op of the traced window.
func (ta *traceAgg) metrics(ops int) metrics {
	m := metrics{}
	for _, stage := range []string{"parse", "plan", "scan", "filter", "join", "aggregate", "order", "project"} {
		m.set("engine."+stage+"_self_us", ratio(us(ta.wall[stage]), float64(ops)), "us")
	}
	return m
}

// timeCall returns the median wall time of fn over nine rounds, each
// round long enough (>= 2 ms) for the clock to resolve it.
func timeCall(fn func()) time.Duration {
	reps := 1
	for {
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			fn()
		}
		if d := time.Since(t0); d >= 2*time.Millisecond || reps >= 1<<20 {
			break
		}
		reps *= 4
	}
	rounds := make([]float64, 9)
	for k := range rounds {
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			fn()
		}
		rounds[k] = float64(time.Since(t0)) / float64(reps)
	}
	return time.Duration(median(rounds))
}

// replays times each layer's public function directly (source D) on
// what the workload used: sample are measured ops. A layer the
// workload does not exercise reports 0.
func (r *runner) replays(sample []op) (metrics, error) {
	m := metrics{}
	for _, name := range []string{"sqlparse.parse_us", "bigmeta.prune_us", "bigmeta.prune_keep_ratio", "objstore.get_us",
		"integrity.crc_mb_s", "colfmt.decode_all_us_per_file", "colfmt.decode_selected_us_per_file", "colfmt.decode_mb_s",
		"colfmt.encode_us_per_file", "vector.filter_us", "vector.hashjoin_us", "vector.groupagg_us",
		"vector.wire_encode_us", "vector.wire_decode_us", "blmt.insert_us", "wal.append_intent_us",
		"wal.append_commit_us", "systables.record_us"} {
		unit := "us"
		switch {
		case strings.HasSuffix(name, "_mb_s"):
			unit = "MB/s"
		case strings.HasSuffix(name, "_ratio"):
			unit = "ratio"
		}
		m.set(name, 0, unit)
	}
	lh := r.w.lh

	// sqlparse.Parse on the workload's statement texts.
	var sqls []string
	for i := range sample {
		sqls = append(sqls, sample[i].sql...)
	}
	if len(sqls) > 0 {
		var perr error
		d := timeCall(func() {
			for _, s := range sqls {
				if _, err := sqlparse.Parse(s); err != nil {
					perr = err
				}
			}
		})
		if perr != nil {
			return nil, perr
		}
		m.set("sqlparse.parse_us", us(d)/float64(len(sqls)), "us")
		// Provider.RecordJob on the last record the window produced.
		if jobs := lh.Engine.Sys.Jobs(); len(jobs) > 0 {
			rec := jobs[len(jobs)-1]
			m.set("systables.record_us", us(timeCall(func() { lh.Engine.Sys.RecordJob(rec) })), "us")
		}
	}

	// bigmeta: prune with the workload's predicates.
	var pruned []op
	for i := range sample {
		if len(sample[i].preds) > 0 {
			pruned = append(pruned, sample[i])
		}
	}
	if len(pruned) > 0 {
		var kept, considered int
		var perr error
		prune := func(o *op) (k, n int) {
			if t, err := lh.Catalog.Table(o.table); err == nil && t.Type == catalog.Managed {
				files, _, err := lh.Log.Snapshot(o.table, -1)
				if err != nil {
					perr = err
				}
				for _, f := range files {
					if bigmeta.FileCanMatch(f, o.preds, bigmeta.PruneFiles) {
						k++
					}
				}
				return k, len(files)
			}
			all, err := lh.Meta.Files(o.table)
			if err != nil {
				perr = err
			}
			files, err := lh.Meta.Prune(o.table, o.preds, bigmeta.PruneFiles)
			if err != nil {
				perr = err
			}
			return len(files), len(all)
		}
		for i := range pruned {
			k, n := prune(&pruned[i])
			kept, considered = kept+k, considered+n
		}
		d := timeCall(func() {
			for i := range pruned {
				prune(&pruned[i])
			}
		})
		if perr != nil {
			return nil, perr
		}
		m.set("bigmeta.prune_us", us(d)/float64(len(pruned)), "us")
		m.set("bigmeta.prune_keep_ratio", ratio(float64(kept), float64(considered)), "ratio")
	}

	// One file of the workload's table: fetch, checksum, decode.
	file, preds, err := r.replayFile(pruned)
	if err != nil {
		return nil, err
	}
	var full *vector.Batch
	if file != nil {
		cred := lh.ServiceAccount()
		var data []byte
		var gerr error
		m.set("objstore.get_us", us(timeCall(func() { data, _, gerr = lh.Store.Get(cred, file.Bucket, file.Key) })), "us")
		if gerr != nil {
			return nil, gerr
		}
		mb := float64(len(data)) / 1e6
		m.set("integrity.crc_mb_s", ratio(mb, timeCall(func() { integrity.Checksum(data) }).Seconds()), "MB/s")
		decode := func(cols []string) (*vector.Batch, error) {
			rd, err := colfmt.NewVectorizedReader(data, cols, preds)
			if err != nil {
				return nil, err
			}
			return rd.ReadAll()
		}
		var derr error
		all := timeCall(func() { _, derr = decode(nil) })
		sel := timeCall(func() { _, derr = decode(r.wl.replayCols) })
		if derr != nil {
			return nil, derr
		}
		m.set("colfmt.decode_all_us_per_file", us(all), "us")
		m.set("colfmt.decode_selected_us_per_file", us(sel), "us")
		m.set("colfmt.decode_mb_s", ratio(mb, all.Seconds()), "MB/s")
		if full, err = decode(nil); err != nil {
			return nil, err
		}
	}

	// vector kernels on the decoded batch.
	if full != nil && len(preds) > 0 {
		p := preds[0]
		col := full.Column(p.Column)
		var ferr error
		m.set("vector.filter_us", us(timeCall(func() {
			_, ferr = vector.Filter(full, vector.CompareConst(col, p.Op, p.Value))
		})), "us")
		if ferr != nil {
			return nil, ferr
		}
	}
	workers := lh.Engine.Opts.MorselWorkers
	if workers <= 0 {
		workers = min(runtime.GOMAXPROCS(0), 8)
	}
	switch r.wl.name {
	case "olap_hot":
		dim, err := r.decodeFirst("bench.dim")
		if err != nil {
			return nil, err
		}
		var jerr error
		m.set("vector.hashjoin_us", us(timeCall(func() {
			_, jerr = vector.HashJoin(full, dim, []int{0}, []int{0}, vector.InnerJoin, workers)
		})), "us")
		if jerr != nil {
			return nil, jerr
		}
		m.set("vector.groupagg_us", us(timeCall(func() {
			g := vector.GroupKeys([]*vector.Column{full.Cols[0]}, full.N, workers)
			vector.GroupAggregate(g.IDs, g.NumGroups, []vector.AggSpec{{Kind: vector.AggCount}, {Kind: vector.AggSum, Col: full.Cols[1]}}, workers)
		})), "us")
	case "readapi_gov":
		stream, err := full.Project([]string{"id", "c3", "email"})
		if err != nil {
			return nil, err
		}
		var payload []byte
		m.set("vector.wire_encode_us", us(timeCall(func() { payload = vector.EncodeBatch(stream, false) })), "us")
		var derr error
		m.set("vector.wire_decode_us", us(timeCall(func() { _, derr = vector.DecodeBatch(payload) })), "us")
		if derr != nil {
			return nil, derr
		}
	case "ingest_mix":
		if err := r.replayIngest(m); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// replayFile picks the file the replays decode: the first file the
// first sampled op's predicates keep, with that op's file-level
// predicates.
func (r *runner) replayFile(pruned []op) (*bigmeta.FileEntry, []colfmt.Predicate, error) {
	if len(pruned) == 0 {
		return nil, nil, nil
	}
	lh, o := r.w.lh, &pruned[0]
	t, err := lh.Catalog.Table(o.table)
	if err != nil {
		return nil, nil, err
	}
	var files []bigmeta.FileEntry
	if t.Type == catalog.Managed {
		files, _, err = lh.Log.Snapshot(o.table, -1)
	} else {
		files, err = lh.Meta.Prune(o.table, o.preds, bigmeta.PruneFiles)
	}
	if err != nil || len(files) == 0 {
		return nil, nil, err
	}
	var preds []colfmt.Predicate
	for _, p := range o.preds {
		if t.Schema.Index(p.Column) >= 0 {
			preds = append(preds, p)
		}
	}
	return &files[0], preds, nil
}

func (r *runner) decodeFirst(table string) (*vector.Batch, error) {
	lh := r.w.lh
	files, err := lh.Meta.Files(table)
	if err != nil {
		return nil, err
	}
	data, _, err := lh.Store.Get(lh.ServiceAccount(), files[0].Bucket, files[0].Key)
	if err != nil {
		return nil, err
	}
	rd, err := colfmt.NewVectorizedReader(data, nil, nil)
	if err != nil {
		return nil, err
	}
	return rd.ReadAll()
}

// replayIngest times the write path's layers on scratch targets: a
// 64-row batch through colfmt.WriteFile and Manager.Insert, and intent
// and commit records on a scratch journal prefix.
func (r *runner) replayIngest(m metrics) error {
	lh, sz := r.w.lh, r.in.sz
	ids, kinds, amounts := make([]int64, sz.InsertRows), make([]int64, sz.InsertRows), make([]int64, sz.InsertRows)
	notes := make([]string, sz.InsertRows)
	for i := range ids {
		id := int64(i)
		ids[i], kinds[i], amounts[i], notes[i] = id, eventKind(r.in.seed, id), eventAmount(r.in.seed, id), eventNote(r.in.seed, id)
	}
	batch := vector.MustBatch(eventsSchema, []*vector.Column{
		vector.NewInt64Column(ids), vector.NewInt64Column(kinds), vector.NewInt64Column(amounts), vector.NewStringColumn(notes)})
	var err error
	m.set("colfmt.encode_us_per_file", us(timeCall(func() { _, err = colfmt.WriteFile(batch, colfmt.WriterOptions{}) })), "us")
	if err != nil {
		return err
	}
	if err := r.w.createManaged("scratch", eventsSchema); err != nil {
		return err
	}
	seq := 0
	m.set("blmt.insert_us", us(timeCall(func() {
		seq++
		if ierr := lh.Manager.Insert(engine.NewContext(admin, fmt.Sprintf("replay-%d", seq)), "bench.scratch", batch); ierr != nil {
			err = ierr
		}
	})), "us")
	if err != nil {
		return err
	}
	j, err := wal.Open(lh.Store, lh.ServiceAccount(), managedBucket, "benchwal/")
	if err != nil {
		return err
	}
	keys := []string{"blmt/bench/scratch/data/replay-000000.blk"}
	m.set("wal.append_intent_us", us(timeCall(func() {
		seq++
		if _, jerr := j.AppendIntent(fmt.Sprintf("replay-%d", seq), string(admin), keys); jerr != nil {
			err = jerr
		}
	})), "us")
	if err != nil {
		return err
	}
	commit := bigmeta.TxCommit{Principal: string(admin), Deltas: map[string]bigmeta.TableDelta{
		"bench.scratch": {Added: []bigmeta.FileEntry{{Bucket: managedBucket, Key: keys[0], Size: 2048, RowCount: int64(sz.InsertRows)}}}}}
	m.set("wal.append_commit_us", us(timeCall(func() {
		seq++
		commit.TxnID, commit.Version = fmt.Sprintf("replay-%d", seq), int64(seq)
		if jerr := j.AppendCommit(commit); jerr != nil {
			err = jerr
		}
	})), "us")
	return err
}

// sampleOps picks up to n ops evenly from a set of chunks' worth.
func sampleOps(ops []op, n int) []op {
	if len(ops) <= n {
		return ops
	}
	out := make([]op, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, ops[i*len(ops)/n])
	}
	return out
}

// stageShares renders the traced window's stage self times, wall and
// sim, per op, for layers.json.
func (ta *traceAgg) stageShares(ops int) map[string]map[string]float64 {
	out := map[string]map[string]float64{}
	stages := make([]string, 0, len(ta.wall))
	for s := range ta.wall {
		stages = append(stages, s)
	}
	sort.Strings(stages)
	for _, s := range stages {
		out[s] = map[string]float64{
			"wall_us_per_op": ratio(us(ta.wall[s]), float64(ops)),
			"sim_us_per_op":  ratio(us(ta.sim[s]), float64(ops)),
		}
	}
	return out
}
