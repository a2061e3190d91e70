package main

// The measurement loop: one closed-loop client sends the workload's
// ops one at a time, in chunks, and consumes (checks) each answer
// before it sends the next op. Around every chunk the runner reads the
// registry and runtime.MemStats, so generating the next ops never
// lands in a per-layer count; a chunk's wall time is the sum of its
// ops' wall times, so the client's own checking is not the program's.

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"biglake/internal/obs"
	"biglake/internal/serve"
	"biglake/internal/storageapi"
	"biglake/internal/vector"
)

// opRec is what the harness records about one op. Durations are the
// benchmark-owned spans around the public calls (source H).
type opRec struct {
	class      int
	fail       bool
	wall       time.Duration // submit -> cursor closed / last stream drained
	first      time.Duration // submit -> first page (completion for DML)
	sim        time.Duration // sim.Clock delta across the op
	stmts      int
	rowsOut    int64
	parse      time.Duration // Session.Parse
	prepare    time.Duration // Prepared.Prepare
	execute    time.Duration // Prepared.Execute
	drain      time.Duration // Cursor.Next loop
	closeCur   time.Duration // Cursor.Close
	commit     time.Duration // the COMMIT statement of a transaction op
	create     time.Duration // CreateReadSession
	readRows   time.Duration // ReadRows, summed over the session's streams
	decode     time.Duration // the client's vector.DecodeBatch
	streams    int
	reused     bool
	wireBytes  int64
	userBytes  int64 // logical bytes this op inserted
	maintained bool
}

type failure struct {
	Op    int    `json:"op"`
	Class string `json:"class"`
	What  string `json:"what"`
}

type runner struct {
	wl     *workload
	in     *inputs
	tables []*lakeTable
	w      *world
	sess   *serve.Session
	epoch  int // next ingest_mix epoch
	pos    int // next op of the stream
	// ht is the harness trace of the op in flight (traced phase, first
	// harnessTraces ops only); htraces keeps them for the trace file.
	ht      *obs.Trace
	htraces []*obs.Trace
	// tracer, when set, is attached to every world's engine.
	tracer *obs.Tracer
}

const harnessTraces = 48

// buildWorld stands up a fresh world over the already-encoded lake
// files and opens the client's session.
func (r *runner) buildWorld() error {
	r.teardown()
	w, err := newWorld()
	if err != nil {
		return err
	}
	for _, t := range r.tables {
		if err := w.loadLake(t); err != nil {
			return err
		}
	}
	if r.wl.govern != nil {
		if err := r.wl.govern(w); err != nil {
			return err
		}
	}
	sess, err := w.srv.Open(admin, "bench")
	if err != nil {
		return err
	}
	w.lh.Engine.Tracer = r.tracer
	r.w, r.sess = w, sess
	return nil
}

// setup builds a world and runs the warm-up. It is what setup_s times.
func (r *runner) setup() error {
	if err := r.buildWorld(); err != nil {
		return err
	}
	r.epoch, r.pos = 0, 0
	ops, err := r.nextOps(r.wl.warmOps)
	if err != nil {
		return err
	}
	for i := range ops {
		var rec opRec
		got, err := r.exec(&ops[i], &rec)
		if msg := verify(&ops[i], got, err); msg != "" {
			return fmt.Errorf("warm-up op %d (%s): %s <- %s", i, r.wl.classes[ops[i].class], msg, describe(&ops[i]))
		}
	}
	return nil
}

func (r *runner) teardown() {
	if r.sess != nil {
		r.sess.Close()
		r.w.srv.Close()
	}
	r.w, r.sess = nil, nil
}

// nextOps returns the next n ops of the stream. For ingest_mix that is
// a whole epoch, and every epoch after the warm-up gets a world of its
// own: the tables start empty and so does the heap, so an op meets the
// same state on every epoch of every run.
func (r *runner) nextOps(n int) ([]op, error) {
	if r.wl.name == "ingest_mix" {
		if r.epoch > 0 {
			if err := r.buildWorld(); err != nil {
				return nil, err
			}
			runtime.GC()
		}
		ops, err := r.wl.ops(r.w, r.in, r.epoch, 0, n)
		r.epoch++
		return ops, err
	}
	ops, err := r.wl.ops(r.w, r.in, 0, r.pos, n)
	r.pos += n
	return ops, err
}

// exec runs one op and returns the batches its answer is made of.
func (r *runner) exec(o *op, rec *opRec) (out []*vector.Batch, err error) {
	rec.class, rec.userBytes = o.class, o.userBytes
	clock := r.w.lh.Clock
	sim0 := clock.Now()
	t0 := time.Now()
	switch {
	case o.maint != nil:
		sp := r.hspan("blmt.optimize")
		err = o.maint(r.w)
		sp.End()
		rec.maintained = true
	case o.read != nil:
		out, err = r.execRead(o, rec, t0)
	default:
		for i, sql := range o.sql {
			var first, commit0 time.Time
			if sql == "COMMIT" {
				commit0 = time.Now()
			}
			out, first, err = r.execStmt(sql, rec)
			if err != nil {
				break
			}
			if sql == "COMMIT" {
				rec.commit = time.Since(commit0)
			}
			if i == len(o.sql)-1 && o.check {
				rec.first = first.Sub(t0)
			}
		}
		if err != nil && r.sess.TxnOpen() {
			_, _, rerr := r.execStmt("ROLLBACK", rec)
			err = errors.Join(err, rerr)
		}
	}
	rec.wall = time.Since(t0)
	rec.sim = clock.Now() - sim0
	if rec.first == 0 {
		rec.first = rec.wall
	}
	return out, err
}

func (r *runner) hspan(name string) *obs.Span {
	if r.ht == nil {
		return nil
	}
	return r.ht.Root().Child(name)
}

// execStmt sends one statement through the serve lifecycle, timing
// each public call.
func (r *runner) execStmt(sql string, rec *opRec) (pages []*vector.Batch, first time.Time, err error) {
	rec.stmts++
	sp := r.hspan("serve.parse")
	a := time.Now()
	p, err := r.sess.Parse(sql)
	b := time.Now()
	sp.End()
	rec.parse += b.Sub(a)
	if err != nil {
		return nil, b, err
	}
	sp = r.hspan("serve.prepare")
	err = p.Prepare()
	c := time.Now()
	sp.End()
	rec.prepare += c.Sub(b)
	if err != nil {
		return nil, c, err
	}
	sp = r.hspan("serve.execute")
	cur, err := p.Execute()
	d := time.Now()
	sp.End()
	rec.execute += d.Sub(c)
	if err != nil {
		return nil, d, err
	}
	sp = r.hspan("serve.drain")
	for {
		pg, nerr := cur.Next()
		if first.IsZero() {
			first = time.Now()
		}
		if nerr != nil {
			err = nerr
			break
		}
		if pg == nil {
			break
		}
		rec.rowsOut += int64(pg.N)
		pages = append(pages, pg)
	}
	e := time.Now()
	sp.End()
	rec.drain += e.Sub(d)
	sp = r.hspan("serve.close")
	cur.Close()
	rec.closeCur += time.Since(e)
	sp.End()
	return pages, first, err
}

// execRead is the external engine: create a read session, drain every
// stream, decode every payload.
func (r *runner) execRead(o *op, rec *opRec, t0 time.Time) (out []*vector.Batch, err error) {
	api := r.w.lh.StorageAPI
	sp := r.hspan("storageapi.create_session")
	a := time.Now()
	rs, err := api.CreateReadSession(*o.read)
	rec.create = time.Since(a)
	sp.End()
	if err != nil {
		return nil, err
	}
	rec.streams, rec.reused = len(rs.Streams), rs.Reused
	for _, stream := range rs.Streams {
		for {
			sp = r.hspan("storageapi.read_rows")
			a = time.Now()
			payload, rerr := api.ReadRows(rs.ID, stream)
			rec.readRows += time.Since(a)
			sp.End()
			if errors.Is(rerr, storageapi.ErrEndOfStream) {
				break
			}
			if rerr != nil {
				return nil, rerr
			}
			if rec.first == 0 {
				rec.first = time.Since(t0)
			}
			rec.wireBytes += int64(len(payload))
			sp = r.hspan("vector.decode_batch")
			a = time.Now()
			b, derr := vector.DecodeBatch(payload)
			rec.decode += time.Since(a)
			sp.End()
			if derr != nil {
				return nil, derr
			}
			rec.rowsOut += int64(b.N)
			out = append(out, b)
		}
	}
	return out, nil
}

// verify compares an op's answer with the generator's expectation and
// returns "" when it matches.
func verify(o *op, got []*vector.Batch, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	if !o.check {
		return ""
	}
	var sum rowSum
	for _, b := range got {
		if o.rowOK != nil {
			for i := 0; i < b.N; i++ {
				if !o.rowOK(b.Row(i)) {
					return fmt.Sprintf("row %v does not qualify", b.Row(i))
				}
			}
			sum.rows += int64(b.N)
			continue
		}
		sumBatch(&sum, b, o.ordered, sum.rows)
	}
	if sum.rows != o.want.rows || (o.rowOK == nil && sum.sum != o.want.sum) {
		return fmt.Sprintf("got %d rows checksum %016x, want %d rows checksum %016x", sum.rows, sum.sum, o.want.rows, o.want.sum)
	}
	return ""
}

// sample is what the window keeps of one op: enough for the latency
// quantiles. Everything else is summed as it happens, so the harness's
// own memory does not grow with the op rate.
type sample struct {
	wall, first, sim time.Duration
	class            uint8
	fail             bool
}

// hsums are the harness spans and counts of a window, summed over ops.
type hsums struct {
	stmts, rowsOut, wireBytes, userBytes          int64
	parse, prepare, execute, drain, closeCur      time.Duration
	reads, streams, reused, maint, txns           int64
	create, readRows, readWall, maintWall, commit time.Duration
}

func (h *hsums) add(r *opRec) {
	h.stmts, h.rowsOut, h.wireBytes, h.userBytes = h.stmts+int64(r.stmts), h.rowsOut+r.rowsOut, h.wireBytes+r.wireBytes, h.userBytes+r.userBytes
	h.parse, h.prepare, h.execute = h.parse+r.parse, h.prepare+r.prepare, h.execute+r.execute
	h.drain, h.closeCur = h.drain+r.drain, h.closeCur+r.closeCur
	if r.streams > 0 {
		h.reads, h.streams = h.reads+1, h.streams+int64(r.streams)
		h.create, h.readRows, h.readWall = h.create+r.create, h.readRows+r.readRows, h.readWall+r.wall
		if r.reused {
			h.reused++
		}
	}
	if r.maintained {
		h.maint, h.maintWall = h.maint+1, h.maintWall+r.wall
	}
	if r.commit > 0 {
		h.txns, h.commit = h.txns+1, h.commit+r.commit
	}
}

// accounted is the part of the op's wall time the harness spans cover.
func (r *opRec) accounted() time.Duration {
	if r.maintained {
		return r.wall
	}
	return r.parse + r.prepare + r.execute + r.drain + r.closeCur + r.create + r.readRows + r.decode
}

type chunkStat struct {
	ops  int
	wall time.Duration
}

// window is one measured phase: a sample per op plus the sums and
// deltas of everything the layers count, over the phase's chunks.
type window struct {
	samples  []sample
	chunks   []chunkStat
	elapsed  time.Duration
	h        hsums
	hByClass []time.Duration  // harness-span time per op class
	counters map[string]int64 // registry counter deltas
	waitSum  int64            // serve.queue.wait_us histogram sum delta
	mem      struct{ mallocs, bytes, gcCycles, gcPauseNs uint64 }
	// gauges read at chunk ends
	arenaPeak, arenaRecycled, cacheBytes int64
	logVersions, walRecords              int64
	failures                             []failure
	// lastOps is a spread of the last chunk's ops, for the replays.
	lastOps []op
	// ingest_mix, from the last epoch's end state
	filesLive             int64
	prefixBytes, liveUser int64
}

// measure runs chunks until stop says so. With ta set, every engine
// trace of a chunk is folded into it and dropped. The samples are
// sized up front (for a fixed-count run exactly, else generously) so
// that appending never copies them mid-window.
func (r *runner) measure(capacity int, stop func(elapsed time.Duration, ops int) bool, ta *traceAgg) (*window, error) {
	win := &window{counters: map[string]int64{}, samples: make([]sample, 0, capacity), hByClass: make([]time.Duration, len(r.wl.classes))}
	var m0, m1 runtime.MemStats
	for {
		ops, err := r.nextOps(r.wl.chunkOps)
		if err != nil {
			return nil, err
		}
		reg, lh := r.w.reg, r.w.lh
		var wall time.Duration
		var chunkUser int64
		before, ver0, seq0 := reg.Snapshot(), lh.Log.Version(), lh.Journal.Seq()
		runtime.ReadMemStats(&m0)
		for i := range ops {
			if ta != nil && len(r.htraces) < harnessTraces {
				r.ht = obs.NewTrace(fmt.Sprintf("bench-op-%d", len(win.samples)), lh.Clock)
				r.htraces = append(r.htraces, r.ht)
			}
			var rec opRec
			got, err := r.exec(&ops[i], &rec)
			if r.ht != nil {
				r.ht.Finish()
				r.ht = nil
			}
			if msg := verify(&ops[i], got, err); msg != "" {
				rec.fail = true
				win.failures = append(win.failures, failure{Op: len(win.samples), Class: r.wl.classes[rec.class],
					What: msg + " <- " + describe(&ops[i])})
			}
			wall += rec.wall
			chunkUser += rec.userBytes
			win.h.add(&rec)
			win.hByClass[rec.class] += rec.accounted()
			win.samples = append(win.samples, sample{rec.wall, rec.first, rec.sim, uint8(rec.class), rec.fail})
		}
		runtime.ReadMemStats(&m1)
		after := reg.Snapshot()

		for name, v := range after.Counters {
			if d := v - before.Counters[name]; d != 0 {
				win.counters[name] += d
			}
		}
		win.waitSum += after.Histograms["serve.queue.wait_us"].Sum - before.Histograms["serve.queue.wait_us"].Sum
		win.mem.mallocs += m1.Mallocs - m0.Mallocs
		win.mem.bytes += m1.TotalAlloc - m0.TotalAlloc
		win.mem.gcCycles += uint64(m1.NumGC - m0.NumGC)
		win.mem.gcPauseNs += m1.PauseTotalNs - m0.PauseTotalNs
		win.arenaPeak = max(win.arenaPeak, after.Gauges["arena.bytes_in_use"])
		win.arenaRecycled += after.Gauges["arena.recycled"] - before.Gauges["arena.recycled"]
		win.cacheBytes = after.Gauges["engine.scan.cache_bytes"]
		win.logVersions += lh.Log.Version() - ver0
		win.walRecords += lh.Journal.Seq() - seq0

		if r.wl.name == "ingest_mix" {
			if err := r.ingestEndState(win, chunkUser); err != nil {
				return nil, err
			}
		}
		if ta != nil {
			ta.absorb(lh.Engine.Tracer)
		}
		win.lastOps = sampleOps(ops, 256)
		win.chunks = append(win.chunks, chunkStat{len(ops), wall})
		win.elapsed += wall
		if stop(win.elapsed, len(win.samples)) {
			return win, nil
		}
	}
}

func describe(o *op) string {
	switch {
	case o.read != nil:
		return fmt.Sprintf("read session on %s %v", o.read.Table, o.read.Predicates)
	case o.maint != nil:
		return "optimize " + o.table
	}
	s := o.sql[len(o.sql)-1]
	if len(s) > 160 {
		s = s[:160] + "..."
	}
	return s
}

// ingestEndState measures what the epoch just run left behind: live
// files of the events table, bytes under both tables' prefixes, and
// the user bytes they hold.
func (r *runner) ingestEndState(win *window, userBytes int64) error {
	lh := r.w.lh
	win.prefixBytes = 0
	for _, name := range []string{"bench.events", "bench.audit"} {
		t, err := lh.Catalog.Table(name)
		if err != nil {
			return err
		}
		infos, err := lh.Store.ListAll(lh.ServiceAccount(), t.Bucket, t.Prefix)
		if err != nil {
			return err
		}
		for _, info := range infos {
			win.prefixBytes += info.Size
		}
	}
	files, _, err := lh.Log.Snapshot("bench.events", -1)
	if err != nil {
		return err
	}
	win.filesLive, win.liveUser = int64(len(files)), userBytes
	return nil
}
