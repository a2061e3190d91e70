package oracle

// The corruption sweep: the differential harness's integrity arm. A
// generated world runs generated queries while the object store
// silently corrupts a seeded fraction of GET responses (bit flips,
// truncations, stale-object substitution), across {scan cache on/off}
// × {chaos faults on/off} × {pre/post compaction}. Two more arms share
// the world, the seeds and the contract, because they share the
// reader: a Read API arm (sparkle.ReadBigLake and raw ReadRows, the
// external-engine path) in every phase, and a DML arm (generated
// UPDATE/DELETE, then Optimize) between the phases. The contract under
// corruption mirrors the fault contract, tightened:
//
//   - a read or a rewrite may FAIL — with a typed integrity error, and
//     a failed rewrite commits nothing — but must never return or
//     store a wrong answer;
//   - every failure must be accounted: the registry's
//     integrity.detected.* counters must be nonzero whenever
//     integrity.injected.* is (injected-vs-detected reconciliation);
//   - corruption of the stored copy (not just the response) must end
//     in quarantine, and blmt.Repair from a surviving replica must
//     restore full availability with bit-identical answers.

import (
	"errors"
	"fmt"
	"strings"

	"biglake/internal/bigmeta"
	"biglake/internal/catalog"
	"biglake/internal/colfmt"
	"biglake/internal/engine"
	"biglake/internal/integrity"
	"biglake/internal/objstore"
	"biglake/internal/obs"
	"biglake/internal/sparkle"
	"biglake/internal/storageapi"
	"biglake/internal/vector"
)

// integrityDML is the number of generated UPDATE/DELETE statements the
// DML arm runs between the phases.
const integrityDML = 12

// IntegrityOptions configures a corruption sweep.
type IntegrityOptions struct {
	Seed uint64
	// Queries is the number of generated SELECTs per phase (default 24).
	Queries int
	// CorruptRate is the per-GET silent-corruption probability in the
	// corruption cells (default 0.04).
	CorruptRate float64
	Log         func(format string, args ...any)
}

// IntegrityCell is one corruption-matrix configuration.
type IntegrityCell struct {
	ScanCache bool
	Chaos     bool
}

func (c IntegrityCell) String() string {
	onOff := func(b bool) string {
		if b {
			return "on"
		}
		return "off"
	}
	return fmt.Sprintf("scancache=%s chaos=%s", onOff(c.ScanCache), onOff(c.Chaos))
}

// IntegrityReport is the outcome of one sweep.
type IntegrityReport struct {
	Queries    int
	Executions int
	// ReadAPIReads counts the Read API arm's reads (sparkle frames and
	// raw ReadRows drains); DMLApplied the DML arm's statements that
	// committed. Both are included in Executions.
	ReadAPIReads int
	DMLApplied   int
	// IntegrityErrors counts reads and rewrites that failed with a
	// typed corruption error — the allowed degradation.
	IntegrityErrors int
	// OtherErrors counts non-integrity failures (chaos faults past the
	// retry budget, quarantine commits racing, ...).
	OtherErrors int
	// WrongAnswers counts successful queries whose rows diverged from
	// the oracle. The invariant: always zero.
	WrongAnswers int
	WrongDetail  string
	// Injected / Detected / Recovered / Quarantines are the registry's
	// integrity.* totals after the sweep.
	Injected    int64
	Detected    int64
	Recovered   int64
	Quarantines int64
	// Stored-damage leg: files corrupted at rest, then quarantined,
	// skipped under the opt-in, repaired, and re-verified.
	StoredCorrupted  int
	StoredQuarantine int
	SkippedRows      bool
	Repaired         int
	RepairVerified   bool
}

// sumPrefix totals every counter under a dotted prefix.
func sumPrefix(snap obs.Snapshot, prefix string) int64 {
	var n int64
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, prefix) {
			n += v
		}
	}
	return n
}

// integrityEngine builds a cell engine over the sweep's deployment.
func (h *harness) integrityEngine(cell IntegrityCell, skipQuarantined bool) *engine.Engine {
	opts := engine.DefaultOptions()
	opts.EnableScanCache = cell.ScanCache
	opts.SkipQuarantined = skipQuarantined
	return h.w.NewEngine(opts)
}

// RunIntegritySweep executes the corruption sweep and returns its
// report. The returned error covers infrastructure failures and
// violated invariants are left in the report for the caller to assert
// (WrongAnswers, reconciliation, repair).
func RunIntegritySweep(opts IntegrityOptions) (IntegrityReport, error) {
	if opts.Queries <= 0 {
		opts.Queries = 24
	}
	if opts.CorruptRate <= 0 {
		opts.CorruptRate = 0.04
	}
	logf := opts.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}
	rep := IntegrityReport{}

	w, err := newWorld(engine.DefaultOptions())
	if err != nil {
		return rep, err
	}
	// The sweep's registry is the deployment's: every engine, the Read
	// API, the BLMT manager and the store count into it.
	reg := w.Engine.Obs

	gen := NewGen(opts.Seed)
	tables := gen.Tables()
	h := &harness{w: w, db: NewDB(), seed: opts.Seed, rep: &Report{}, logf: logf}
	if err := h.install(tables); err != nil {
		return rep, err
	}

	queries := make([]GenQuery, opts.Queries)
	for i := range queries {
		queries[i] = gen.Query(tables)
		// Statements both sides reject carry no integrity signal;
		// regenerate until the oracle accepts it.
		_, err := h.db.ExecSQL(queries[i].SQL)
		for tries := 0; err != nil && tries < 20; tries++ {
			queries[i] = gen.Query(tables)
			_, err = h.db.ExecSQL(queries[i].SQL)
		}
		if err != nil {
			return rep, fmt.Errorf("could not generate an oracle-valid query: %w", err)
		}
	}
	rep.Queries = len(queries)
	var managed *GenTable
	for _, t := range tables {
		if t.Managed {
			managed = t
		}
	}

	cells := []IntegrityCell{
		{ScanCache: false, Chaos: false},
		{ScanCache: true, Chaos: false},
		{ScanCache: false, Chaos: true},
		{ScanCache: true, Chaos: true},
	}
	profile := func(cell int, phase string) objstore.FaultProfile {
		p := objstore.FaultProfile{
			Seed:        opts.Seed*1000003 + uint64(cell)<<16 + uint64(len(phase)),
			CorruptRate: opts.CorruptRate,
		}
		if cells[cell].Chaos {
			p.Rate, p.StreakLen = 0.02, 2
		}
		return p
	}
	// judge files one execution's outcome against the oracle's answer.
	judge := func(what string, got *vector.Batch, err error, want *Resultset, ordered bool) {
		rep.Executions++
		switch {
		case errors.Is(err, integrity.ErrCorrupt):
			rep.IntegrityErrors++
		case err != nil:
			rep.OtherErrors++
		default:
			if d := diffResults(FromBatch(got), want, ordered); d != "" {
				rep.WrongAnswers++
				if rep.WrongDetail == "" {
					rep.WrongDetail = what + ": " + d
				}
			}
		}
	}

	runPhase := func(phase string) error {
		defer w.Store.ClearFaults()
		// The DML arm moves the managed table between the phases, so
		// each phase asks the oracle afresh.
		golden := make([]*Resultset, len(queries))
		for i, q := range queries {
			if golden[i], err = h.db.ExecSQL(q.SQL); err != nil {
				return fmt.Errorf("oracle rejects %q in phase %s: %w", q.SQL, phase, err)
			}
		}
		for ci, cell := range cells {
			w.Store.InjectFaults(profile(ci, phase))
			eng := h.integrityEngine(cell, false)
			for qi, q := range queries {
				qid := fmt.Sprintf("integ-%d-%s-%d-%d", opts.Seed, phase, ci, qi)
				res, err := eng.Query(engine.NewContext(diffAdmin, qid), q.SQL)
				var got *vector.Batch
				if err == nil {
					got = res.Batch
				}
				judge(fmt.Sprintf("phase=%s cell={%s} sql=%s", phase, cell, q.SQL), got, err, golden[qi], q.Ordered)
			}
			if !cell.ScanCache {
				// The Read API has no decoded-file cache: one pass per
				// chaos setting covers it.
				if err := h.readAPIArm(fmt.Sprintf("phase=%s cell={%s}", phase, cell), tables, &rep, judge); err != nil {
					return err
				}
			}
			logf("phase %s cell {%s}: done", phase, cell)
		}
		return nil
	}

	if err := runPhase("pre"); err != nil {
		return rep, err
	}
	// Two corrupt responses in a row quarantine a file whose stored copy
	// is clean. A rewrite never skips a quarantined file, so the
	// operator's sequence comes first: re-verify and lift.
	lift := func() error {
		rr, err := w.Manager.Repair(string(diffAdmin), managed.Full, nil)
		if err != nil || len(rr.Failed) > 0 {
			return fmt.Errorf("lifting in-flight quarantines of %s: %+v, %v", managed.Full, rr, err)
		}
		return nil
	}
	if err := lift(); err != nil {
		return rep, err
	}

	// DML arm: generated UPDATE/DELETE under the corruption profile. A
	// statement may fail typed, and then it committed nothing and the
	// oracle skips it; one that succeeds moves the oracle too, and the
	// post phase holds every reader to the result.
	w.Store.InjectFaults(profile(0, "dml"))
	eng := h.integrityEngine(cells[0], false)
	for i := 0; i < integrityDML; i++ {
		// Inserts read nothing, a statement the oracle rejects carries
		// no signal, and an emptied table leaves the later legs nothing
		// to read: draw again.
		sql := gen.DML(managed)
		for tries := 0; tries < 40; tries++ {
			if !strings.HasPrefix(sql, "INSERT") {
				after := h.db.Clone()
				if _, err := after.ExecSQL(sql); err == nil && len(after.Tables[managed.Full].Rows) > 0 {
					break
				}
			}
			sql = gen.DML(managed)
		}
		rep.Executions++
		qid := fmt.Sprintf("integ-%d-dml-%d", opts.Seed, i)
		_, err := eng.Query(engine.NewContext(diffAdmin, qid), sql)
		switch {
		case errors.Is(err, integrity.ErrCorrupt):
			rep.IntegrityErrors++
		case err != nil:
			return rep, fmt.Errorf("dml arm: %q: %w", sql, err)
		default:
			if _, err := h.db.ExecSQL(sql); err != nil {
				return rep, fmt.Errorf("dml arm: oracle rejects %q: %w", sql, err)
			}
			rep.DMLApplied++
		}
	}
	// Then compaction, still under corruption: it may fail typed too.
	// Either way lift and compact fault-free, so the post phase reads
	// rewritten files with fresh CRCs and generations.
	rep.Executions++
	_, err = w.Manager.Optimize(string(diffAdmin), managed.Full, "")
	w.Store.ClearFaults()
	if err != nil {
		if !errors.Is(err, integrity.ErrCorrupt) {
			return rep, fmt.Errorf("optimize %s: %w", managed.Full, err)
		}
		rep.IntegrityErrors++
	}
	if err := lift(); err != nil {
		return rep, err
	}
	if _, err := w.Manager.Optimize(string(diffAdmin), managed.Full, ""); err != nil {
		return rep, fmt.Errorf("optimize %s: %w", managed.Full, err)
	}
	if err := runPhase("post"); err != nil {
		return rep, err
	}

	// Stored-damage leg: corrupt the managed table's files at rest and
	// drive detect -> quarantine -> skip -> repair -> verify. The post
	// phase's chaos may have quarantined a clean file too: lift it, so
	// the leg detects every damaged file itself.
	w.Store.ClearFaults()
	if err := lift(); err != nil {
		return rep, err
	}
	if err := runStoredDamage(h, managed, &rep); err != nil {
		return rep, err
	}

	snap := reg.Snapshot()
	rep.Injected = sumPrefix(snap, "integrity.injected.")
	rep.Detected = sumPrefix(snap, "integrity.detected.")
	rep.Recovered = sumPrefix(snap, "integrity.recovered.")
	rep.Quarantines = snap.Counters["integrity.quarantines"]
	return rep, nil
}

// readAPIArm reads every table the way an external engine does: whole
// through sparkle's connector, filtered through sparkle, and projected
// through raw CreateReadSession/ReadRows — each judged against the
// oracle's answer to the equivalent SELECT.
func (h *harness) readAPIArm(where string, tables []*GenTable, rep *IntegrityReport, judge func(string, *vector.Batch, error, *Resultset, bool)) error {
	srv := h.w.StorageAPI
	sp := sparkle.NewSession(h.w.Clock, sparkle.Options{})
	for _, t := range tables {
		key := t.Schema.Fields[1] // k<i>: a never-null integer
		if t.Managed {
			key = t.Schema.Fields[0]
		}
		pred := colfmt.Predicate{Column: key.Name, Op: vector.GE, Value: vector.IntValue(5)}
		cols := []string{t.Schema.Fields[2].Name, t.Schema.Fields[0].Name}
		reads := []struct {
			sql  string
			read func() (*vector.Batch, error)
		}{
			{"SELECT * FROM " + t.Full, func() (*vector.Batch, error) {
				return sp.ReadBigLake(srv, diffAdmin, t.Full).Collect()
			}},
			{fmt.Sprintf("SELECT * FROM %s WHERE %s >= 5", t.Full, key.Name), func() (*vector.Batch, error) {
				return sp.ReadBigLake(srv, diffAdmin, t.Full).Filter(pred).Collect()
			}},
			{fmt.Sprintf("SELECT %s, %s FROM %s", cols[0], cols[1], t.Full), func() (*vector.Batch, error) {
				rs, err := srv.CreateReadSession(storageapi.ReadSessionRequest{
					Table: t.Full, Principal: diffAdmin, Columns: cols, SnapshotVersion: -1,
				})
				if err != nil {
					return nil, err
				}
				return srv.ReadAll(rs)
			}},
		}
		for _, r := range reads {
			want, err := h.db.ExecSQL(r.sql)
			if err != nil {
				return fmt.Errorf("oracle rejects %q: %w", r.sql, err)
			}
			got, err := r.read()
			rep.ReadAPIReads++
			judge(where+" readapi "+r.sql, got, err, want, false)
		}
	}
	return nil
}

// runStoredDamage flips bits in stored managed-table files, then
// drives the full containment and repair path against the golden
// oracle answer.
func runStoredDamage(h *harness, managed *GenTable, rep *IntegrityReport) error {
	w := h.w
	goldenSQL := fmt.Sprintf("SELECT * FROM %s", managed.Full)
	golden, err := h.db.ExecSQL(goldenSQL)
	if err != nil {
		return err
	}

	files, _, err := w.Log.Snapshot(managed.Full, -1)
	if err != nil {
		return err
	}
	if len(files) == 0 {
		return fmt.Errorf("managed table %s has no files", managed.Full)
	}
	// Keep pristine replicas before damaging anything: the repair
	// path's "surviving replica".
	replicas := make(map[string][]byte, len(files))
	for _, f := range files {
		data, _, err := w.Store.Get(w.ServiceAccount(), f.Bucket, f.Key)
		if err != nil {
			return err
		}
		replicas[f.Key] = append([]byte(nil), data...)
	}
	// Damage up to two files at rest, deterministically.
	damage := len(files)
	if damage > 2 {
		damage = 2
	}
	for i := 0; i < damage; i++ {
		f := files[i]
		if err := w.Store.FlipStoredBit(f.Bucket, f.Key, int64(37+101*i)); err != nil {
			return err
		}
	}
	rep.StoredCorrupted = damage

	// 1. Detection + quarantine: every arm must fail typed — both
	// fetches see the same rotten stored bytes. The Read API meets the
	// damage first and quarantines; the rewrite (which matches no row,
	// but reads every file to find that out) and the query then fail at
	// the gate or at the next damaged file. None may commit or answer.
	eng := h.integrityEngine(IntegrityCell{}, false)
	version := w.Log.Version()
	for _, arm := range []struct {
		name string
		run  func() error
	}{
		{"read api", func() error {
			_, err := sparkle.NewSession(w.Clock, sparkle.Options{}).ReadBigLake(w.StorageAPI, diffAdmin, managed.Full).Collect()
			return err
		}},
		{"rewrite", func() error {
			_, err := eng.Query(engine.NewContext(diffAdmin, "integ-stored-dml"),
				fmt.Sprintf("UPDATE %s SET v2 = v2 WHERE k2 < 0", managed.Full))
			return err
		}},
		{"query", func() error {
			_, err := eng.Query(engine.NewContext(diffAdmin, "integ-stored-1"), goldenSQL)
			return err
		}},
	} {
		if err := arm.run(); err == nil {
			return fmt.Errorf("%s over %d bit-flipped files succeeded", arm.name, damage)
		} else if !errors.Is(err, integrity.ErrCorrupt) {
			return fmt.Errorf("stored corruption surfaced untyped in %s: %v", arm.name, err)
		}
		if len(w.Log.Quarantined(managed.Full)) == 0 {
			return fmt.Errorf("no file quarantined after persistent corruption (%s)", arm.name)
		}
	}
	rep.StoredQuarantine = len(w.Log.Quarantined(managed.Full))
	if got := w.Log.Version() - version; got != int64(rep.StoredQuarantine) {
		return fmt.Errorf("%d commits over damaged files, want only the %d quarantine marks", got, rep.StoredQuarantine)
	}
	for _, f := range files[:damage] {
		if _, ok := w.Log.IsQuarantined(managed.Full, f.Key); !ok {
			return fmt.Errorf("damaged file %s is not quarantined", f.Key)
		}
	}

	// 2. Degraded read under the explicit opt-in: skip-and-warn, never
	// a wrong full answer — the result must be a subset of the oracle's.
	skipEng := h.integrityEngine(IntegrityCell{}, true)
	res, err := skipEng.Query(engine.NewContext(diffAdmin, "integ-stored-2"), goldenSQL)
	if err != nil {
		return fmt.Errorf("SkipQuarantined query failed: %w", err)
	}
	got := FromBatch(res.Batch)
	if len(got.Rows) >= len(golden.Rows) {
		return fmt.Errorf("skip-and-warn returned %d rows, golden has %d — nothing was skipped", len(got.Rows), len(golden.Rows))
	}
	rep.SkippedRows = true

	// 3. Repair from the surviving replicas, then re-verify the full
	// answer bit-identically.
	rr, err := w.Manager.Repair(string(diffAdmin), managed.Full, func(t catalog.Table, f bigmeta.FileEntry) ([]byte, error) {
		data, ok := replicas[f.Key]
		if !ok {
			return nil, fmt.Errorf("no replica for %s", f.Key)
		}
		return data, nil
	})
	if err != nil {
		return err
	}
	rep.Repaired = rr.Rewritten + rr.Reverified
	if len(rr.Failed) > 0 {
		return fmt.Errorf("repair failed for %v", rr.Failed)
	}
	if len(w.Log.Quarantined(managed.Full)) != 0 {
		return fmt.Errorf("files still quarantined after repair")
	}
	post := h.integrityEngine(IntegrityCell{}, false)
	res, err = post.Query(engine.NewContext(diffAdmin, "integ-stored-3"), goldenSQL)
	if err != nil {
		return fmt.Errorf("query after repair failed: %w", err)
	}
	if d := diffResults(FromBatch(res.Batch), golden, false); d != "" {
		return fmt.Errorf("repaired table diverged from oracle: %s", d)
	}
	viaAPI, err := sparkle.NewSession(w.Clock, sparkle.Options{}).ReadBigLake(w.StorageAPI, diffAdmin, managed.Full).Collect()
	if err != nil {
		return fmt.Errorf("read api after repair failed: %w", err)
	}
	if d := diffResults(FromBatch(viaAPI), golden, false); d != "" {
		return fmt.Errorf("repaired table diverged from oracle through the read api: %s", d)
	}
	rep.RepairVerified = true
	return nil
}
