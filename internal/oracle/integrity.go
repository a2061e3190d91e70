package oracle

// The corruption sweep: the differential harness's integrity arm. A
// generated world runs generated queries while the object store
// silently corrupts a seeded fraction of GET responses (bit flips,
// truncations, stale-object substitution), across {scan cache on/off}
// × {chaos faults on/off} × {pre/post compaction}. The contract under
// corruption mirrors the fault contract, tightened:
//
//   - the engine may FAIL a query — with a typed integrity error — but
//     must never return a wrong answer;
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
	"biglake/internal/engine"
	"biglake/internal/integrity"
	"biglake/internal/objstore"
	"biglake/internal/obs"
)

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
	// IntegrityErrors counts queries that failed with a typed
	// corruption error — the allowed degradation.
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

// integrityEngine builds a cell engine wired to the sweep's registry.
func (h *harness) integrityEngine(cell IntegrityCell, reg *obs.Registry, skipQuarantined bool) *engine.Engine {
	meta := bigmeta.NewCache(h.w.clock, nil)
	opts := engine.DefaultOptions()
	opts.EnableScanCache = cell.ScanCache
	opts.SkipQuarantined = skipQuarantined
	eng := engine.New(h.w.cat, h.w.auth, meta, h.w.log, h.w.clock, h.w.stores, opts)
	eng.ManagedCred = h.w.cred
	eng.SetMutator(h.w.mgr)
	eng.UseObs(reg)
	return eng
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

	w, err := newWorld()
	if err != nil {
		return rep, err
	}
	reg := obs.NewRegistry()
	w.store.UseObs(reg)
	w.log.UseObs(reg)

	gen := NewGen(opts.Seed)
	tables := gen.Tables()
	h := &harness{w: w, db: NewDB(), seed: opts.Seed, rep: &Report{}, logf: logf}
	if err := h.install(tables); err != nil {
		return rep, err
	}

	queries := make([]GenQuery, opts.Queries)
	golden := make([]*Resultset, opts.Queries)
	for i := range queries {
		queries[i] = gen.Query(tables)
		rs, err := h.db.ExecSQL(queries[i].SQL)
		if err != nil {
			// Statements both sides reject carry no integrity signal;
			// regenerate until the oracle accepts it.
			for tries := 0; err != nil && tries < 20; tries++ {
				queries[i] = gen.Query(tables)
				rs, err = h.db.ExecSQL(queries[i].SQL)
			}
			if err != nil {
				return rep, fmt.Errorf("could not generate an oracle-valid query: %w", err)
			}
		}
		golden[i] = rs
	}
	rep.Queries = len(queries)

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

	runPhase := func(phase string) error {
		defer w.store.ClearFaults()
		for ci, cell := range cells {
			w.store.InjectFaults(profile(ci, phase))
			eng := h.integrityEngine(cell, reg, false)
			for qi, q := range queries {
				qid := fmt.Sprintf("integ-%d-%s-%d-%d", opts.Seed, phase, ci, qi)
				res, err := eng.Query(engine.NewContext(diffAdmin, qid), q.SQL)
				rep.Executions++
				if err != nil {
					if errors.Is(err, integrity.ErrCorrupt) {
						rep.IntegrityErrors++
					} else {
						rep.OtherErrors++
					}
					continue
				}
				if d := diffResults(FromBatch(res.Batch), golden[qi], q.Ordered); d != "" {
					rep.WrongAnswers++
					if rep.WrongDetail == "" {
						rep.WrongDetail = fmt.Sprintf("phase=%s cell={%s} sql=%s: %s", phase, cell, q.SQL, d)
					}
				}
			}
			logf("phase %s cell {%s}: done", phase, cell)
		}
		return nil
	}

	if err := runPhase("pre"); err != nil {
		return rep, err
	}
	// Compact the managed table fault-free, then sweep again: the
	// rewritten files carry fresh CRCs and generations.
	w.store.ClearFaults()
	var managed *GenTable
	for _, t := range tables {
		if t.Managed {
			managed = t
		}
	}
	if _, err := w.mgr.Optimize(string(diffAdmin), managed.Full, ""); err != nil {
		return rep, fmt.Errorf("optimize %s: %w", managed.Full, err)
	}
	if err := runPhase("post"); err != nil {
		return rep, err
	}

	// Stored-damage leg: corrupt the managed table's files at rest and
	// drive detect -> quarantine -> skip -> repair -> verify.
	w.store.ClearFaults()
	if err := runStoredDamage(h, reg, managed, &rep); err != nil {
		return rep, err
	}

	snap := reg.Snapshot()
	rep.Injected = sumPrefix(snap, "integrity.injected.")
	rep.Detected = sumPrefix(snap, "integrity.detected.")
	rep.Recovered = sumPrefix(snap, "integrity.recovered.")
	rep.Quarantines = snap.Counters["integrity.quarantines"]
	return rep, nil
}

// runStoredDamage flips bits in stored managed-table files, then
// drives the full containment and repair path against the golden
// oracle answer.
func runStoredDamage(h *harness, reg *obs.Registry, managed *GenTable, rep *IntegrityReport) error {
	w := h.w
	goldenSQL := fmt.Sprintf("SELECT * FROM %s", managed.Full)
	golden, err := h.db.ExecSQL(goldenSQL)
	if err != nil {
		return err
	}

	files, _, err := w.log.Snapshot(managed.Full, -1)
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
		data, _, err := w.store.Get(w.cred, f.Bucket, f.Key)
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
		if err := w.store.FlipStoredBit(f.Bucket, f.Key, int64(37+101*i)); err != nil {
			return err
		}
	}
	rep.StoredCorrupted = damage

	// 1. Detection + quarantine: the query must fail typed — both
	// fetches see the same rotten stored bytes.
	eng := h.integrityEngine(IntegrityCell{}, reg, false)
	if _, err := eng.Query(engine.NewContext(diffAdmin, "integ-stored-1"), goldenSQL); err == nil {
		return fmt.Errorf("query over %d bit-flipped files succeeded", damage)
	} else if !errors.Is(err, integrity.ErrCorrupt) {
		return fmt.Errorf("stored corruption surfaced untyped: %v", err)
	}
	rep.StoredQuarantine = len(w.log.Quarantined(managed.Full))
	if rep.StoredQuarantine == 0 {
		return fmt.Errorf("no file quarantined after persistent corruption")
	}

	// 2. Degraded read under the explicit opt-in: skip-and-warn, never
	// a wrong full answer — the result must be a subset of the oracle's.
	skipEng := h.integrityEngine(IntegrityCell{}, reg, true)
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
	rr, err := w.mgr.Repair(string(diffAdmin), managed.Full, func(t catalog.Table, f bigmeta.FileEntry) ([]byte, error) {
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
	if len(w.log.Quarantined(managed.Full)) != 0 {
		return fmt.Errorf("files still quarantined after repair")
	}
	post := h.integrityEngine(IntegrityCell{}, reg, false)
	res, err = post.Query(engine.NewContext(diffAdmin, "integ-stored-3"), goldenSQL)
	if err != nil {
		return fmt.Errorf("query after repair failed: %w", err)
	}
	if d := diffResults(FromBatch(res.Batch), golden, false); d != "" {
		return fmt.Errorf("repaired table diverged from oracle: %s", d)
	}
	rep.RepairVerified = true
	return nil
}
