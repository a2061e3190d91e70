package main

// The five workloads. Each is a deterministic op stream over one
// world: a pure function of the seed and the op's position, built from
// a fixed interleave of op classes so the class mix (and therefore
// every per-op mean) is the same on every seed; only the parameters
// move. An op carries the answer the generator expects.

import (
	"fmt"
	"strings"

	"biglake/internal/colfmt"
	"biglake/internal/security"
	"biglake/internal/storageapi"
	"biglake/internal/vector"
)

// op is one closed-loop request: a list of SQL statements sent through
// one serve session (all but transactions have one), a Read API
// session, or a maintenance call the harness times as its own class.
type op struct {
	class int
	sql   []string
	read  *storageapi.ReadSessionRequest
	maint func(*world) error

	// want is the expected result of the last statement (or of all
	// streams of the read session); check is false for statements
	// whose effect later reads verify (DML, maintenance).
	check   bool
	want    rowSum
	ordered bool
	// rowOK replaces the checksum when any qualifying rows are a
	// correct answer (LIMIT without ORDER BY): the row count must
	// match want.rows and every row must pass.
	rowOK func(row []vector.Value) bool

	// table and preds restate the op's pushdown for the bigmeta replay.
	table string
	preds []colfmt.Predicate
	// userBytes is the logical size of the rows the op inserts.
	userBytes int64
}

// inputs is everything generated from the seed before the program
// under test is touched.
type inputs struct {
	seed   uint64
	sz     sizes
	orders *ordersData
	star   *starData
	wide   *wideData
	// perm is the workload's seeded visiting order: of bench.wide's
	// blocks of parts, or of olap_hot's thresholds.
	perm []int
}

type workload struct {
	name    string
	classes []string
	// fixedOps is the op count of a full fixed-count run; chunkOps is
	// the unit the runner measures, snapshots counters around, and
	// checks the clock after; warmOps run before the window and are
	// discarded (their time is part of setup_s).
	fixedOps, chunkOps, warmOps int
	// hot workloads assert a scan-cache hit ratio >= 0.95; cold ones
	// assert the table decodes to >= 3x the cache.
	hot, cold bool
	// replayTable is the lake table whose files the per-layer replays
	// decode ("" = the managed table the workload wrote).
	replayTable string
	// replayCols are the columns the dominant op needs from a file:
	// what a projecting decode would read.
	replayCols []string
	// gen generates the workload's inputs into in and returns the lake
	// tables to write; govern installs policies on a built world.
	gen    func(in *inputs) []*lakeTable
	govern func(w *world) error
	// ops returns ops [from, from+n) of the stream. epoch is the
	// chunk index for the workload that starts every chunk in a fresh
	// world (ingest_mix) and is ignored by the others.
	ops func(w *world, in *inputs, epoch, from, n int) ([]op, error)
}

func pred(col string, o vector.CmpOp, v int64) colfmt.Predicate {
	return colfmt.Predicate{Column: col, Op: o, Value: vector.IntValue(v)}
}

// seededPerm is a Fisher-Yates shuffle of 0..n-1 with the row function
// as the random source.
func seededPerm(seed uint64, n int) []int {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(mix(seed, 120, uint64(i)) % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm
}

func workloads() []*workload {
	return []*workload{pointHot(), olapHot(), scanCold(), readapiGov(), ingestMix()}
}

func workloadByName(name string) *workload {
	for _, wl := range workloads() {
		if wl.name == name {
			return wl
		}
	}
	return nil
}

// ---- point_hot ----

// pointHot: the working set fits the scan cache and nothing touches the
// store, so the per-statement floor (parse, plan, admission, prune,
// cache probe, job record) is all of the latency. Plan-cache and
// telemetry-budget work shows here; I/O and kernel work must not.
func pointHot() *workload {
	return &workload{
		name:     "point_hot",
		classes:  []string{"lookup", "range"},
		fixedOps: 400_000, chunkOps: 2000, warmOps: 12_000,
		hot: true, replayTable: "bench.orders", replayCols: []string{"id", "amount", "price"},
		gen: func(in *inputs) []*lakeTable {
			var files []*vector.Batch
			in.orders, files = genOrders(in.seed, in.sz)
			return []*lakeTable{{name: "orders", schema: ordersSchema, files: files}}
		},
		ops: func(_ *world, in *inputs, _, from, n int) ([]op, error) {
			d, rows, span := in.orders, in.orders.rows, int64(in.sz.RangeSpan)
			out := make([]op, n)
			for j := range out {
				i := uint64(from + j)
				if i%10 == 9 {
					lo := int64(mix(in.seed, 101, i) % uint64(rows-span))
					hi := lo + span - 1
					var want rowSum
					want.add(newRowHash().i64(span).
						i64(d.amountPrefix[hi+1] - d.amountPrefix[lo]).
						f64(float64(d.price8Prefix[hi+1]-d.price8Prefix[lo]) / 8))
					out[j] = op{class: 1, check: true, want: want, table: "bench.orders",
						preds: []colfmt.Predicate{pred("id", vector.GE, lo), pred("id", vector.LE, hi)},
						sql:   []string{fmt.Sprintf("SELECT COUNT(*) AS n, SUM(amount) AS amt, SUM(price) AS rev FROM bench.orders WHERE id BETWEEN %d AND %d", lo, hi)}}
					continue
				}
				id := int64(mix(in.seed, 100, i) % uint64(rows))
				var want rowSum
				want.add(newRowHash().i64(id).i64(orderAmount(in.seed, id)).f64(float64(orderPrice8(in.seed, id)) / 8))
				out[j] = op{class: 0, check: true, want: want, table: "bench.orders",
					preds: []colfmt.Predicate{pred("id", vector.EQ, id)},
					sql:   []string{fmt.Sprintf("SELECT id, amount, price FROM bench.orders WHERE id = %d", id)}}
			}
			return out, nil
		},
	}
}

// ---- olap_hot ----

// olapHot: cached star join, 1,024-group GROUP BY and top-100. Vector
// kernels, arena and engine operators do all the work; no I/O, planning
// under 1%. Kernel and arena work shows here; plan-cache and scan-path
// work must not.
func olapHot() *workload {
	return &workload{
		name:     "olap_hot",
		classes:  []string{"star_join", "group_by", "top_k"},
		fixedOps: 1000, chunkOps: 5, warmOps: 10,
		hot: true, replayTable: "bench.fact", replayCols: []string{"k", "amount", "price"},
		gen: func(in *inputs) []*lakeTable {
			var fact []*vector.Batch
			var dim *vector.Batch
			in.star, fact, dim = genStar(in.seed, in.sz)
			in.perm = seededPerm(in.seed, len(olapThresholds))
			return []*lakeTable{
				{name: "fact", schema: factSchema, files: fact},
				{name: "dim", schema: dimSchema, files: []*vector.Batch{dim}},
			}
		},
		ops: func(_ *world, in *inputs, _, from, n int) ([]op, error) {
			out := make([]op, n)
			for j := range out {
				i := uint64(from + j)
				// Thresholds come round in a seeded order, so every
				// (class, threshold) pair is met once per 80 ops and
				// the cost mix is the same on every seed.
				t := in.perm[i%uint64(len(in.perm))]
				th := olapThresholds[t]
				o := op{check: true, ordered: true, table: "bench.fact",
					preds: []colfmt.Predicate{pred("amount", vector.GE, th)}}
				switch i % 5 {
				case 3:
					o.class, o.want = 1, in.star.group[t]
					o.sql = []string{fmt.Sprintf("SELECT k, COUNT(*) AS n, SUM(amount) AS amt FROM bench.fact WHERE amount >= %d GROUP BY k ORDER BY k", th)}
				case 4:
					o.class, o.want = 2, in.star.top[t]
					o.sql = []string{fmt.Sprintf("SELECT k, amount, price FROM bench.fact WHERE amount >= %d ORDER BY price DESC, amount DESC LIMIT %d", th, topK)}
				default:
					o.class, o.want = 0, in.star.join[t]
					o.sql = []string{fmt.Sprintf("SELECT d.grp, COUNT(*) AS n, SUM(f.amount) AS amt, SUM(f.price) AS rev "+
						"FROM bench.fact AS f JOIN bench.dim AS d ON f.k = d.k WHERE f.amount >= %d GROUP BY d.grp ORDER BY d.grp", th)}
				}
				out[j] = o
			}
			return out, nil
		},
	}
}

// ---- scan_cold ----

// blockParts is how many consecutive parts the scan_cold LIMIT op and
// the readapi_gov aggregate session cover. bench.wide is visited in
// blocks of that many parts, the blocks in a seeded order.
const blockParts = 4

func genWideInputs(in *inputs) []*lakeTable {
	var files []*vector.Batch
	in.wide, files = genWide(in.seed, in.sz)
	in.perm = seededPerm(in.seed, in.sz.WideFiles/blockParts)
	return []*lakeTable{{name: "wide", schema: wideSchema, files: files}}
}

// widePart is the part op i visits: the blocks in permuted order, the
// parts of a block in turn, so a part comes round again only after
// every other part has been read.
func (in *inputs) widePart(i int) int64 {
	return int64(in.perm[i/blockParts%len(in.perm)]*blockParts + i%blockParts)
}

// wideBlock is the first part of the block a multi-part op at position
// i covers: the block half a cycle away, read long enough ago to have
// left any cache and not due again until it has left once more.
func (in *inputs) wideBlock(i int) int64 {
	return int64(in.perm[(i/blockParts+len(in.perm)/2)%len(in.perm)] * blockParts)
}

// scanCold: bench.wide is several times the scan cache and a part comes
// round again only after every other part, so fetch, verify and decode
// of all 16 columns dominate. Projection pushdown, per-column caching,
// LIMIT early termination and streaming first-page show here.
func scanCold() *workload {
	return &workload{
		name:     "scan_cold",
		classes:  []string{"agg_part", "limit_parts", "export_part"},
		fixedOps: 1000, chunkOps: 5, warmOps: 10,
		cold: true, replayTable: "bench.wide", replayCols: []string{"part", "c3", "f10"},
		gen: genWideInputs,
		ops: func(_ *world, in *inputs, _, from, n int) ([]op, error) {
			d, seed, rows := in.wide, in.seed, int64(in.sz.WideRowsPerFile)
			out := make([]op, n)
			for j := range out {
				i := from + j
				p := in.widePart(i)
				o := op{check: true, table: "bench.wide", preds: []colfmt.Predicate{pred("part", vector.EQ, p)}}
				switch i % 5 {
				case 3:
					p = in.wideBlock(i)
					o.class = 1
					o.preds = []colfmt.Predicate{pred("part", vector.GE, p), pred("part", vector.LT, p+blockParts), pred("c2", vector.LT, wideLimitC2)}
					o.want.rows = 10
					lo, hi := p*rows, (p+blockParts)*rows
					o.rowOK = func(row []vector.Value) bool {
						id := row[0].I
						return len(row) == 2 && id >= lo && id < hi && row[1].I == wideC2(seed, id) && row[1].I < wideLimitC2
					}
					o.sql = []string{fmt.Sprintf("SELECT id, c2 FROM bench.wide WHERE part >= %d AND part < %d AND c2 < %d LIMIT 10", p, p+blockParts, wideLimitC2)}
				case 4:
					o.class, o.want = 2, d.export[p]
					o.sql = []string{fmt.Sprintf("SELECT id, c2, f10, s14 FROM bench.wide WHERE part = %d", p)}
				default:
					o.class = 0
					o.want.add(newRowHash().i64(d.count[p]).i64(d.sumC3[p]).f64(float64(d.sumF10x8[p]) / 8))
					o.sql = []string{fmt.Sprintf("SELECT COUNT(*) AS n, SUM(c3) AS s3, SUM(f10) AS sf FROM bench.wide WHERE part = %d", p)}
				}
				out[j] = o
			}
			return out, nil
		},
	}
}

// ---- readapi_gov ----

// readapiGov: the external-engine path, as a non-admin principal under a
// row policy and a masked column. It reaches the same colfmt/objstore
// layers as scan_cold through the repo's second prune -> fetch -> decode
// pipeline, so a scan-path change that helps one and hurts the other is
// visible.
func readapiGov() *workload {
	return &workload{
		name:     "readapi_gov",
		classes:  []string{"project_part", "agg_parts"},
		fixedOps: 1500, chunkOps: 5, warmOps: 10,
		cold: true, replayTable: "bench.wide", replayCols: []string{"part", "id", "c2", "c3", "email"},
		gen: genWideInputs,
		govern: func(w *world) error {
			auth := w.lh.Auth
			if err := auth.GrantTable(admin, "bench.wide", analyst, security.RoleViewer); err != nil {
				return err
			}
			if err := auth.AddRowPolicy(admin, "bench.wide", security.RowPolicy{
				Name: "analyst_rows", Grantees: map[security.Principal]bool{analyst: true},
				Filter: []colfmt.Predicate{pred("c2", vector.LT, widePolicyC2)},
			}); err != nil {
				return err
			}
			return auth.SetColumnPolicy(admin, "bench.wide", security.ColumnPolicy{
				Column: "email", Allowed: map[security.Principal]bool{admin: true}, Mask: vector.MaskLastFour,
			})
		},
		ops: func(_ *world, in *inputs, _, from, n int) ([]op, error) {
			d := in.wide
			out := make([]op, n)
			for j := range out {
				i := from + j
				p := in.widePart(i)
				if i%5 != 4 {
					preds := []colfmt.Predicate{pred("part", vector.EQ, p)}
					out[j] = op{class: 0, check: true, want: d.governed[p], table: "bench.wide", preds: preds,
						read: &storageapi.ReadSessionRequest{
							Table: "bench.wide", Principal: analyst, SnapshotVersion: -1, MaxStreams: 2,
							Columns: []string{"id", "c3", "email"}, Predicates: preds,
						}}
					continue
				}
				p = in.wideBlock(i)
				var cnt, sum int64
				for q := p; q < p+blockParts; q++ {
					cnt, sum = cnt+d.governed[q].rows, sum+d.govSumC3[q]
				}
				var want rowSum
				want.add(newRowHash().i64(sum).i64(cnt))
				preds := []colfmt.Predicate{pred("part", vector.GE, p), pred("part", vector.LT, p+blockParts)}
				out[j] = op{class: 1, check: true, want: want, table: "bench.wide", preds: preds,
					read: &storageapi.ReadSessionRequest{
						Table: "bench.wide", Principal: analyst, SnapshotVersion: -1, MaxStreams: 2, Predicates: preds,
						Aggregates: []storageapi.AggregateRequest{{Column: "c3", Kind: vector.AggSum}, {Column: "id", Kind: vector.AggCount}},
					}}
			}
			return out, nil
		},
	}
}

// ---- ingest_mix ----

// ingestPattern is the fixed interleave of ten ops: five inserts, one
// transaction, three read-after-write reads, one whole-table aggregate.
var ingestPattern = [10]int{0, 0, 2, 0, 1, 3, 0, 2, 0, 4}

const (
	ingestInsert = iota
	ingestTxn
	ingestLookup
	ingestRange
	ingestTableAgg
	ingestOptimize
)

// ingestMix: writes beside reads on one managed table. wal, blmt, the
// bigmeta log and txn do the work; reads cross the log tail and
// generation-keyed cache invalidation, so a scan or cache gain that
// costs commits or read-after-write shows here.
func ingestMix() *workload {
	return &workload{
		name:    "ingest_mix",
		classes: []string{"insert", "txn", "lookup", "range", "table_agg", "optimize"},
		// One chunk is one epoch, run in a world of its own: the
		// (growing) state an op meets depends only on its position in
		// the epoch, never on how many epochs a run fits.
		fixedOps: 6000, chunkOps: 2000, warmOps: 500,
		replayCols: []string{"id", "amount"},
		gen:        func(*inputs) []*lakeTable { return nil },
		ops:        ingestOps,
	}
}

// ingestOps creates the epoch's two empty tables in w and builds the
// epoch's first n ops. Ids restart at 0 in every epoch; the row
// function is salted with the epoch.
func ingestOps(w *world, in *inputs, epoch, from, n int) ([]op, error) {
	if from != 0 {
		return nil, fmt.Errorf("ingest_mix ops are generated a whole epoch at a time")
	}
	const events, audit = "bench.events", "bench.audit"
	if err := w.createManaged("events", eventsSchema); err != nil {
		return nil, err
	}
	if err := w.createManaged("audit", auditSchema); err != nil {
		return nil, err
	}
	seed := in.seed ^ uint64(epoch+1)*0xA24BAED4963EE407
	var nextID, total, txns int64
	prefix := []int64{0} // prefix[i] = SUM(amount) over ids < i
	var valueBytes int64
	values := func(rows int) string {
		var sb strings.Builder
		valueBytes = 0
		for r := 0; r < rows; r++ {
			if r > 0 {
				sb.WriteString(", ")
			}
			id := nextID
			a := eventAmount(seed, id)
			note := eventNote(seed, id)
			fmt.Fprintf(&sb, "(%d, %d, %d, '%s')", id, eventKind(seed, id), a, note)
			valueBytes += 3*8 + int64(len(note))
			total += a
			prefix = append(prefix, total)
			nextID++
		}
		return sb.String()
	}
	var out []op
	for i := 0; i < n; i++ {
		u := uint64(i)
		switch class := ingestPattern[i%10]; class {
		case ingestInsert:
			sql := "INSERT INTO " + events + " VALUES " + values(in.sz.InsertRows)
			out = append(out, op{class: class, userBytes: valueBytes, sql: []string{sql}})
		case ingestTxn:
			first := nextID
			insert := "INSERT INTO " + events + " VALUES " + values(in.sz.TxnRows)
			out = append(out, op{class: class, userBytes: valueBytes + 3*8, sql: []string{
				"BEGIN",
				insert,
				fmt.Sprintf("INSERT INTO %s VALUES (%d, %d, %d)", audit, txns, first, in.sz.TxnRows),
				"COMMIT",
			}})
			txns++
		case ingestLookup:
			id := nextID - 1 - int64(mix(seed, 130, u)%uint64(min(nextID, 512)))
			var want rowSum
			want.add(newRowHash().i64(id).i64(eventAmount(seed, id)))
			out = append(out, op{class: class, check: true, want: want, table: events,
				preds: []colfmt.Predicate{pred("id", vector.EQ, id)},
				sql:   []string{fmt.Sprintf("SELECT id, amount FROM %s WHERE id = %d", events, id)}})
		case ingestRange:
			span := min(nextID, 200)
			lo := nextID - span - int64(mix(seed, 131, u)%uint64(min(nextID-span, 824)+1))
			hi := lo + span - 1
			var want rowSum
			want.add(newRowHash().i64(span).i64(prefix[hi+1] - prefix[lo]))
			out = append(out, op{class: class, check: true, want: want, table: events,
				preds: []colfmt.Predicate{pred("id", vector.GE, lo), pred("id", vector.LE, hi)},
				sql:   []string{fmt.Sprintf("SELECT COUNT(*) AS n, SUM(amount) AS amt FROM %s WHERE id BETWEEN %d AND %d", events, lo, hi)}})
		case ingestTableAgg:
			var want rowSum
			want.add(newRowHash().i64(nextID).i64(total))
			out = append(out, op{class: class, check: true, want: want, table: events,
				sql: []string{"SELECT COUNT(*) AS n, SUM(amount) AS amt FROM " + events}})
		}
		if (i+1)%in.sz.OptimizeEvery == 0 {
			out = append(out, op{class: ingestOptimize, table: events, maint: func(w *world) error {
				_, err := w.lh.Manager.Optimize(string(admin), events, "")
				return err
			}})
		}
	}
	return out, nil
}
