// Package sparkle implements "Sparkle", the open-source external
// analytics engine of the paper's Spark/Trino role (§3.2, §3.4, Figure
// 5). Sparkle executes DataFrame-style plans over two sources:
//
//   - a direct object-store source that lists the bucket, peeks at
//     every file's footer on the query path and reads the chunks it
//     needs by range through scan.Reader (the "Spark directly reading
//     Parquet from GCS" baseline of §3.4), with the user's own
//     credential, no Big Metadata and no BigLake governance; and
//
//   - a Storage Read API connector (the Spark BigQuery Connector's
//     DataSourceV2 role): the driver creates a read session, executors
//     read the streams in parallel, and — when statistics are enabled —
//     the planner uses the session's Big Metadata statistics for join
//     reordering and dynamic partition pruning (§3.4).
//
// The governance contrast of §3.2 falls out of the sources: the direct
// source sees raw files, the Read API source only ever receives
// filtered, masked batches.
package sparkle

import (
	"errors"
	"fmt"
	"slices"

	"biglake/internal/bigmeta"
	"biglake/internal/catalog"
	"biglake/internal/colfmt"
	"biglake/internal/objstore"
	"biglake/internal/obs"
	"biglake/internal/resilience"
	"biglake/internal/scan"
	"biglake/internal/security"
	"biglake/internal/sim"
	"biglake/internal/storageapi"
	"biglake/internal/vector"
)

// Errors returned by Sparkle.
var (
	ErrNoSource = errors.New("sparkle: frame has no source")
	ErrPlan     = errors.New("sparkle: invalid plan")
)

// Executors is Sparkle's task parallelism.
const Executors = 8

// Options tunes the Sparkle planner.
type Options struct {
	// UseSessionStats lets the planner consume CreateReadSession
	// statistics (join reordering + smaller build sides).
	UseSessionStats bool
	// EnableDPP turns on dynamic partition pruning across joins.
	EnableDPP bool
}

// Session is a Sparkle driver session.
type Session struct {
	Clock *sim.Clock
	// Obs is the session's own registry ("sparkle.*"): Sparkle is an
	// external engine, outside the lakehouse deployment it reads from.
	Obs  *obs.Registry
	Opts Options
}

// NewSession creates a driver session.
func NewSession(clock *sim.Clock, opts Options) *Session {
	return &Session{Clock: clock, Obs: obs.NewRegistry(), Opts: opts}
}

// Frame is a lazily-evaluated relation.
type Frame struct {
	sess  *Session
	src   source
	preds []colfmt.Predicate
	cols  []string
	join  *joinNode
	agg   *aggNode
}

type joinNode struct {
	left, right *Frame
	leftKey     string
	rightKey    string
}

// AggSpec is one aggregate output.
type AggSpec struct {
	Kind   vector.AggKind
	Column string
	As     string
}

type aggNode struct {
	input *Frame
	keys  []string
	aggs  []AggSpec
}

// source produces batches for leaf frames.
type source interface {
	// scan reads with pushdown predicates and projection.
	scan(sess *Session, preds []colfmt.Predicate, cols []string) (*vector.Batch, error)
	// estimate returns a post-pruning row estimate if statistics are
	// available.
	estimate(sess *Session, preds []colfmt.Predicate) (int64, bool)
}

// --- direct object-store source (baseline) ---

type directSource struct {
	store  *objstore.Store
	cred   objstore.Credential
	bucket string
	prefix string
}

// ReadFiles opens a frame over raw columnar files in object storage —
// the engine's own scan path with the user's credential.
func (s *Session) ReadFiles(store *objstore.Store, cred objstore.Credential, bucket, prefix string) *Frame {
	return &Frame{sess: s, src: &directSource{store: store, cred: cred, bucket: bucket, prefix: prefix}}
}

func (d *directSource) estimate(sess *Session, preds []colfmt.Predicate) (int64, bool) {
	return 0, false // no metadata service: the baseline plans blind
}

// scan lists the prefix, peeks at every file's footer and reads the
// chunks of the wanted and predicate columns in the row groups their
// stats keep — all on the query's critical path, file k on executor
// k % Executors. The baseline has no retry policy, and its reader no
// Cache and no Log: no Big Metadata, no governance, no quarantine, but
// the chunk CRCs, the generation and length checks and one refetch.
func (d *directSource) scan(sess *Session, preds []colfmt.Predicate, cols []string) (*vector.Batch, error) {
	var res resilience.Counted
	infos, err := resilience.ListAll(res, sess.Clock, nil, d.store, d.cred, d.bucket, d.prefix)
	if err != nil {
		return nil, err
	}
	sess.Obs.Add("sparkle.direct_list_calls", 1)
	if len(infos) == 0 {
		return nil, fmt.Errorf("sparkle: no files under %s/%s", d.bucket, d.prefix)
	}
	var rd scan.Reader
	parts := make([]vector.Selection, len(infos))
	err = sess.Clock.OnTracks(Executors, len(infos), func(k int, tracks []*sim.Track) error {
		tr := tracks[k%Executors]
		f := bigmeta.FileEntry{Bucket: d.bucket, Key: infos[k].Key, Size: infos[k].Size, Generation: infos[k].Generation}
		footer, gen, err := bigmeta.ReadFooterStats(res, nil, d.store, d.cred, d.bucket, f.Key, tr)
		if err != nil {
			return err
		}
		sess.Obs.Add("sparkle.direct_footer_reads", 1)
		f.Describe(footer, gen)
		src := &scan.Source{Table: catalog.Table{Schema: footer.Schema()}, Store: d.store, Cred: d.cred}
		var want scan.Columns // none asked for: every column
		if len(cols) > 0 {
			want = scan.ColumnsOf(src.Table.Schema, cols...)
			want.AddPredicates(src.Table.Schema, preds)
		}
		parts[k], _, err = rd.ReadBatch(tr, src, f, want, nil, preds)
		return err
	})
	if err != nil {
		return nil, err
	}
	out, err := vector.FilterConcatWith(vector.Mem{}, parts)
	if err != nil || len(cols) == 0 {
		return out, err
	}
	return out.Project(cols) // the predicate columns were read to filter
}

// --- Read API source (the connector) ---

type readAPISource struct {
	server    *storageapi.Server
	principal security.Principal
	table     string
	// keepEnc keeps dict/RLE on the wire (A4).
	keepEnc bool
}

// ReadBigLake opens a frame over a BigLake (or managed) table through
// the Storage Read API.
func (s *Session) ReadBigLake(server *storageapi.Server, principal security.Principal, table string) *Frame {
	return &Frame{sess: s, src: &readAPISource{server: server, principal: principal, table: table}}
}

func (r *readAPISource) session(sess *Session, preds []colfmt.Predicate, cols []string) (*storageapi.ReadSession, error) {
	return r.server.CreateReadSession(storageapi.ReadSessionRequest{
		Table:           r.table,
		Principal:       r.principal,
		Columns:         cols,
		Predicates:      preds,
		SnapshotVersion: -1,
		MaxStreams:      Executors,
		KeepEncodings:   r.keepEnc,
	})
}

func (r *readAPISource) estimate(sess *Session, preds []colfmt.Predicate) (int64, bool) {
	if !sess.Opts.UseSessionStats {
		return 0, false
	}
	rs, err := r.session(sess, preds, nil)
	if err != nil {
		return 0, false
	}
	// File pruning already shrank EstimatedRows; refine with a
	// selectivity heuristic from the Big Metadata column statistics
	// (equality predicates divide by the distinct count, ranges by 3).
	est := rs.EstimatedRows
	for _, p := range preds {
		switch p.Op {
		case vector.EQ:
			if st, ok := rs.Stats.ColumnStats[p.Column]; ok && st.Distinct > 1 {
				est /= st.Distinct
			}
		case vector.LT, vector.LE, vector.GT, vector.GE:
			est /= 3
		}
	}
	if est < 1 {
		est = 1
	}
	return est, true
}

// scan has the executors read the session's streams in parallel,
// stream i on track i, and concatenates the parts in stream order.
func (r *readAPISource) scan(sess *Session, preds []colfmt.Predicate, cols []string) (*vector.Batch, error) {
	rs, err := r.session(sess, preds, cols)
	if err != nil {
		return nil, err
	}
	if !rs.Reused {
		sess.Obs.Add("sparkle.read_sessions", 1)
	}
	parts := make([][]*vector.Batch, len(rs.Streams))
	err = sess.Clock.OnTracks(len(rs.Streams), len(rs.Streams), func(i int, tracks []*sim.Track) error {
		for {
			payload, err := r.server.ReadRowsOn(tracks[i], rs.ID, rs.Streams[i])
			if errors.Is(err, storageapi.ErrEndOfStream) {
				return nil
			}
			if err != nil {
				return err
			}
			sess.Obs.Add("sparkle.readapi_bytes", int64(len(payload)))
			b, err := vector.DecodeBatch(payload)
			if err != nil {
				return err
			}
			// Arrow-native ingestion: decode once, no row conversion.
			parts[i] = append(parts[i], b)
		}
	})
	if err != nil {
		return nil, err
	}
	out, err := vector.Concat(slices.Concat(parts...))
	if out == nil && err == nil {
		out = vector.EmptyBatch(rs.Schema)
	}
	return out, err
}

// --- frame operations ---

// Filter adds a pushdown predicate.
func (f *Frame) Filter(p colfmt.Predicate) *Frame {
	out := *f
	out.preds = append(append([]colfmt.Predicate(nil), f.preds...), p)
	return &out
}

// Select projects columns.
func (f *Frame) Select(cols ...string) *Frame {
	out := *f
	out.cols = cols
	return &out
}

// Join equi-joins this frame with other on leftKey = rightKey.
func (f *Frame) Join(other *Frame, leftKey, rightKey string) *Frame {
	return &Frame{sess: f.sess, join: &joinNode{left: f, right: other, leftKey: leftKey, rightKey: rightKey}}
}

// GroupBy starts an aggregation.
func (f *Frame) GroupBy(keys ...string) *Grouped {
	return &Grouped{frame: f, keys: keys}
}

// Grouped is a pending aggregation.
type Grouped struct {
	frame *Frame
	keys  []string
}

// Agg finishes the aggregation plan.
func (g *Grouped) Agg(aggs ...AggSpec) *Frame {
	return &Frame{sess: g.frame.sess, agg: &aggNode{input: g.frame, keys: g.keys, aggs: aggs}}
}

// Collect executes the plan and materializes the result.
func (f *Frame) Collect() (*vector.Batch, error) {
	switch {
	case f.agg != nil:
		return f.collectAgg()
	case f.join != nil:
		return f.collectJoin()
	case f.src != nil:
		return f.src.scan(f.sess, f.preds, f.cols)
	}
	return nil, ErrNoSource
}

func (f *Frame) collectAgg() (*vector.Batch, error) {
	in, err := f.agg.input.Collect()
	if err != nil {
		return nil, err
	}
	keys := make([]*vector.Column, len(f.agg.keys))
	for i, k := range f.agg.keys {
		ci := in.Schema.Index(k)
		if ci < 0 {
			return nil, fmt.Errorf("%w: group key %q not in %v", ErrPlan, k, in.Schema)
		}
		keys[i] = in.Cols[ci]
	}
	specs := make([]vector.AggSpec, len(f.agg.aggs))
	for i, a := range f.agg.aggs {
		ci := in.Schema.Index(a.Column)
		if ci < 0 {
			return nil, fmt.Errorf("%w: aggregate column %q not in %v", ErrPlan, a.Column, in.Schema)
		}
		specs[i] = vector.AggSpec{Kind: a.Kind, Col: in.Cols[ci]}
	}
	// Groups come out in first-encounter order, each key taken from the
	// group's first row.
	rel := []vector.Selection{vector.Whole(in)}
	g := vector.GroupKeysWith(vector.Mem{}, rel, keys, Executors)
	aggs := vector.GroupAggregateWith(vector.Mem{}, rel, g.IDs, g.NumGroups, specs, Executors)
	var out vector.Schema
	cols := make([]*vector.Column, 0, len(keys)+len(aggs))
	for i, k := range keys {
		out.Fields = append(out.Fields, vector.Field{Name: f.agg.keys[i], Type: k.Type})
		cols = append(cols, vector.GatherNullWith(vector.Mem{}, k, g.Rep))
	}
	for i, c := range aggs {
		out.Fields = append(out.Fields, vector.Field{Name: f.agg.aggs[i].As, Type: c.Type})
		cols = append(cols, c)
	}
	return vector.NewBatch(out, cols)
}

// collectJoin executes the join tree left-deep. With session
// statistics on, the planner scans the estimated-smaller side first
// and (with DPP) pushes its key range into the other side's read
// session.
func (f *Frame) collectJoin() (*vector.Batch, error) {
	j := f.join
	leftEst, leftOK := estimateFrame(j.left)
	rightEst, rightOK := estimateFrame(j.right)
	statsOn := f.sess.Opts.UseSessionStats && leftOK && rightOK

	scanWithDPP := func(first, second *Frame, firstKey, secondKey string) (*vector.Batch, *vector.Batch, error) {
		fb, err := first.Collect()
		if err != nil {
			return nil, nil, err
		}
		sec := second
		if f.sess.Opts.EnableDPP {
			if ci := fb.Schema.Index(firstKey); ci >= 0 {
				min, max, _ := vector.MinMax(fb.Cols[ci], nil)
				if !min.IsNull() {
					sec = sec.Filter(colfmt.Predicate{Column: secondKey, Op: vector.GE, Value: min})
					sec = sec.Filter(colfmt.Predicate{Column: secondKey, Op: vector.LE, Value: max})
					f.sess.Obs.Add("sparkle.dpp_applied", 1)
				}
			}
		}
		sb, err := sec.Collect()
		if err != nil {
			return nil, nil, err
		}
		return fb, sb, nil
	}

	var lb, rb *vector.Batch
	var err error
	if statsOn && rightEst < leftEst {
		rb, lb, err = scanWithDPP(j.right, j.left, j.rightKey, j.leftKey)
	} else if statsOn {
		lb, rb, err = scanWithDPP(j.left, j.right, j.leftKey, j.rightKey)
	} else {
		// Blind plan: scan both fully, in written order, no DPP.
		lb, err = j.left.Collect()
		if err == nil {
			rb, err = j.right.Collect()
		}
	}
	if err != nil {
		return nil, err
	}

	// Hash join; build on the (estimated or actual) smaller side.
	build, probe, buildKey, probeKey := rb, lb, j.rightKey, j.leftKey
	swapped := false
	if statsOn && lb.N < rb.N {
		build, probe, buildKey, probeKey = lb, rb, j.leftKey, j.rightKey
		swapped = true
	}
	bi := build.Schema.Index(buildKey)
	pi := probe.Schema.Index(probeKey)
	if bi < 0 || pi < 0 {
		return nil, fmt.Errorf("%w: join keys %q/%q not found", ErrPlan, j.leftKey, j.rightKey)
	}
	res, err := vector.HashJoinWith(vector.Mem{}, []vector.Selection{vector.Whole(probe)}, build, []int{pi}, []int{bi}, vector.InnerJoin, Executors)
	if err != nil {
		return nil, err
	}
	// gather takes one side's matched rows; identity: every row matched
	// once, in order, and the side's columns are the output's.
	gather := func(b *vector.Batch, idx []int32, identity bool) []*vector.Column {
		cols := make([]*vector.Column, len(b.Cols))
		if identity {
			copy(cols, b.Cols)
		} else {
			vector.GatherNullColsWith(vector.Mem{}, cols, b.Cols, idx, Executors)
		}
		return cols
	}
	leftB, leftCols, rightB, rightCols := probe, gather(probe, res.Left, res.LeftIdentity), build, gather(build, res.Right, false)
	if swapped {
		leftB, leftCols, rightB, rightCols = rightB, rightCols, leftB, leftCols
	}
	fields := append(append([]vector.Field(nil), leftB.Schema.Fields...), rightB.Schema.Fields...)
	// Disambiguate duplicate names from the right side.
	seen := map[string]bool{}
	for i := range fields {
		name := fields[i].Name
		for seen[name] {
			name = name + "_r"
		}
		seen[name] = true
		fields[i].Name = name
	}
	return vector.NewBatch(vector.Schema{Fields: fields}, append(leftCols, rightCols...))
}

func estimateFrame(f *Frame) (int64, bool) {
	if f.src != nil {
		return f.src.estimate(f.sess, f.preds)
	}
	if f.join != nil {
		l, lok := estimateFrame(f.join.left)
		r, rok := estimateFrame(f.join.right)
		if lok && rok {
			if l > r {
				return l, true
			}
			return r, true
		}
	}
	return 0, false
}
