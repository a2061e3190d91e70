// Package sparkle implements "Sparkle", the open-source external
// analytics engine of the paper's Spark/Trino role (§3.2, §3.4, Figure
// 5). Sparkle executes DataFrame-style plans over two sources:
//
//   - a direct object-store source that lists the bucket, peeks at
//     file footers and reads data files itself (the "Spark directly
//     reading Parquet from GCS" baseline of §3.4), with the user's own
//     credential and no BigLake governance; and
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
	"strings"

	"biglake/internal/colfmt"
	"biglake/internal/objstore"
	"biglake/internal/obs"
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

func (d *directSource) scan(sess *Session, preds []colfmt.Predicate, cols []string) (*vector.Batch, error) {
	infos, err := d.store.ListAll(d.cred, d.bucket, d.prefix)
	if err != nil {
		return nil, err
	}
	sess.Obs.Add("sparkle.direct_list_calls", 1)

	// Footer peek per file for skippability, then read survivors —
	// all on the query's critical path, in executor parallel tracks.
	tracks := make([]*sim.Track, Executors)
	for i := range tracks {
		tracks[i] = sess.Clock.StartTrack()
	}
	var parts []*vector.Batch
	for i, info := range infos {
		tr := tracks[i%Executors]
		head, herr := d.store.HeadOn(tr, d.cred, d.bucket, info.Key)
		if herr != nil {
			return nil, herr
		}
		off := head.Size - 64*1024
		if off < 0 {
			off = 0
		}
		tail, _, terr := d.store.GetRangeOn(tr, d.cred, d.bucket, info.Key, off, -1)
		if terr != nil {
			return nil, terr
		}
		footer, ferr := colfmt.ReadFooter(tail)
		if ferr != nil {
			full, _, gerr := d.store.GetOn(tr, d.cred, d.bucket, info.Key)
			if gerr != nil {
				return nil, gerr
			}
			if footer, ferr = colfmt.ReadFooter(full); ferr != nil {
				return nil, ferr
			}
		}
		sess.Obs.Add("sparkle.direct_footer_reads", 1)
		skip := false
		for _, p := range preds {
			if st, ok := footer.ColumnStatsFor(p.Column); ok && !p.StatsCanSatisfy(st) {
				skip = true
			}
		}
		if skip {
			continue
		}
		data, _, gerr := d.store.GetOn(tr, d.cred, d.bucket, info.Key)
		if gerr != nil {
			return nil, gerr
		}
		sess.Obs.Add("sparkle.direct_bytes_read", int64(len(data)))
		r, rerr := colfmt.NewVectorizedReader(data, cols, preds)
		if rerr != nil {
			return nil, rerr
		}
		b, rerr := r.ReadAll()
		if rerr != nil {
			return nil, rerr
		}
		parts = append(parts, b)
	}
	for _, tr := range tracks {
		tr.Join()
	}
	out, err := vector.Concat(parts)
	if out == nil && err == nil {
		err = fmt.Errorf("sparkle: no files under %s/%s", d.bucket, d.prefix)
	}
	return out, err
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

func (r *readAPISource) scan(sess *Session, preds []colfmt.Predicate, cols []string) (*vector.Batch, error) {
	rs, err := r.session(sess, preds, cols)
	if err != nil {
		return nil, err
	}
	if !rs.Reused {
		sess.Obs.Add("sparkle.read_sessions", 1)
	}
	// Executors read streams in parallel tracks.
	tracks := make([]*sim.Track, len(rs.Streams))
	for i := range tracks {
		tracks[i] = sess.Clock.StartTrack()
	}
	var parts []*vector.Batch
	for i, stream := range rs.Streams {
		for {
			payload, err := r.server.ReadRowsOn(tracks[i], rs.ID, stream)
			if errors.Is(err, storageapi.ErrEndOfStream) {
				break
			}
			if err != nil {
				return nil, err
			}
			sess.Obs.Add("sparkle.readapi_bytes", int64(len(payload)))
			b, err := vector.DecodeBatch(payload)
			if err != nil {
				return nil, err
			}
			// Arrow-native ingestion: decode once, no row conversion.
			parts = append(parts, b)
		}
	}
	for _, tr := range tracks {
		tr.Join()
	}
	out, err := vector.Concat(parts)
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
	type group struct {
		key  []vector.Value
		rows []int
	}
	groups := map[string]*group{}
	var order []string
	keyIdx := make([]int, len(f.agg.keys))
	for i, k := range f.agg.keys {
		keyIdx[i] = in.Schema.Index(k)
		if keyIdx[i] < 0 {
			return nil, fmt.Errorf("%w: group key %q not in %v", ErrPlan, k, in.Schema)
		}
	}
	for _, a := range f.agg.aggs {
		if in.Schema.Index(a.Column) < 0 {
			return nil, fmt.Errorf("%w: aggregate column %q not in %v", ErrPlan, a.Column, in.Schema)
		}
	}
	for r := 0; r < in.N; r++ {
		var sb strings.Builder
		key := make([]vector.Value, len(keyIdx))
		for i, ki := range keyIdx {
			key[i] = in.Cols[ki].Value(r)
			fmt.Fprintf(&sb, "%s|", key[i])
		}
		ks := sb.String()
		g, ok := groups[ks]
		if !ok {
			g = &group{key: key}
			groups[ks] = g
			order = append(order, ks)
		}
		g.rows = append(g.rows, r)
	}
	if len(f.agg.keys) == 0 && len(groups) == 0 {
		groups[""] = &group{}
		order = append(order, "")
	}

	fields := make([]vector.Field, 0, len(f.agg.keys)+len(f.agg.aggs))
	for i, k := range f.agg.keys {
		fields = append(fields, vector.Field{Name: k, Type: in.Schema.Fields[keyIdx[i]].Type})
	}
	for _, a := range f.agg.aggs {
		t := vector.Int64
		if a.Kind == vector.AggSum || a.Kind == vector.AggMin || a.Kind == vector.AggMax {
			if ci := in.Schema.Index(a.Column); ci >= 0 {
				t = in.Schema.Fields[ci].Type
			}
		}
		fields = append(fields, vector.Field{Name: a.As, Type: t})
	}
	builder := vector.NewBuilder(vector.Schema{Fields: fields})
	for _, ks := range order {
		g := groups[ks]
		row := make([]vector.Value, 0, len(fields))
		row = append(row, g.key...)
		mask := make([]bool, in.N)
		for _, r := range g.rows {
			mask[r] = true
		}
		for _, a := range f.agg.aggs {
			ci := in.Schema.Index(a.Column)
			if ci < 0 {
				return nil, fmt.Errorf("%w: aggregate column %q not in %v", ErrPlan, a.Column, in.Schema)
			}
			row = append(row, vector.Aggregate(in.Cols[ci], a.Kind, mask))
		}
		builder.Append(row...)
	}
	return builder.Build(), nil
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
				min, max, _ := vector.MinMax(fb.Cols[ci])
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
	ht := make(map[string][]int, build.N)
	bk := build.Cols[bi].Decode()
	for r := 0; r < build.N; r++ {
		v := bk.Value(r)
		if v.IsNull() {
			continue
		}
		ht[v.String()] = append(ht[v.String()], r)
	}
	var probeIdx, buildIdx []int
	pk := probe.Cols[pi].Decode()
	for r := 0; r < probe.N; r++ {
		v := pk.Value(r)
		if v.IsNull() {
			continue
		}
		for _, br := range ht[v.String()] {
			probeIdx = append(probeIdx, r)
			buildIdx = append(buildIdx, br)
		}
	}
	leftB, leftIdx, rightB, rightIdx := probe, probeIdx, build, buildIdx
	if swapped {
		leftB, leftIdx, rightB, rightIdx = build, buildIdx, probe, probeIdx
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
	cols := make([]*vector.Column, 0, len(fields))
	for _, c := range leftB.Cols {
		cols = append(cols, vector.Gather(c, leftIdx))
	}
	for _, c := range rightB.Cols {
		cols = append(cols, vector.Gather(c, rightIdx))
	}
	return vector.NewBatch(vector.Schema{Fields: fields}, cols)
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
