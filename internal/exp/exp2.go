package exp

import (
	"fmt"
	"time"

	"biglake/internal/bigmeta"
	"biglake/internal/catalog"
	"biglake/internal/engine"
	"biglake/internal/inference"
	"biglake/internal/mlmodel"
	"biglake/internal/objtable"
	"biglake/internal/sim"
	"biglake/internal/vector"
)

// --- E5: §3.5 — BLMT commit throughput vs object-store commits ---

// E5Result compares commit rates.
type E5Result struct {
	Commits             int
	BLMTTime            time.Duration
	ObjectStoreTime     time.Duration
	BLMTPerSecond       float64
	ObjStorePerSecond   float64
	ThroughputAdvantage float64
	// ReadAfterCommits verifies reads stay fast: simulated time of a
	// full-table read after all commits (tail + baseline reconcile).
	ReadAfterCommits time.Duration
}

// RunE5 performs n small commits through the BLMT path and through an
// object-store-committed (Iceberg-style) pointer CAS.
func RunE5(n int) (E5Result, error) {
	env, err := NewEnv(engine.DefaultOptions())
	if err != nil {
		return E5Result{}, err
	}
	// The paper's commit is a Spanner-backed log (PAPER.md's substitution
	// table), modelled in process; the object-store journal is this
	// repo's crash-recovery substrate, and its PUTs are not what §3.5
	// compares against object-store commits.
	env.Log.AttachJournal(nil)
	mgr := env.LH.Manager

	schema := vector.NewSchema(
		vector.Field{Name: "id", Type: vector.Int64},
		vector.Field{Name: "v", Type: vector.Float64},
	)
	if err := env.Cat.CreateTable(catalog.Table{
		Dataset: "bench", Name: "stream", Type: catalog.Managed, Schema: schema,
		Cloud: "gcp", Bucket: "bench", Prefix: "blmt/stream/", Connection: "conn",
	}); err != nil {
		return E5Result{}, err
	}

	start := env.Clock.Now()
	for i := 0; i < n; i++ {
		bl := vector.NewBuilder(schema)
		bl.Append(vector.IntValue(int64(i)), vector.FloatValue(float64(i)))
		if err := mgr.Insert(engine.NewContext(Admin, fmt.Sprintf("e5-%d", i)), "bench.stream", bl.Build()); err != nil {
			return E5Result{}, err
		}
	}
	blmtTime := env.Clock.Now() - start

	// Iceberg-style: every commit CAS-updates the table's metadata
	// pointer object.
	gen := int64(0)
	start = env.Clock.Now()
	for i := 0; i < n; i++ {
		info, err := env.Store.PutIfGeneration(env.Cred, "bench", "iceberg/metadata.json", []byte(fmt.Sprintf("snap-%d", i)), "", gen)
		if err != nil {
			return E5Result{}, err
		}
		gen = info.Generation
	}
	objTime := env.Clock.Now() - start

	// Read-side check.
	before := env.Clock.Now()
	res, err := env.query("e5-read", "SELECT COUNT(*) AS n FROM bench.stream")
	if err != nil {
		return E5Result{}, err
	}
	readTime := env.Clock.Now() - before
	if got := res.Batch.Column("n").Value(0).AsInt(); got != int64(n) {
		return E5Result{}, fmt.Errorf("e5: %d of %d committed rows read back", got, n)
	}

	out := E5Result{
		Commits: n, BLMTTime: blmtTime, ObjectStoreTime: objTime,
		ReadAfterCommits: readTime,
	}
	if blmtTime > 0 {
		out.BLMTPerSecond = float64(n) / blmtTime.Seconds()
	}
	if objTime > 0 {
		out.ObjStorePerSecond = float64(n) / objTime.Seconds()
	}
	if out.ObjStorePerSecond > 0 {
		out.ThroughputAdvantage = out.BLMTPerSecond / out.ObjStorePerSecond
	}
	return out, nil
}

// --- E6: §4.1 — object tables vs direct listing at scale ---

// E6Result compares asset-inventory operations over a large bucket.
type E6Result struct {
	Objects     int
	DirectList  time.Duration
	ObjectTable time.Duration
	SampleTime  time.Duration
	SampleRows  int
	ListSpeedup float64
}

// RunE6 creates objects in a bucket, then inventories them via direct
// listing and via an object table backed by the metadata cache, and
// draws the §4.1 1% sample.
func RunE6(objects int) (E6Result, error) {
	env, err := NewEnv(engine.DefaultOptions())
	if err != nil {
		return E6Result{}, err
	}
	for i := 0; i < objects; i++ {
		if _, err := env.Store.Put(env.Cred, "bench", fmt.Sprintf("assets/img-%07d.jpg", i), []byte("x"), "image/jpeg"); err != nil {
			return E6Result{}, err
		}
	}
	if err := env.Cat.CreateTable(catalog.Table{
		Dataset: "bench", Name: "assets", Type: catalog.Object,
		Cloud: "gcp", Bucket: "bench", Prefix: "assets/", Connection: "conn", MetadataCaching: true,
	}); err != nil {
		return E6Result{}, err
	}
	// Background maintenance builds the cache.
	if _, err := env.Meta.Refresh("bench.assets", env.Store, env.Cred, "bench", "assets/", bigmeta.RefreshOptions{Background: true}); err != nil {
		return E6Result{}, err
	}

	// Direct listing on the query path.
	before := env.Clock.Now()
	if _, err := env.Store.ListAll(env.Cred, "bench", "assets/"); err != nil {
		return E6Result{}, err
	}
	direct := env.Clock.Now() - before

	// Object-table inventory.
	before = env.Clock.Now()
	res, err := env.query("e6", "SELECT COUNT(*) AS n FROM bench.assets")
	if err != nil {
		return E6Result{}, err
	}
	tableTime := env.Clock.Now() - before
	if got := res.Batch.Column("n").Value(0).AsInt(); got != int64(objects) {
		return E6Result{}, fmt.Errorf("object table saw %d objects, want %d", got, objects)
	}

	// The two-line 1% sample.
	before = env.Clock.Now()
	all, err := env.query("e6-sample", "SELECT uri FROM bench.assets")
	if err != nil {
		return E6Result{}, err
	}
	sample, err := objtable.Sample(all.Batch, 0.01, 42)
	if err != nil {
		return E6Result{}, err
	}
	sampleTime := env.Clock.Now() - before

	out := E6Result{
		Objects: objects, DirectList: direct, ObjectTable: tableTime,
		SampleTime: sampleTime, SampleRows: sample.N,
	}
	// Cache-served inventories can be free in simulated time; floor
	// the denominator at 1ms so the speedup stays finite.
	den := tableTime
	if den < time.Millisecond {
		den = time.Millisecond
	}
	out.ListSpeedup = float64(direct) / float64(den)
	return out, nil
}

// --- E7: §4.2.1 / Figure 7 — distributed preprocess/infer split ---

// E7Result reports worker memory and wire behaviour.
type E7Result struct {
	Images              int
	ColocatedPeakBytes  int64
	SplitPeakBytes      int64
	MemoryReduction     float64
	TensorWireBytes     int64
	RawImageBytes       int64
	WireReductionFactor float64
}

// RunE7 runs in-engine image inference with the Figure 7 split on and
// off.
func RunE7(images int) (E7Result, error) {
	env, rt, err := newInferenceEnv(images)
	if err != nil {
		return E7Result{}, err
	}
	query := `SELECT predictions FROM ML.PREDICT(MODEL bench.resnet50,
		(SELECT ML.DECODE_IMAGE(uri) AS image FROM bench.images))`

	rt.Colocate = true
	if _, err := env.query("e7a", query); err != nil {
		return E7Result{}, err
	}
	colocated := rt.LastRun()

	rt.Colocate = false
	if _, err := env.query("e7b", query); err != nil {
		return E7Result{}, err
	}
	split := rt.LastRun()

	out := E7Result{
		Images:             images,
		ColocatedPeakBytes: colocated.PeakWorkerBytes,
		SplitPeakBytes:     split.PeakWorkerBytes,
		TensorWireBytes:    split.TensorWireBytes,
		RawImageBytes:      split.RawImageBytes,
	}
	if split.PeakWorkerBytes > 0 {
		out.MemoryReduction = float64(colocated.PeakWorkerBytes) / float64(split.PeakWorkerBytes)
	}
	if split.TensorWireBytes > 0 {
		out.WireReductionFactor = float64(split.RawImageBytes) / float64(split.TensorWireBytes)
	}
	return out, nil
}

func newInferenceEnv(images int) (*Env, *inference.Runtime, error) {
	env, err := NewEnv(engine.DefaultOptions())
	if err != nil {
		return nil, nil, err
	}
	rng := sim.NewRNG(7)
	classes := []string{"dark", "dim", "bright", "blinding"}
	for i := 0; i < images; i++ {
		img := mlmodel.RandomImage(rng, 1024, 1024, i%len(classes), len(classes))
		enc, err := mlmodel.EncodeImage(img)
		if err != nil {
			return nil, nil, err
		}
		if _, err := env.Store.Put(env.Cred, "bench", fmt.Sprintf("imgs/i-%05d.jpg", i), enc, "image/jpeg"); err != nil {
			return nil, nil, err
		}
	}
	if err := env.Cat.CreateTable(catalog.Table{
		Dataset: "bench", Name: "images", Type: catalog.Object,
		Cloud: "gcp", Bucket: "bench", Prefix: "imgs/", Connection: "conn", MetadataCaching: true,
	}); err != nil {
		return nil, nil, err
	}
	rt := env.LH.Inference
	model := mlmodel.NewClassifier("resnet50", inference.TensorSide, 16, classes, 42)
	model.SizeBytes = sim.MB
	rt.RegisterModel(&inference.Model{Name: "bench.resnet50", Classifier: model})
	return env, rt, nil
}

// --- E8: §4.2 — in-engine vs external inference under burst ---

// E8Result compares burst handling and the model-size boundary.
type E8Result struct {
	Queries          int
	InEngineTime     time.Duration
	RemoteTime       time.Duration
	RemotePenalty    float64
	BigModelRejected bool // >2GB models must go external
}

// RunE8 fires a burst of inference queries at the in-engine path and
// at a capacity-bound remote endpoint.
func RunE8(queries, imagesPerQuery int) (E8Result, error) {
	env, rt, err := newInferenceEnv(imagesPerQuery)
	if err != nil {
		return E8Result{}, err
	}

	local := `SELECT predictions FROM ML.PREDICT(MODEL bench.resnet50,
		(SELECT ML.DECODE_IMAGE(uri) AS image FROM bench.images))`
	start := env.Clock.Now()
	for i := 0; i < queries; i++ {
		if _, err := env.query(fmt.Sprintf("e8l%d", i), local); err != nil {
			return E8Result{}, err
		}
	}
	inEngine := env.Clock.Now() - start

	// Remote endpoint with fixed capacity.
	server, err := inference.StartModelServer(env.Clock)
	if err != nil {
		return E8Result{}, err
	}
	defer server.Close()
	model := mlmodel.NewClassifier("bench.remote", inference.TensorSide, 16, []string{"dark", "dim", "bright", "blinding"}, 42)
	rt.RegisterModel(&inference.Model{Name: "bench.remote"})
	server.Host(model)
	if err := rt.ConnectRemote("bench.remote", server); err != nil {
		return E8Result{}, err
	}
	remote := `SELECT predictions FROM ML.PREDICT(MODEL bench.remote,
		(SELECT ML.DECODE_IMAGE(uri) AS image FROM bench.images))`
	start = env.Clock.Now()
	for i := 0; i < queries; i++ {
		if _, err := env.query(fmt.Sprintf("e8r%d", i), remote); err != nil {
			return E8Result{}, err
		}
	}
	remoteTime := env.Clock.Now() - start

	// The 2GB boundary.
	big := mlmodel.NewClassifier("big", inference.TensorSide, 16, []string{"a", "b"}, 1)
	big.SizeBytes = inference.MaxModelBytes + 1
	rt.RegisterModel(&inference.Model{Name: "bench.big", Classifier: big})
	_, bigErr := env.query("e8big", `SELECT predictions FROM ML.PREDICT(MODEL bench.big,
		(SELECT ML.DECODE_IMAGE(uri) AS image FROM bench.images))`)

	out := E8Result{
		Queries: queries, InEngineTime: inEngine, RemoteTime: remoteTime,
		BigModelRejected: bigErr != nil,
	}
	if inEngine > 0 {
		out.RemotePenalty = float64(remoteTime) / float64(inEngine)
	}
	return out, nil
}
