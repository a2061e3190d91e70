// Package inference implements the BQML inference engine of §4.2:
// in-engine inference inside Dremel workers (with the Figure 7
// distributed preprocess/infer split and the model-size memory limit)
// and external inference against remote model endpoints (customer
// models on a Vertex-AI-like HTTP serving platform, and first-party
// models like Document AI that read objects directly via signed URLs).
//
// It registers ML.DECODE_IMAGE as an engine scalar function and
// ML.PREDICT / ML.PROCESS_DOCUMENT as table-valued functions.
package inference

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"biglake/internal/engine"
	"biglake/internal/mlmodel"
	"biglake/internal/objstore"
	"biglake/internal/security"
	"biglake/internal/shuffle"
	"biglake/internal/sim"
	"biglake/internal/vector"
)

// Errors returned by the inference runtime.
var (
	ErrNoModel     = errors.New("inference: no such model")
	ErrModelTooBig = errors.New("inference: model exceeds in-engine memory limit; host it remotely")
	ErrNoTensorCol = errors.New("inference: input has no tensor column")
	ErrNoURIColumn = errors.New("inference: input has no uri column")
	ErrBadURI      = errors.New("inference: malformed object uri")
)

// MaxModelBytes is the in-engine model size limit: "models greater
// than 2GB cannot be loaded" (§4.2).
const MaxModelBytes = 2 << 30

// SandboxOverheadBytes models the per-worker memory cost of sandboxing
// model execution and unstructured-format parsing (§4.2.1).
const SandboxOverheadBytes = sim.MB / 4

// Workers is the per-stage parallelism for distributed inference.
const Workers = 8

// TensorSide is the model input resolution (the 224x224 of the paper,
// scaled down).
const TensorSide = 16

// Model is a registered BQML model.
type Model struct {
	Name       string
	Classifier *mlmodel.Classifier
	DocParser  *mlmodel.DocParser
	// Remote models execute against Endpoint instead of in-engine.
	Remote   bool
	Endpoint string
	// queue books a serving slot on the remote endpoint's virtual
	// capacity timeline (set by ConnectRemote).
	queue func(now time.Duration) time.Duration
}

// MemoryStats reports worker memory and wire behaviour of one
// inference run — the observables of E7.
type MemoryStats struct {
	// PeakWorkerBytes is the largest simultaneous footprint any
	// single worker held.
	PeakWorkerBytes int64
	// TensorWireBytes is what preprocessing shipped to inference
	// workers.
	TensorWireBytes int64
	// RawImageBytes is the total raw object bytes fetched.
	RawImageBytes int64
}

// Runtime is the BQML runtime for one engine deployment.
type Runtime struct {
	Auth    *security.Authority
	Stores  map[string]*objstore.Store
	Clock   *sim.Clock
	Shuffle *shuffle.Service

	// Cred reads unstructured objects (the object table's delegated
	// connection credential).
	Cred objstore.Credential

	// Colocate disables the Figure 7 plan split, decoding images and
	// running the model on the same worker (the ablation baseline).
	Colocate bool

	// MaxModelBytes overrides the in-engine limit (tests).
	MaxModelBytes int64

	// eng is the engine Attach registered the ML functions on; the
	// "inference.*" counters land in its registry.
	eng *engine.Engine

	mu      sync.Mutex
	models  map[string]*Model
	lastRun MemoryStats
}

// NewRuntime builds a runtime.
func NewRuntime(auth *security.Authority, stores map[string]*objstore.Store, clock *sim.Clock, cred objstore.Credential) *Runtime {
	return &Runtime{
		Auth:          auth,
		Stores:        stores,
		Clock:         clock,
		Shuffle:       shuffle.New(clock),
		Cred:          cred,
		MaxModelBytes: MaxModelBytes,
		models:        make(map[string]*Model),
	}
}

// RegisterModel installs a model under its name.
func (rt *Runtime) RegisterModel(m *Model) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.models[m.Name] = m
}

// Model resolves a registered model.
func (rt *Runtime) Model(name string) (*Model, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	m, ok := rt.models[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoModel, name)
	}
	return m, nil
}

// LastRun returns the memory stats of the most recent ML.PREDICT.
func (rt *Runtime) LastRun() MemoryStats {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.lastRun
}

// Attach registers the ML functions on an engine. "inference.*" counts
// in whatever registry the engine has at the time of the count;
// "shuffle.*" in the one it has now.
func (rt *Runtime) Attach(eng *engine.Engine) {
	rt.eng = eng
	rt.Shuffle.UseObs(eng.Obs)
	eng.RegisterScalar("ML.DECODE_IMAGE", rt.decodeImage)
	eng.RegisterTVF("ML.PREDICT", rt.predict)
	eng.RegisterTVF("ML.PROCESS_DOCUMENT", rt.processDocument)
}

// parseURI splits "cloud://bucket/key".
func parseURI(uri string) (cloud, bucket, key string, err error) {
	i := strings.Index(uri, "://")
	if i <= 0 {
		return "", "", "", fmt.Errorf("%w: %q", ErrBadURI, uri)
	}
	rest := uri[i+3:]
	j := strings.IndexByte(rest, '/')
	if j <= 0 || j == len(rest)-1 {
		return "", "", "", fmt.Errorf("%w: %q", ErrBadURI, uri)
	}
	return uri[:i], rest[:j], rest[j+1:], nil
}

func (rt *Runtime) fetch(ch sim.Charger, uri string) ([]byte, error) {
	cloud, bucket, key, err := parseURI(uri)
	if err != nil {
		return nil, err
	}
	store, ok := rt.Stores[cloud]
	if !ok {
		return nil, fmt.Errorf("inference: no object store for cloud %q", cloud)
	}
	data, _, err := store.GetOn(ch, rt.Cred, bucket, key)
	return data, err
}

// decodeImage implements ML.DECODE_IMAGE(uri): it fetches each object
// with the delegated credential, decodes and preprocesses it into a
// model input tensor, and returns the serialized tensors as a BYTES
// column. Fetch+decode fan out over preprocess workers, image i on lane
// i % Workers; a NULL uri is skipped.
func (rt *Runtime) decodeImage(ctx *engine.QueryContext, args []*vector.Column) (*vector.Column, error) {
	if len(args) != 1 {
		return nil, fmt.Errorf("inference: ML.DECODE_IMAGE expects 1 argument")
	}
	uris := args[0].Decode()
	out := make([]string, uris.Len)
	raw := make([]int64, uris.Len)
	err := rt.Clock.OnTracks(Workers, uris.Len, func(i int, tracks []*sim.Track) error {
		v := uris.Value(i)
		if v.IsNull() {
			return nil
		}
		uri := v.S
		data, err := rt.fetch(tracks[i%Workers], uri)
		if err != nil {
			return err
		}
		tensor, err := mlmodel.Preprocess(data, TensorSide)
		if err != nil {
			return fmt.Errorf("inference: %s: %w", uri, err)
		}
		raw[i], out[i] = int64(len(data)), string(tensor.Encode())
		return nil
	})
	if err != nil {
		return nil, err
	}
	var rawBytes, rawMax int64
	for _, n := range raw {
		rawBytes += n
		rawMax = max(rawMax, n)
	}
	rt.mu.Lock()
	rt.lastRun = MemoryStats{RawImageBytes: rawBytes, PeakWorkerBytes: rawMax + SandboxOverheadBytes}
	rt.mu.Unlock()
	rt.eng.Obs.Add("inference.images_decoded", int64(uris.Len))
	return &vector.Column{Type: vector.Bytes, Len: uris.Len, Enc: vector.Plain, Strs: out}, nil
}

// tensorColumn locates the input tensor column (first BYTES column).
func tensorColumn(input *vector.Batch) (int, error) {
	for i, f := range input.Schema.Fields {
		if f.Type == vector.Bytes {
			return i, nil
		}
	}
	return -1, ErrNoTensorCol
}

// predict implements ML.PREDICT. For local models it runs the Figure 7
// distributed plan: tensors travel through the shuffle tier to
// inference workers, so raw images and model weights never share a
// worker. For remote models it calls the model endpoint.
func (rt *Runtime) predict(ctx *engine.QueryContext, modelName string, input *vector.Batch) (*vector.Batch, error) {
	model, err := rt.Model(modelName)
	if err != nil {
		return nil, err
	}
	if model.Remote {
		return rt.remotePredict(ctx, model, input)
	}
	if model.Classifier == nil {
		return nil, fmt.Errorf("inference: model %q is not a classifier", modelName)
	}
	if model.Classifier.SizeBytes > rt.maxModel() {
		return nil, fmt.Errorf("%w: %q is %d bytes (limit %d)", ErrModelTooBig, modelName, model.Classifier.SizeBytes, rt.maxModel())
	}

	ti, err := tensorColumn(input)
	if err != nil {
		return nil, err
	}
	tensors := input.Cols[ti].Decode()

	// Exchange tensors worker->worker through the shuffle tier
	// (Figure 7). The payload accounting is the experiment observable.
	sessID, err := rt.Shuffle.CreateSession(Workers)
	if err != nil {
		return nil, err
	}
	defer rt.Shuffle.Drop(sessID)
	var wireBytes int64
	for i := 0; i < tensors.Len; i++ {
		payload := []byte(tensors.Strs[i])
		wireBytes += int64(len(payload))
		if err := rt.Shuffle.Write(sessID, i%Workers, payload); err != nil {
			return nil, err
		}
	}
	if err := rt.Shuffle.Seal(sessID); err != nil {
		return nil, err
	}

	// Inference workers, one lane each, hold the model plus one tensor
	// at a time; worker w reads shuffle partition w.
	predictions := make([]string, tensors.Len)
	workerMax := make([]int64, Workers)
	err = rt.Clock.OnTracks(Workers, Workers, func(w int, _ []*sim.Track) error {
		payloads, err := rt.Shuffle.Read(sessID, w)
		if err != nil {
			return err
		}
		for j, payload := range payloads {
			tensor, err := mlmodel.DecodeTensor(payload)
			if err != nil {
				return err
			}
			label, _, err := model.Classifier.Predict(tensor)
			if err != nil {
				return err
			}
			// Row i was routed to partition i%Workers in order.
			predictions[w+j*Workers] = label
			workerMax[w] = max(workerMax[w], int64(len(payload)))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	maxTensor := slices.Max(workerMax)

	rt.mu.Lock()
	prev := rt.lastRun
	stats := MemoryStats{
		TensorWireBytes: wireBytes,
		RawImageBytes:   prev.RawImageBytes,
	}
	if rt.Colocate {
		// Ablation: one worker decodes the raw image AND hosts the
		// model.
		stats.PeakWorkerBytes = prev.PeakWorkerBytes + model.Classifier.SizeBytes
		stats.TensorWireBytes = 0
	} else {
		infPeak := model.Classifier.SizeBytes + maxTensor + SandboxOverheadBytes
		stats.PeakWorkerBytes = prev.PeakWorkerBytes // preprocess worker
		if infPeak > stats.PeakWorkerBytes {
			stats.PeakWorkerBytes = infPeak
		}
	}
	rt.lastRun = stats
	rt.mu.Unlock()
	rt.eng.Obs.Add("inference.inferences", int64(tensors.Len))

	fields := append([]vector.Field{}, input.Schema.Fields...)
	fields = append(fields, vector.Field{Name: "predictions", Type: vector.String})
	cols := append([]*vector.Column{}, input.Cols...)
	cols = append(cols, vector.NewStringColumn(predictions))
	return vector.NewBatch(vector.Schema{Fields: fields}, cols)
}

func (rt *Runtime) maxModel() int64 {
	if rt.MaxModelBytes > 0 {
		return rt.MaxModelBytes
	}
	return MaxModelBytes
}

// processDocument implements ML.PROCESS_DOCUMENT for first-party
// models: Dremel never reads the documents; it passes signed URLs to
// the service, which fetches objects directly (§4.2.2). Extracted
// entities are flattened into output columns.
func (rt *Runtime) processDocument(ctx *engine.QueryContext, modelName string, input *vector.Batch) (*vector.Batch, error) {
	model, err := rt.Model(modelName)
	if err != nil {
		return nil, err
	}
	if model.DocParser == nil {
		return nil, fmt.Errorf("inference: model %q is not a document processor", modelName)
	}
	ui := input.Schema.Index("uri")
	if ui < 0 {
		return nil, ErrNoURIColumn
	}
	uris := input.Cols[ui].Decode()

	// Mint signed URLs so the external service can fetch the objects
	// without Dremel touching the bytes — the governance umbrella
	// outside BigQuery (§4.1). Document i parses on lane i % Workers.
	results := make([]map[string]string, uris.Len)
	err = rt.Clock.OnTracks(Workers, uris.Len, func(i int, tracks []*sim.Track) error {
		cloud, bucket, key, err := parseURI(uris.Value(i).S)
		if err != nil {
			return err
		}
		store, ok := rt.Stores[cloud]
		if !ok {
			return fmt.Errorf("inference: no store for %q", cloud)
		}
		url, err := store.SignURL(rt.Cred, bucket, key, 5*time.Minute)
		if err != nil {
			return err
		}
		doc, _, err := store.Fetch(url) // the service's direct read
		if err != nil {
			return err
		}
		tracks[i%Workers].Advance(2 * time.Millisecond) // service-side parse
		results[i], err = model.DocParser.Parse(doc)
		return err
	})
	if err != nil {
		return nil, err
	}

	// Flatten: union of entity keys become columns.
	keySet := map[string]bool{}
	for _, entities := range results {
		for k := range entities {
			keySet[k] = true
		}
	}
	keys := make([]string, 0, len(keySet))
	for k := range keySet {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	fields := []vector.Field{{Name: "uri", Type: vector.String}}
	for _, k := range keys {
		fields = append(fields, vector.Field{Name: k, Type: vector.String})
	}
	builder := vector.NewBuilder(vector.Schema{Fields: fields})
	for i := 0; i < uris.Len; i++ {
		row := make([]vector.Value, len(fields))
		row[0] = uris.Value(i)
		for j, k := range keys {
			if v, ok := results[i][k]; ok {
				row[j+1] = vector.StringValue(v)
			} else {
				row[j+1] = vector.NullValue
			}
		}
		builder.Append(row...)
	}
	rt.eng.Obs.Add("inference.documents_processed", int64(uris.Len))
	return builder.Build(), nil
}
