package sparkle

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"biglake/internal/bigmeta"
	"biglake/internal/catalog"
	"biglake/internal/colfmt"
	"biglake/internal/objstore"
	"biglake/internal/obs"
	"biglake/internal/security"
	"biglake/internal/sim"
	"biglake/internal/storageapi"
	"biglake/internal/vector"
)

const (
	adminP = security.Principal("admin@corp")
	userP  = security.Principal("spark-user@corp")
)

type env struct {
	clock *sim.Clock
	store *objstore.Store
	srv   *storageapi.Server
	auth  *security.Authority
	cred  objstore.Credential
	user  objstore.Credential
}

func newEnv(t *testing.T) *env {
	t.Helper()
	clock := sim.NewClock()
	store := objstore.New(sim.GCP, clock)
	cred := objstore.Credential{Principal: "sa@corp"}
	user := objstore.Credential{Principal: string(userP)}
	if err := store.CreateBucket(cred, "lake"); err != nil {
		t.Fatal(err)
	}
	store.Grant(cred, "lake", string(userP), objstore.PermRead)
	cat := catalog.New()
	cat.CreateDataset(catalog.Dataset{Name: "ds", Region: "gcp-us", Cloud: "gcp"})
	auth := security.NewAuthority("secret", adminP)
	auth.RegisterConnection(adminP, security.Connection{Name: "conn", ServiceAccount: cred, Cloud: "gcp"})
	meta := bigmeta.NewCache(clock)
	log := bigmeta.NewLog(clock)
	srv := storageapi.NewServer(cat, auth, meta, log, clock, map[string]*objstore.Store{"gcp": store})
	srv.ManagedCred = cred
	return &env{clock: clock, store: store, srv: srv, auth: auth, cred: cred, user: user}
}

func factSchema() vector.Schema {
	return vector.NewSchema(
		vector.Field{Name: "item_id", Type: vector.Int64},
		vector.Field{Name: "qty", Type: vector.Int64},
	)
}

// putFile writes b as one columnar file at key in the lake bucket.
func (ev *env) putFile(t *testing.T, key string, b *vector.Batch) {
	t.Helper()
	file, err := colfmt.WriteFile(b, colfmt.WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ev.store.Put(ev.cred, "lake", key, file, ""); err != nil {
		t.Fatal(err)
	}
}

// loadFact writes `files` fact files with item_ids ascending, and
// registers them as a BigLake table.
func (ev *env) loadFact(t *testing.T, files, rowsPerFile int) {
	t.Helper()
	next := int64(0)
	for f := 0; f < files; f++ {
		bl := vector.NewBuilder(factSchema())
		for r := 0; r < rowsPerFile; r++ {
			bl.Append(vector.IntValue(next), vector.IntValue(next%7))
			next++
		}
		ev.putFile(t, fmt.Sprintf("fact/part-%03d.blk", f), bl.Build())
	}
	ev.srv.Catalog.CreateTable(catalog.Table{
		Dataset: "ds", Name: "fact", Type: catalog.BigLake, Schema: factSchema(),
		Cloud: "gcp", Bucket: "lake", Prefix: "fact/", Connection: "conn", MetadataCaching: true,
	})
	ev.auth.GrantTable(adminP, "ds.fact", userP, security.RoleViewer)
}

func dimSchema() vector.Schema {
	return vector.NewSchema(
		vector.Field{Name: "id", Type: vector.Int64},
		vector.Field{Name: "tier", Type: vector.String},
	)
}

func (ev *env) loadDim(t *testing.T, n, goldCount int) {
	t.Helper()
	bl := vector.NewBuilder(dimSchema())
	for i := 0; i < n; i++ {
		tier := "basic"
		if i < goldCount {
			tier = "gold"
		}
		bl.Append(vector.IntValue(int64(i)), vector.StringValue(tier))
	}
	ev.putFile(t, "dim/part-000.blk", bl.Build())
	ev.srv.Catalog.CreateTable(catalog.Table{
		Dataset: "ds", Name: "dim", Type: catalog.BigLake, Schema: dimSchema(),
		Cloud: "gcp", Bucket: "lake", Prefix: "dim/", Connection: "conn", MetadataCaching: true,
	})
	ev.auth.GrantTable(adminP, "ds.dim", userP, security.RoleViewer)
}

func TestDirectScan(t *testing.T) {
	ev := newEnv(t)
	ev.loadFact(t, 4, 25)
	sess := NewSession(ev.clock, Options{})
	got, err := sess.ReadFiles(ev.store, ev.user, "lake", "fact/").Collect()
	if err != nil {
		t.Fatal(err)
	}
	if got.N != 100 {
		t.Fatalf("rows = %d", got.N)
	}
	if sess.Obs.Get("sparkle.direct_list_calls") != 1 || sess.Obs.Get("sparkle.direct_footer_reads") != 4 {
		t.Fatalf("counters = %v", sess.Obs.Snapshot().Counters)
	}
}

func TestDirectScanFilterSkipsFiles(t *testing.T) {
	const files = 10
	ev := newEnv(t)
	ev.loadFact(t, files, 10)
	infos, err := ev.store.ListAll(ev.cred, "lake", "fact/")
	if err != nil {
		t.Fatal(err)
	}
	var whole, smallest int64
	for _, info := range infos {
		whole += info.Size
		if smallest == 0 || info.Size < smallest {
			smallest = info.Size
		}
	}
	// collect runs f and returns the GETs and bytes its data reads cost:
	// every GET but the footer peeks, one a file, each of which fetches
	// the whole file here (a file under 64 KB is all tail).
	reg := ev.store.Obs()
	collect := func(f *Frame) (*vector.Batch, int64, int64) {
		t.Helper()
		gets, read := reg.Get("objstore.get.count"), reg.Get("objstore.get.bytes")
		got, err := f.Collect()
		if err != nil {
			t.Fatal(err)
		}
		return got, reg.Get("objstore.get.count") - gets - files, reg.Get("objstore.get.bytes") - read - whole
	}
	sess := NewSession(ev.clock, Options{})
	fact := sess.ReadFiles(ev.store, ev.user, "lake", "fact/")

	// The chunk stats rule out 9 of the 10 files: those make no data
	// request, and the one that can match is read in one ranged GET (its
	// only row group's two chunks touch).
	got, gets, read := collect(fact.Filter(colfmt.Predicate{Column: "item_id", Op: vector.EQ, Value: vector.IntValue(55)}))
	if got.N != 1 {
		t.Fatalf("rows = %d", got.N)
	}
	if gets != 1 || read <= 0 || read >= smallest {
		t.Fatalf("filtered read: %d data GETs, %d bytes; want 1 GET of under one file (%d bytes)", gets, read, smallest)
	}

	// A projected read fetches only the qty chunks: fewer bytes than
	// the whole objects, and than a read of every column.
	all, _, allBytes := collect(fact)
	qty, _, qtyBytes := collect(fact.Select("qty"))
	if all.N != 100 || qty.N != 100 || qty.Schema.Len() != 1 || qty.Schema.Fields[0].Name != "qty" {
		t.Fatalf("all %d rows, qty %d rows of %v", all.N, qty.N, qty.Schema)
	}
	if qtyBytes <= 0 || qtyBytes >= allBytes || allBytes >= whole {
		t.Fatalf("data bytes: qty %d, every column %d, whole objects %d", qtyBytes, allBytes, whole)
	}
}

func TestReadAPIScanMatchesDirect(t *testing.T) {
	ev := newEnv(t)
	ev.loadFact(t, 3, 20)
	sess := NewSession(ev.clock, Options{})
	direct, err := sess.ReadFiles(ev.store, ev.user, "lake", "fact/").
		Filter(colfmt.Predicate{Column: "qty", Op: vector.EQ, Value: vector.IntValue(3)}).Collect()
	if err != nil {
		t.Fatal(err)
	}
	api, err := sess.ReadBigLake(ev.srv, userP, "ds.fact").
		Filter(colfmt.Predicate{Column: "qty", Op: vector.EQ, Value: vector.IntValue(3)}).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if direct.N != api.N {
		t.Fatalf("direct %d rows, read api %d", direct.N, api.N)
	}
}

func TestReadAPIEnforcesGovernanceDirectDoesNot(t *testing.T) {
	// §3.2's contrast: the Read API masks; a direct file read exposes
	// raw values to anyone with bucket access.
	ev := newEnv(t)
	ev.loadFact(t, 1, 10)
	ev.auth.SetColumnPolicy(adminP, "ds.fact", security.ColumnPolicy{
		Column: "qty", Allowed: map[security.Principal]bool{adminP: true}, Mask: vector.MaskHash,
	})
	sess := NewSession(ev.clock, Options{})
	api, err := sess.ReadBigLake(ev.srv, userP, "ds.fact").Collect()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(api.Column("qty").Value(0).S, "hash_") {
		t.Fatal("read api should mask qty")
	}
	direct, err := sess.ReadFiles(ev.store, ev.user, "lake", "fact/").Collect()
	if err != nil {
		t.Fatal(err)
	}
	if direct.Column("qty").Value(0).AsInt() != 0 && direct.Column("qty").Value(0).Type != vector.Int64 {
		t.Fatal("direct read should see raw data")
	}
}

func TestProjection(t *testing.T) {
	ev := newEnv(t)
	ev.loadFact(t, 2, 10)
	sess := NewSession(ev.clock, Options{})
	got, err := sess.ReadBigLake(ev.srv, userP, "ds.fact").Select("qty").Collect()
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema.Len() != 1 || got.Schema.Fields[0].Name != "qty" {
		t.Fatalf("schema = %v", got.Schema)
	}
}

func TestJoinCorrectness(t *testing.T) {
	ev := newEnv(t)
	ev.loadFact(t, 2, 50) // item_ids 0..99
	ev.loadDim(t, 10, 3)  // dim ids 0..9, 3 gold
	for _, stats := range []bool{false, true} {
		sess := NewSession(ev.clock, Options{UseSessionStats: stats, EnableDPP: stats})
		fact := sess.ReadBigLake(ev.srv, userP, "ds.fact")
		dim := sess.ReadBigLake(ev.srv, userP, "ds.dim").
			Filter(colfmt.Predicate{Column: "tier", Op: vector.EQ, Value: vector.StringValue("gold")})
		got, err := fact.Join(dim, "item_id", "id").Collect()
		if err != nil {
			t.Fatal(err)
		}
		if got.N != 3 {
			t.Fatalf("stats=%v join rows = %d, want 3", stats, got.N)
		}
		if got.Schema.Index("tier") < 0 || got.Schema.Index("qty") < 0 {
			t.Fatalf("schema = %v", got.Schema)
		}
	}
	// Key identity includes the type: Int64 1 never joins String "1".
	ints := vector.NewBuilder(vector.NewSchema(vector.Field{Name: "k", Type: vector.Int64}))
	ints.Append(vector.IntValue(1))
	ev.putFile(t, "ints/part-000.blk", ints.Build())
	strs := vector.NewBuilder(vector.NewSchema(vector.Field{Name: "k", Type: vector.String}))
	strs.Append(vector.StringValue("1"))
	ev.putFile(t, "strs/part-000.blk", strs.Build())
	sess := NewSession(ev.clock, Options{})
	got, err := sess.ReadFiles(ev.store, ev.user, "lake", "ints/").
		Join(sess.ReadFiles(ev.store, ev.user, "lake", "strs/"), "k", "k").Collect()
	if err != nil {
		t.Fatal(err)
	}
	if got.N != 0 {
		t.Fatalf("Int64 1 = String \"1\" joined %d rows, want 0", got.N)
	}
}

func TestDPPPrunesFactScan(t *testing.T) {
	ev := newEnv(t)
	ev.loadFact(t, 10, 100) // 10 files, ids 0..999
	ev.loadDim(t, 1000, 5)  // only ids 0..4 are gold

	run := func(opts Options) *obs.Registry {
		sess := NewSession(ev.clock, opts)
		fact := sess.ReadBigLake(ev.srv, userP, "ds.fact")
		dim := sess.ReadBigLake(ev.srv, userP, "ds.dim").
			Filter(colfmt.Predicate{Column: "tier", Op: vector.EQ, Value: vector.StringValue("gold")})
		got, err := fact.Join(dim, "item_id", "id").Collect()
		if err != nil {
			t.Fatal(err)
		}
		if got.N != 5 {
			t.Fatalf("join rows = %d", got.N)
		}
		return sess.Obs
	}
	blind := run(Options{})
	smart := run(Options{UseSessionStats: true, EnableDPP: true})
	if smart.Get("sparkle.dpp_applied") == 0 {
		t.Fatal("DPP not applied")
	}
	// With DPP the fact side ships far fewer payload bytes.
	if smart.Get("sparkle.readapi_bytes")*2 >= blind.Get("sparkle.readapi_bytes") {
		t.Fatalf("DPP bytes %d should be <half of blind %d",
			smart.Get("sparkle.readapi_bytes"), blind.Get("sparkle.readapi_bytes"))
	}
}

func TestStatsSpeedUpJoinWallClock(t *testing.T) {
	// The E3 shape at unit scale: session statistics (join order +
	// DPP) cut simulated wall time.
	ev := newEnv(t)
	ev.loadFact(t, 12, 200)
	ev.loadDim(t, 2400, 4)

	measure := func(opts Options) sim.Clock {
		_ = opts
		return sim.Clock{}
	}
	_ = measure

	runTime := func(opts Options) (elapsed int64) {
		sess := NewSession(ev.clock, opts)
		before := ev.clock.Now()
		fact := sess.ReadBigLake(ev.srv, userP, "ds.fact")
		dim := sess.ReadBigLake(ev.srv, userP, "ds.dim").
			Filter(colfmt.Predicate{Column: "tier", Op: vector.EQ, Value: vector.StringValue("gold")})
		if _, err := fact.Join(dim, "item_id", "id").Collect(); err != nil {
			t.Fatal(err)
		}
		return int64(ev.clock.Now() - before)
	}
	blind := runTime(Options{})
	smart := runTime(Options{UseSessionStats: true, EnableDPP: true})
	if smart >= blind {
		t.Fatalf("stats-on time %d should beat stats-off %d", smart, blind)
	}
}

func TestGroupByAgg(t *testing.T) {
	ev := newEnv(t)
	ev.loadFact(t, 1, 21) // qty = item_id % 7
	// String keys a rendered key would merge: a separator inside a
	// value, and NULL beside the string "NULL".
	keys := vector.NewBuilder(vector.NewSchema(
		vector.Field{Name: "a", Type: vector.String},
		vector.Field{Name: "b", Type: vector.String},
	))
	keys.Append(vector.StringValue("x|"), vector.StringValue("y"))
	keys.Append(vector.StringValue("x"), vector.StringValue("|y"))
	keys.Append(vector.NullValue, vector.StringValue("z"))
	keys.Append(vector.StringValue("NULL"), vector.StringValue("z"))
	ev.putFile(t, "keys/part-000.blk", keys.Build())
	sess := NewSession(ev.clock, Options{})
	for _, tc := range []struct {
		name      string
		in        *Frame
		keys      []string
		col       string
		groups, n int
	}{
		{"int key", sess.ReadBigLake(ev.srv, userP, "ds.fact"), []string{"qty"}, "item_id", 7, 3},
		{"separator and NULL in string keys", sess.ReadFiles(ev.store, ev.user, "lake", "keys/"), []string{"a", "b"}, "b", 4, 1},
	} {
		got, err := tc.in.GroupBy(tc.keys...).
			Agg(AggSpec{Kind: vector.AggCount, Column: tc.col, As: "n"},
				AggSpec{Kind: vector.AggMax, Column: tc.col, As: "max"}).
			Collect()
		if err != nil {
			t.Fatal(err)
		}
		if got.N != tc.groups {
			t.Fatalf("%s: groups = %d, want %d", tc.name, got.N, tc.groups)
		}
		for i := 0; i < got.N; i++ {
			if got.Column("n").Value(i).AsInt() != int64(tc.n) {
				t.Fatalf("%s: group %v", tc.name, got.Row(i))
			}
		}
	}
}

func TestGlobalAgg(t *testing.T) {
	ev := newEnv(t)
	ev.loadFact(t, 1, 10)
	sess := NewSession(ev.clock, Options{})
	got, err := sess.ReadBigLake(ev.srv, userP, "ds.fact").
		GroupBy().
		Agg(AggSpec{Kind: vector.AggSum, Column: "item_id", As: "total"}).
		Collect()
	if err != nil {
		t.Fatal(err)
	}
	if got.N != 1 || got.Column("total").Value(0).AsInt() != 45 {
		t.Fatalf("total = %v", got.Row(0))
	}
}

func TestPlanErrors(t *testing.T) {
	ev := newEnv(t)
	ev.loadFact(t, 1, 5)
	sess := NewSession(ev.clock, Options{})
	if _, err := (&Frame{sess: sess}).Collect(); !errors.Is(err, ErrNoSource) {
		t.Fatalf("err = %v", err)
	}
	fact := sess.ReadBigLake(ev.srv, userP, "ds.fact")
	if _, err := fact.Join(fact, "ghost", "item_id").Collect(); !errors.Is(err, ErrPlan) {
		t.Fatalf("bad join key: %v", err)
	}
	if _, err := fact.GroupBy("ghost").Agg(AggSpec{Kind: vector.AggCount, Column: "item_id", As: "n"}).Collect(); !errors.Is(err, ErrPlan) {
		t.Fatalf("bad group key: %v", err)
	}
	if _, err := fact.GroupBy("qty").Agg(AggSpec{Kind: vector.AggCount, Column: "ghost", As: "n"}).Collect(); !errors.Is(err, ErrPlan) {
		t.Fatalf("bad agg column: %v", err)
	}
}

func TestReadAPIDeniedUser(t *testing.T) {
	ev := newEnv(t)
	ev.loadFact(t, 1, 5)
	sess := NewSession(ev.clock, Options{})
	_, err := sess.ReadBigLake(ev.srv, "evil@x", "ds.fact").Collect()
	if !errors.Is(err, security.ErrDenied) {
		t.Fatalf("err = %v", err)
	}
}

func TestJoinDuplicateColumnNames(t *testing.T) {
	ev := newEnv(t)
	ev.loadFact(t, 1, 5)
	sess := NewSession(ev.clock, Options{})
	f := sess.ReadBigLake(ev.srv, userP, "ds.fact")
	got, err := f.Join(f, "item_id", "item_id").Collect()
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema.Index("item_id") < 0 || got.Schema.Index("item_id_r") < 0 {
		t.Fatalf("schema = %v", got.Schema)
	}
}

func TestCollectDeterministicUnderFaults(t *testing.T) {
	// Both sources fan out on goroutines; a seeded fault profile must
	// still give the same batches and the same simulated time, run
	// after run. Each run builds the same world from scratch: a second
	// collect on one store would see the next calls of every fault
	// stream, and warm caches.
	run := func() (batches [][]byte, elapsed time.Duration) {
		ev := newEnv(t)
		ev.loadFact(t, 3*Executors+1, 40) // more files than executors: lanes are shared
		ev.store.InjectFaults(objstore.FaultProfile{Seed: 7, SlowdownRate: 0.3, Slowdown: 40 * time.Millisecond})
		sess := NewSession(ev.clock, Options{})
		start := ev.clock.Now()
		for _, f := range []*Frame{
			sess.ReadFiles(ev.store, ev.user, "lake", "fact/"),
			sess.ReadBigLake(ev.srv, userP, "ds.fact"),
		} {
			b, err := f.Filter(colfmt.Predicate{Column: "qty", Op: vector.LT, Value: vector.IntValue(3)}).Collect()
			if err != nil {
				t.Fatal(err)
			}
			batches = append(batches, vector.EncodeBatch(b, false))
		}
		if ev.store.Obs().Get("objstore.slowdowns.injected") == 0 {
			t.Fatal("no slowdown injected")
		}
		return batches, ev.clock.Now() - start
	}
	wantB, wantT := run()
	for i := 0; i < 3; i++ {
		gotB, gotT := run()
		for s := range wantB {
			if !bytes.Equal(gotB[s], wantB[s]) {
				t.Fatalf("run %d: source %d returned other batches", i+1, s)
			}
		}
		if gotT != wantT {
			t.Fatalf("run %d: elapsed %v, first run %v", i+1, gotT, wantT)
		}
	}
}
