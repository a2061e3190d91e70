package bigmeta

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"biglake/internal/colfmt"
	"biglake/internal/objstore"
	"biglake/internal/obs"
	"biglake/internal/sim"
	"biglake/internal/vector"
)

func testEnv() (*objstore.Store, objstore.Credential, *sim.Clock) {
	clock := sim.NewClock()
	st := objstore.New(sim.GCP, clock)
	cred := objstore.Credential{Principal: "sa@lake"}
	if err := st.CreateBucket(cred, "lake"); err != nil {
		panic(err)
	}
	return st, cred, clock
}

// writePartitionedTable writes files partitioned by date with an id
// column spanning [0, rowsPerFile) per file.
func writePartitionedTable(st *objstore.Store, cred objstore.Credential, prefix string, dates []string, filesPerDate, rowsPerFile int) error {
	schema := vector.NewSchema(
		vector.Field{Name: "id", Type: vector.Int64},
		vector.Field{Name: "amount", Type: vector.Int64},
	)
	next := int64(0)
	for _, d := range dates {
		for f := 0; f < filesPerDate; f++ {
			bl := vector.NewBuilder(schema)
			for r := 0; r < rowsPerFile; r++ {
				bl.Append(vector.IntValue(next), vector.IntValue(next%500))
				next++
			}
			file, err := colfmt.WriteFile(bl.Build(), colfmt.WriterOptions{})
			if err != nil {
				return err
			}
			key := fmt.Sprintf("%sdate=%s/part-%03d.blk", prefix, d, f)
			if _, err := st.Put(cred, "lake", key, file, "application/x-blk"); err != nil {
				return err
			}
		}
	}
	return nil
}

func TestPartitionOf(t *testing.T) {
	got := PartitionOf("tables/t/", "tables/t/date=2024-01-01/region=us/f.blk")
	if got["date"] != "2024-01-01" || got["region"] != "us" {
		t.Fatalf("partition = %v", got)
	}
	if PartitionOf("p/", "p/file.blk") != nil {
		t.Fatal("unpartitioned key should yield nil")
	}
	if PartitionOf("p/", "p/=bad/f") != nil {
		t.Fatal("empty partition name should be ignored")
	}
}

func TestRefreshCollectsEntriesAndStats(t *testing.T) {
	st, cred, clock := testEnv()
	if err := writePartitionedTable(st, cred, "t/", []string{"2024-01-01", "2024-01-02"}, 3, 100); err != nil {
		t.Fatal(err)
	}
	cache := NewCache(clock)
	n, err := cache.Refresh("ds.t", st, cred, "lake", "t/", RefreshOptions{WithFileStats: true})
	if err != nil {
		t.Fatal(err)
	}
	if n != 6 {
		t.Fatalf("refreshed %d files, want 6", n)
	}
	files, err := cache.Files("ds.t")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if f.RowCount != 100 {
			t.Fatalf("file %s rows = %d", f.Key, f.RowCount)
		}
		if f.Partition["date"] == "" {
			t.Fatalf("file %s has no partition", f.Key)
		}
		if _, ok := f.ColumnStats["id"]; !ok {
			t.Fatalf("file %s missing id stats", f.Key)
		}
	}
	if _, ok := cache.RefreshedAt("ds.t"); !ok {
		t.Fatal("refresh timestamp missing")
	}
}

func TestCacheMissIsError(t *testing.T) {
	_, _, clock := testEnv()
	cache := NewCache(clock)
	if _, err := cache.Files("ghost"); !errors.Is(err, ErrNotCached) {
		t.Fatalf("err = %v", err)
	}
	if _, err := cache.Prune("ghost", nil, PruneFiles); !errors.Is(err, ErrNotCached) {
		t.Fatalf("err = %v", err)
	}
}

func TestInvalidate(t *testing.T) {
	st, cred, clock := testEnv()
	writePartitionedTable(st, cred, "t/", []string{"d"}, 1, 10)
	cache := NewCache(clock)
	cache.Refresh("ds.t", st, cred, "lake", "t/", RefreshOptions{})
	cache.Invalidate("ds.t")
	if _, err := cache.Files("ds.t"); !errors.Is(err, ErrNotCached) {
		t.Fatal("invalidate did not drop entries")
	}
}

func TestPrunePartitions(t *testing.T) {
	st, cred, clock := testEnv()
	writePartitionedTable(st, cred, "t/", []string{"2024-01-01", "2024-01-02", "2024-01-03"}, 2, 50)
	cache := NewCache(clock)
	cache.Refresh("ds.t", st, cred, "lake", "t/", RefreshOptions{WithFileStats: true})

	preds := []colfmt.Predicate{{Column: "date", Op: vector.EQ, Value: vector.StringValue("2024-01-02")}}
	files, err := cache.Prune("ds.t", preds, PrunePartitionsOnly)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 {
		t.Fatalf("pruned to %d files, want 2", len(files))
	}
	for _, f := range files {
		if f.Partition["date"] != "2024-01-02" {
			t.Fatal("wrong partition survived pruning")
		}
	}
}

func TestPruneFileStatsFinerThanPartitions(t *testing.T) {
	st, cred, clock := testEnv()
	// One partition, 10 files, ids are globally increasing, so an id
	// point-predicate hits exactly one file — but partition-only
	// pruning keeps all 10 (the Hive-metastore granularity, ablation
	// A1).
	writePartitionedTable(st, cred, "t/", []string{"d1"}, 10, 100)
	cache := NewCache(clock)
	cache.Refresh("ds.t", st, cred, "lake", "t/", RefreshOptions{WithFileStats: true})

	preds := []colfmt.Predicate{{Column: "id", Op: vector.EQ, Value: vector.IntValue(555)}}
	byPartition, _ := cache.Prune("ds.t", preds, PrunePartitionsOnly)
	byFile, _ := cache.Prune("ds.t", preds, PruneFiles)
	if len(byPartition) != 10 {
		t.Fatalf("partition-only pruning kept %d, want 10", len(byPartition))
	}
	if len(byFile) != 1 {
		t.Fatalf("file-stat pruning kept %d, want 1", len(byFile))
	}
}

func TestPruneIntPartitionValues(t *testing.T) {
	st, cred, clock := testEnv()
	schema := vector.NewSchema(vector.Field{Name: "v", Type: vector.Int64})
	for _, h := range []int{1, 2, 3} {
		bl := vector.NewBuilder(schema)
		bl.Append(vector.IntValue(int64(h)))
		file, _ := colfmt.WriteFile(bl.Build(), colfmt.WriterOptions{})
		st.Put(cred, "lake", fmt.Sprintf("t/hour=%d/f.blk", h), file, "")
	}
	cache := NewCache(clock)
	cache.Refresh("ds.t", st, cred, "lake", "t/", RefreshOptions{WithFileStats: true})
	preds := []colfmt.Predicate{{Column: "hour", Op: vector.GE, Value: vector.IntValue(2)}}
	files, _ := cache.Prune("ds.t", preds, PrunePartitionsOnly)
	if len(files) != 2 {
		t.Fatalf("int partition pruning kept %d, want 2", len(files))
	}
}

func TestPruneNoCacheStatsKeepsFile(t *testing.T) {
	e := FileEntry{Key: "f"}
	preds := []colfmt.Predicate{{Column: "x", Op: vector.EQ, Value: vector.IntValue(1)}}
	if !FileCanMatch(e, preds, PruneFiles) {
		t.Fatal("file without stats must be conservatively kept")
	}
}

func TestRefreshChargesClockForegroundOnly(t *testing.T) {
	st, cred, clock := testEnv()
	writePartitionedTable(st, cred, "t/", []string{"d"}, 8, 50)
	cache := NewCache(clock)

	before := clock.Now()
	if _, err := cache.Refresh("ds.t", st, cred, "lake", "t/", RefreshOptions{WithFileStats: true}); err != nil {
		t.Fatal(err)
	}
	fg := clock.Now() - before
	if fg == 0 {
		t.Fatal("foreground refresh must cost simulated time")
	}

	before = clock.Now()
	if _, err := cache.Refresh("ds.t", st, cred, "lake", "t/", RefreshOptions{WithFileStats: true, Background: true}); err != nil {
		t.Fatal(err)
	}
	bg := clock.Now() - before
	if bg != 0 {
		t.Fatalf("background refresh charged %v to the critical path", bg)
	}
}

// TestRefreshFailureNamesEveryKeyAndCharges: a foreground refresh whose
// footers cannot be read fails with every unreadable key, in key order,
// in the same words on every run, and charges its footer reads beside
// its LIST. A background one fails the same way and charges nothing.
func TestRefreshFailureNamesEveryKeyAndCharges(t *testing.T) {
	keys := []string{"t/a.blk", "t/b.blk", "t/c.blk", "t/d.blk"}
	var first string
	for run := 0; run < 50; run++ {
		st, cred, clock := testEnv()
		for _, k := range keys {
			if _, err := st.Put(cred, "lake", k, []byte("not a columnar file"), ""); err != nil {
				t.Fatal(err)
			}
		}
		cache := NewCache(clock)
		before := clock.Now()
		if _, err := cache.Refresh("ds.t", st, cred, "lake", "t/", RefreshOptions{}); err != nil {
			t.Fatal(err)
		}
		list := clock.Now() - before
		// The files are the same size, so each lane's footer read costs
		// what one costs alone.
		tr := clock.StartTrack()
		if _, _, err := ReadFooterStats(cache.Res.Counting(obs.NewRegistry()), nil, st, cred, "lake", keys[0], tr); err == nil {
			t.Fatal("footer of a non-columnar file read cleanly")
		}
		footer := tr.Now() - clock.Now()

		before = clock.Now()
		_, err := cache.Refresh("ds.t", st, cred, "lake", "t/", RefreshOptions{WithFileStats: true})
		if err == nil {
			t.Fatal("refresh over unreadable files succeeded")
		}
		if got := clock.Now() - before; got != list+footer {
			t.Fatalf("failed refresh charged %v, want LIST %v + footer reads %v", got, list, footer)
		}
		msg := err.Error()
		if run == 0 {
			first = msg
			at := -1
			for _, k := range keys {
				i := strings.Index(msg, k)
				if i <= at {
					t.Fatalf("error does not name %s after the keys before it:\n%s", k, msg)
				}
				at = i
			}
		} else if msg != first {
			t.Fatalf("run %d error:\n%s\nrun 0 error:\n%s", run, msg, first)
		}

		before = clock.Now()
		_, err = cache.Refresh("ds.t", st, cred, "lake", "t/", RefreshOptions{WithFileStats: true, Background: true})
		if err == nil || err.Error() != first {
			t.Fatalf("background refresh error:\n%v\nforeground:\n%s", err, first)
		}
		if got := clock.Now() - before; got != 0 {
			t.Fatalf("failed background refresh charged %v to the critical path", got)
		}
	}
}

func TestStatsMerging(t *testing.T) {
	st, cred, clock := testEnv()
	writePartitionedTable(st, cred, "t/", []string{"d1", "d2"}, 2, 100)
	cache := NewCache(clock)
	cache.Refresh("ds.t", st, cred, "lake", "t/", RefreshOptions{WithFileStats: true})
	ts, err := cache.Stats("ds.t")
	if err != nil {
		t.Fatal(err)
	}
	if ts.Files != 4 || ts.Rows != 400 {
		t.Fatalf("stats = %+v", ts)
	}
	idStats := ts.ColumnStats["id"]
	if idStats.Min.ToValue().AsInt() != 0 || idStats.Max.ToValue().AsInt() != 399 {
		t.Fatalf("merged id stats = %+v", idStats)
	}
}

// --- transaction log tests ---

func entry(key string, rows int64) FileEntry {
	return FileEntry{Bucket: "lake", Key: key, RowCount: rows}
}

func TestLogCommitAndSnapshot(t *testing.T) {
	clock := sim.NewClock()
	l := NewLog(clock)
	v1, err := l.Commit("writer", map[string]TableDelta{
		"ds.t": {Added: []FileEntry{entry("f1", 10), entry("f2", 20)}},
	})
	if err != nil || v1 != 1 {
		t.Fatalf("commit: v=%d err=%v", v1, err)
	}
	v2, _ := l.Commit("writer", map[string]TableDelta{
		"ds.t": {Added: []FileEntry{entry("f3", 30)}, Removed: []string{"f1"}},
	})
	files, ver, err := l.Snapshot("ds.t", -1)
	if err != nil || ver != v2 {
		t.Fatalf("snapshot: %v ver=%d", err, ver)
	}
	if len(files) != 2 || files[0].Key != "f2" || files[1].Key != "f3" {
		t.Fatalf("files = %+v", files)
	}
	// Point-in-time read at v1.
	files, _, err = l.Snapshot("ds.t", v1)
	if err != nil || len(files) != 2 || files[0].Key != "f1" {
		t.Fatalf("snapshot@v1 = %+v, %v", files, err)
	}
}

func TestLogEmptyCommitRejected(t *testing.T) {
	l := NewLog(sim.NewClock())
	if _, err := l.Commit("w", nil); err == nil {
		t.Fatal("empty commit should fail")
	}
}

func TestLogMultiTableTransaction(t *testing.T) {
	l := NewLog(sim.NewClock())
	v, err := l.Commit("writer", map[string]TableDelta{
		"ds.a": {Added: []FileEntry{entry("a1", 1)}},
		"ds.b": {Added: []FileEntry{entry("b1", 1)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Both tables see the same version atomically.
	fa, va, _ := l.Snapshot("ds.a", -1)
	fb, vb, _ := l.Snapshot("ds.b", -1)
	if va != v || vb != v || len(fa) != 1 || len(fb) != 1 {
		t.Fatalf("multi-table commit not atomic: va=%d vb=%d", va, vb)
	}
}

func TestLogFutureVersionRejected(t *testing.T) {
	l := NewLog(sim.NewClock())
	l.Commit("w", map[string]TableDelta{"t": {Added: []FileEntry{entry("f", 1)}}})
	if _, _, err := l.Snapshot("t", 99); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("future snapshot: %v", err)
	}
}

func TestLogCompactionPreservesReads(t *testing.T) {
	l := NewLog(sim.NewClock())
	l.BaselineEvery = 0 // manual compaction
	for i := 0; i < 50; i++ {
		l.Commit("w", map[string]TableDelta{
			"t": {Added: []FileEntry{entry(fmt.Sprintf("f%03d", i), 1)}},
		})
	}
	before, _, _ := l.Snapshot("t", -1)
	l.Compact()
	if l.TailLen() != 0 || l.BaselineVersion() != 50 {
		t.Fatalf("tail=%d baseline=%d", l.TailLen(), l.BaselineVersion())
	}
	after, _, _ := l.Snapshot("t", -1)
	if len(before) != len(after) {
		t.Fatalf("compaction changed file count %d -> %d", len(before), len(after))
	}
	// Reads older than the baseline replay history.
	old, _, err := l.Snapshot("t", 10)
	if err != nil || len(old) != 10 {
		t.Fatalf("pre-baseline snapshot = %d files, %v", len(old), err)
	}
	// Post-compaction commits reconcile baseline + tail.
	l.Commit("w", map[string]TableDelta{"t": {Removed: []string{"f000"}}})
	final, _, _ := l.Snapshot("t", -1)
	if len(final) != 49 {
		t.Fatalf("after remove: %d files", len(final))
	}
}

func TestLogAutoCompaction(t *testing.T) {
	l := NewLog(sim.NewClock())
	l.BaselineEvery = 8
	for i := 0; i < 20; i++ {
		l.Commit("w", map[string]TableDelta{"t": {Added: []FileEntry{entry(fmt.Sprintf("f%d", i), 1)}}})
	}
	if l.TailLen() >= 8 {
		t.Fatalf("tail = %d, auto compaction did not run", l.TailLen())
	}
	files, _, _ := l.Snapshot("t", -1)
	if len(files) != 20 {
		t.Fatalf("files = %d", len(files))
	}
}

func TestLogReplayMatchesSnapshot(t *testing.T) {
	l := NewLog(sim.NewClock())
	for i := 0; i < 30; i++ {
		d := TableDelta{Added: []FileEntry{entry(fmt.Sprintf("f%02d", i), 1)}}
		if i%5 == 4 {
			d.Removed = []string{fmt.Sprintf("f%02d", i-2)}
		}
		l.Commit("w", map[string]TableDelta{"t": d})
	}
	a, _, _ := l.Snapshot("t", -1)
	b, _, _ := l.SnapshotByReplay("t", -1)
	if len(a) != len(b) {
		t.Fatalf("snapshot %d files, replay %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Key != b[i].Key {
			t.Fatalf("file %d: %s vs %s", i, a[i].Key, b[i].Key)
		}
	}
}

func TestLogHistoryIsTamperEvident(t *testing.T) {
	l := NewLog(sim.NewClock())
	l.Commit("alice", map[string]TableDelta{"t": {Added: []FileEntry{entry("f1", 1)}}})
	l.Commit("bob", map[string]TableDelta{"t": {Removed: []string{"f1"}}})
	hist := l.History("t")
	if len(hist) != 2 || hist[0].Principal != "alice" || hist[1].Principal != "bob" {
		t.Fatalf("history = %+v", hist)
	}
	// Mutating the returned copy must not alter the log.
	hist[0].Principal = "mallory"
	if l.History("t")[0].Principal != "alice" {
		t.Fatal("history was tampered via returned slice")
	}
	if got := len(l.History("")); got != 2 {
		t.Fatalf("full history = %d", got)
	}
	if got := len(l.History("other")); got != 0 {
		t.Fatalf("other-table history = %d", got)
	}
}

func TestLogCommitThroughputBeatsObjectStore(t *testing.T) {
	// The §3.5 shape: N commits through Big Metadata advance simulated
	// time far less than N conditional object-store commits.
	clockA := sim.NewClock()
	l := NewLog(clockA)
	for i := 0; i < 50; i++ {
		l.Commit("w", map[string]TableDelta{"t": {Added: []FileEntry{entry(fmt.Sprintf("f%d", i), 1)}}})
	}
	metaTime := clockA.Now()

	clockB := sim.NewClock()
	st := objstore.New(sim.GCP, clockB)
	cred := objstore.Credential{Principal: "w"}
	st.CreateBucket(cred, "b")
	gen := int64(0)
	for i := 0; i < 50; i++ {
		info, err := st.PutIfGeneration(cred, "b", "metadata.json", []byte("snap"), "", gen)
		if err != nil {
			t.Fatal(err)
		}
		gen = info.Generation
	}
	storeTime := clockB.Now()

	if metaTime*10 >= storeTime {
		t.Fatalf("Big Metadata commits (%v) should be >10x faster than object-store commits (%v)", metaTime, storeTime)
	}
}

func TestCommitDeltasAreCopied(t *testing.T) {
	l := NewLog(sim.NewClock())
	added := []FileEntry{entry("f1", 1)}
	l.Commit("w", map[string]TableDelta{"t": {Added: added}})
	added[0].Key = "tampered"
	files, _, _ := l.Snapshot("t", -1)
	if files[0].Key != "f1" {
		t.Fatal("commit did not copy its input")
	}
}

func TestMergeStatsEmptyAndDisjoint(t *testing.T) {
	ts := MergeStats(nil)
	if ts.Files != 0 || ts.Rows != 0 {
		t.Fatal("empty merge")
	}
	e1 := FileEntry{Size: 10, RowCount: 1, ColumnStats: map[string]colfmt.ColumnStats{
		"a": {Min: colfmt.FromValue(vector.IntValue(5)), Max: colfmt.FromValue(vector.IntValue(9))},
	}}
	e2 := FileEntry{Size: 20, RowCount: 2, ColumnStats: map[string]colfmt.ColumnStats{
		"a": {Min: colfmt.FromValue(vector.IntValue(1)), Max: colfmt.FromValue(vector.IntValue(7))},
		"b": {Min: colfmt.FromValue(vector.StringValue("x")), Max: colfmt.FromValue(vector.StringValue("y"))},
	}}
	ts = MergeStats([]FileEntry{e1, e2})
	if ts.TotalBytes != 30 || ts.Rows != 3 {
		t.Fatalf("merge = %+v", ts)
	}
	a := ts.ColumnStats["a"]
	if a.Min.ToValue().AsInt() != 1 || a.Max.ToValue().AsInt() != 9 {
		t.Fatalf("a stats = %+v", a)
	}
	if _, ok := ts.ColumnStats["b"]; !ok {
		t.Fatal("disjoint column lost")
	}
}

func TestRefreshLatencyFarBelowPerQueryListing(t *testing.T) {
	// E1/E6 shape precondition: answering "which files?" from the
	// cache is free, while listing + footer-peeking on the query path
	// costs seconds.
	st, cred, clock := testEnv()
	writePartitionedTable(st, cred, "t/", []string{"d1", "d2", "d3", "d4"}, 5, 20)
	cache := NewCache(clock)
	cache.Refresh("ds.t", st, cred, "lake", "t/", RefreshOptions{WithFileStats: true, Background: true})

	before := clock.Now()
	if _, err := cache.Prune("ds.t", []colfmt.Predicate{{Column: "date", Op: vector.EQ, Value: vector.StringValue("d2")}}, PruneFiles); err != nil {
		t.Fatal(err)
	}
	if cost := clock.Now() - before; cost != 0 {
		t.Fatalf("cache-served pruning cost %v of simulated time", cost)
	}

	before = clock.Now()
	if _, err := st.ListAll(cred, "lake", "t/"); err != nil {
		t.Fatal(err)
	}
	if cost := clock.Now() - before; cost < 50*time.Millisecond {
		t.Fatalf("direct listing cost only %v", cost)
	}
}

func TestSnapshotPinCacheServesHistoricalVersions(t *testing.T) {
	reg := obs.NewRegistry()
	l := NewLog(sim.NewClock())
	l.UseObs(reg)
	l.BaselineEvery = 0 // manual compaction
	for i := 0; i < 20; i++ {
		l.Commit("w", map[string]TableDelta{
			"t": {Added: []FileEntry{entry(fmt.Sprintf("f%03d", i), 1)}},
		})
	}
	l.Compact()
	// First pre-baseline read pays a replay and fills the pin cache...
	f1, _, err := l.Snapshot("t", 5)
	if err != nil || len(f1) != 5 {
		t.Fatalf("snapshot@5 = %d files, %v", len(f1), err)
	}
	if reg.Get("bigmeta.meta_snapshot_pin_misses") != 1 || reg.Get("bigmeta.meta_snapshot_replays") != 1 {
		t.Fatalf("first read: misses=%d replays=%d, want 1/1",
			reg.Get("bigmeta.meta_snapshot_pin_misses"), reg.Get("bigmeta.meta_snapshot_replays"))
	}
	// ...the caller may mutate its copy without corrupting the cache...
	f1[0].Key = "clobbered"
	// ...and every subsequent read of the same (table, version) is a
	// cache hit with no further replay.
	for i := 0; i < 3; i++ {
		f, _, err := l.Snapshot("t", 5)
		if err != nil || len(f) != 5 || f[0].Key != "f000" {
			t.Fatalf("pinned read %d = %+v, %v", i, f, err)
		}
	}
	if hits := reg.Get("bigmeta.meta_snapshot_pin_hits"); hits != 3 {
		t.Fatalf("pin hits = %d, want 3", hits)
	}
	if reg.Get("bigmeta.meta_snapshot_replays") != 1 {
		t.Fatalf("replays = %d, want 1 (cache must serve repeats)", reg.Get("bigmeta.meta_snapshot_replays"))
	}
}

func TestCommitTxIfValidatesAgainstConcurrentCommits(t *testing.T) {
	reg := obs.NewRegistry()
	l := NewLog(sim.NewClock())
	l.UseObs(reg)
	snap, _ := l.Commit("w", map[string]TableDelta{"t": {Added: []FileEntry{entry("f1", 1)}}})
	// A concurrent commit lands after the snapshot.
	l.Commit("w", map[string]TableDelta{"t": {Removed: []string{"f1"}, Added: []FileEntry{entry("f2", 1)}}})

	wantErr := errors.New("conflict on f1")
	check := func(rec CommitRecord) error {
		for _, d := range rec.Deltas {
			for _, k := range d.Removed {
				if k == "f1" {
					return wantErr
				}
			}
		}
		return nil
	}
	// Validation sees exactly the records after snap and rejects.
	if _, err := l.CommitTxIf("w", TxOptions{}, map[string]TableDelta{"t": {Added: []FileEntry{entry("f3", 1)}}}, snap, check); !errors.Is(err, wantErr) {
		t.Fatalf("CommitTxIf err = %v, want conflict", err)
	}
	if reg.Get("bigmeta.meta_commit_conflicts") != 1 {
		t.Fatalf("meta_commit_conflicts = %d, want 1", reg.Get("bigmeta.meta_commit_conflicts"))
	}
	// Validating from the later version passes: nothing new to check.
	if _, err := l.CommitTxIf("w", TxOptions{}, map[string]TableDelta{"t": {Added: []FileEntry{entry("f3", 1)}}}, l.Version(), check); err != nil {
		t.Fatalf("CommitTxIf at head: %v", err)
	}
}

// TestLogUseObsWhileCommitting re-points the log between two registries
// while another goroutine commits: the swap is one atomic store, so the
// race detector stays quiet and every commit lands in exactly one of
// the two.
func TestLogUseObsWhileCommitting(t *testing.T) {
	const commits = 200
	l := NewLog(sim.NewClock())
	a, b := obs.NewRegistry(), obs.NewRegistry()
	l.UseObs(a)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < commits; i++ {
			l.Commit("w", map[string]TableDelta{"t": {Added: []FileEntry{entry(fmt.Sprintf("f%d", i), 1)}}})
			l.Snapshot("t", -1)
		}
	}()
	for i := 0; i < commits; i++ {
		l.UseObs(b)
		l.UseObs(a)
	}
	<-done
	if got := a.Get("bigmeta.meta_commits") + b.Get("bigmeta.meta_commits"); got != commits {
		t.Fatalf("commits counted = %d across both registries, want %d", got, commits)
	}
}

// TestQuarantineLifecycle pins the containment bookkeeping: sealed
// quarantine commits, idempotent re-quarantine, lifting by
// Unquarantine, and the Removed-clears-marks rule that lets repair
// swap a file and lift its mark in one commit.
func TestQuarantineLifecycle(t *testing.T) {
	_, _, clock := testEnv()
	log := NewLog(clock)
	if _, err := log.Commit("loader", map[string]TableDelta{"ds.t": {Added: []FileEntry{
		{Bucket: "lake", Key: "t/a.blk", Size: 1},
		{Bucket: "lake", Key: "t/b.blk", Size: 1},
	}}}); err != nil {
		t.Fatal(err)
	}

	mark := QuarantineMark{Key: "t/a.blk", Source: "scrub", Reason: "crc mismatch", Time: clock.Now()}
	v1, err := log.QuarantineFile("scrubber", "ds.t", mark)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := log.IsQuarantined("ds.t", "t/a.blk"); !ok || got.Reason != "crc mismatch" {
		t.Fatalf("IsQuarantined = %+v, %v", got, ok)
	}
	if _, ok := log.IsQuarantined("ds.t", "t/b.blk"); ok {
		t.Fatal("healthy file quarantined")
	}
	// Re-quarantining the same key is a no-op: no extra commit.
	v2, err := log.QuarantineFile("scrubber", "ds.t", mark)
	if err != nil {
		t.Fatal(err)
	}
	if v2 != v1 || log.Version() != v1 {
		t.Fatalf("re-quarantine committed: v1=%d v2=%d version=%d", v1, v2, log.Version())
	}
	if _, err := log.QuarantineFile("scrubber", "ds.t", QuarantineMark{}); err == nil {
		t.Fatal("empty-key quarantine accepted")
	}

	// Unquarantine lifts the mark.
	if _, err := log.Commit("repair", map[string]TableDelta{"ds.t": {Unquarantine: []string{"t/a.blk"}}}); err != nil {
		t.Fatal(err)
	}
	if marks := log.Quarantined("ds.t"); len(marks) != 0 {
		t.Fatalf("marks after unquarantine = %+v", marks)
	}

	// Removing a quarantined file clears its mark in the same commit —
	// the repair path's atomic swap.
	if _, err := log.QuarantineFile("scrubber", "ds.t", mark); err != nil {
		t.Fatal(err)
	}
	if _, err := log.Commit("repair", map[string]TableDelta{"ds.t": {
		Removed: []string{"t/a.blk"},
		Added:   []FileEntry{{Bucket: "lake", Key: "t/a2.blk", Size: 1}},
	}}); err != nil {
		t.Fatal(err)
	}
	if marks := log.Quarantined("ds.t"); len(marks) != 0 {
		t.Fatalf("Removed did not clear the mark: %+v", marks)
	}
	files, _, err := log.Snapshot("ds.t", -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 {
		t.Fatalf("snapshot = %+v", files)
	}
}
