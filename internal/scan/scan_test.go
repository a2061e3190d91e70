package scan

import (
	"errors"
	"testing"

	"biglake/internal/bigmeta"
	"biglake/internal/catalog"
	"biglake/internal/colfmt"
	"biglake/internal/integrity"
	"biglake/internal/objstore"
	"biglake/internal/obs"
	"biglake/internal/sim"
	"biglake/internal/vector"
)

// world is one store, one log and one hive-partitioned table ds.t
// (x stored, day in the path) with a single committed file.
type world struct {
	clock *sim.Clock
	store *objstore.Store
	log   *bigmeta.Log
	reg   *obs.Registry
	src   Source
	file  bigmeta.FileEntry
}

const (
	testBucket = "lake"
	testKey    = "t/day=7/f.blk"
)

func newWorld(t *testing.T) *world {
	t.Helper()
	w := &world{clock: sim.NewClock(), reg: obs.NewRegistry()}
	w.store = objstore.New(sim.GCP, w.clock)
	w.store.UseObs(w.reg)
	cred := objstore.Credential{Principal: "sa@corp"}
	if err := w.store.CreateBucket(cred, testBucket); err != nil {
		t.Fatal(err)
	}
	w.log = bigmeta.NewLog(w.clock)
	w.src = Source{
		Table: catalog.Table{
			Dataset: "ds", Name: "t", Type: catalog.BigLake, Cloud: "gcp", Bucket: testBucket, Prefix: "t/",
			Schema: vector.NewSchema(vector.Field{Name: "x", Type: vector.Int64}, vector.Field{Name: "day", Type: vector.Int64}),
		},
		Store: w.store, Cred: cred, Principal: "admin@corp",
	}
	w.file = w.write(t, 1)
	return w
}

// write stores rows x = base..base+9 at testKey and returns the entry
// pinning the new generation.
func (w *world) write(t *testing.T, base int64) bigmeta.FileEntry {
	t.Helper()
	bl := vector.NewBuilder(vector.NewSchema(vector.Field{Name: "x", Type: vector.Int64}))
	for i := int64(0); i < 10; i++ {
		bl.Append(vector.IntValue(base + i))
	}
	data, err := colfmt.WriteFile(bl.Build(), colfmt.WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	info, err := w.store.Put(w.src.Cred, testBucket, testKey, data, "application/x-blk")
	if err != nil {
		t.Fatal(err)
	}
	footer, err := colfmt.ReadFooter(data)
	if err != nil {
		t.Fatal(err)
	}
	f := bigmeta.NewFileEntry(testBucket, testKey, info, footer)
	f.Partition = bigmeta.PartitionOf("t/", testKey)
	return f
}

func (w *world) reader(site string) *Reader {
	return &Reader{Log: w.log, Obs: w.reg, Site: site}
}

func sumX(t *testing.T, sel vector.Selection) int64 {
	t.Helper()
	b, err := vector.FilterConcatWith(vector.Mem{}, []vector.Selection{sel})
	if err != nil {
		t.Fatal(err)
	}
	var s int64
	for _, v := range b.Column("x").Decode().Ints {
		s += v
	}
	return s
}

// TestFetchPinsGeneration: a response carrying another generation than
// the snapshot pinned is self-consistent, so only the pin catches it.
func TestFetchPinsGeneration(t *testing.T) {
	w := newWorld(t)
	old := w.file
	w.write(t, 100)
	_, _, err := w.reader("scan").Fetch(w.clock, &w.src, old)
	var ie *integrity.Error
	if !errors.As(err, &ie) || ie.Source != "objstore.stale" || ie.Table != "ds.t" || ie.Key != testKey {
		t.Fatalf("fetch of a superseded generation: err = %v, want objstore.stale naming ds.t and the key", err)
	}
	unpinned := old
	unpinned.Generation = 0
	if _, _, err := w.reader("scan").Fetch(w.clock, &w.src, unpinned); err != nil {
		t.Fatalf("unpinned fetch: %v", err)
	}
}

// TestReadBatchNeverReturnsCorruptRows: with every response corrupted
// (bit flip, truncation or the superseded generation, by seed) a read
// fails typed; at half that rate it may heal on the re-fetch, and then
// the rows are the right ones.
func TestReadBatchNeverReturnsCorruptRows(t *testing.T) {
	for _, rate := range []float64{1, 0.5} {
		healed := 0
		for seed := uint64(1); seed <= 40; seed++ {
			w := newWorld(t)
			f := w.write(t, 100) // current rows 100..109; 1..10 is the stale copy
			w.store.InjectFaults(objstore.FaultProfile{Seed: seed, CorruptRate: rate})
			sel, out, err := w.reader("scan").ReadBatch(w.clock, &w.src, f, nil, nil, nil)
			switch {
			case err == nil:
				if got := sumX(t, sel); got != 1045 {
					t.Fatalf("rate %v seed %d: read succeeded with sum(x) = %d, want 1045", rate, seed, got)
				}
				if out.Refetched {
					healed++
				}
			case !errors.Is(err, integrity.ErrCorrupt):
				t.Fatalf("rate %v seed %d: untyped failure: %v", rate, seed, err)
			case !out.Quarantined:
				t.Fatalf("rate %v seed %d: two corrupt fetches did not quarantine: %+v", rate, seed, out)
			}
			if rate == 1 && err == nil {
				t.Fatalf("seed %d: read of all-corrupt responses succeeded", seed)
			}
		}
		if rate < 1 && healed == 0 {
			t.Fatal("no read healed on its re-fetch in 40 seeds")
		}
	}
}

// TestReadContainsStoredDamage walks the containment loop: damage at
// rest is detected twice, quarantined under the site's rule for naming
// the mark, and the gate then fails fast or skips without a fetch.
func TestReadContainsStoredDamage(t *testing.T) {
	for site, wantMark := range map[string]string{"scan": "colfmt.chunk", "scrub": "scrub"} {
		w := newWorld(t)
		if err := w.store.FlipStoredBit(testBucket, testKey, 99); err != nil {
			t.Fatal(err)
		}
		uses := 0
		rd := w.reader(site)
		out, err := rd.Read(w.clock, &w.src, w.file, func(data []byte, _ objstore.ObjectInfo) error {
			uses++
			return colfmt.Verify(data)
		})
		var ie *integrity.Error
		if !errors.As(err, &ie) || ie.Table != "ds.t" || ie.Key != testKey {
			t.Fatalf("%s: err = %v, want a typed error naming table and file", site, err)
		}
		if uses != 2 || !out.Refetched || !out.Quarantined || out.Skipped {
			t.Fatalf("%s: uses = %d outcome = %+v, want two uses, refetched and quarantined", site, uses, out)
		}
		mark, ok := w.log.IsQuarantined("ds.t", testKey)
		if !ok || mark.Source != wantMark {
			t.Fatalf("%s: mark = %+v (found %v), want source %q", site, mark, ok, wantMark)
		}
		snap := w.reg.Snapshot()
		if snap.Counters["integrity.detected."+site] != 2 || snap.Counters["integrity.quarantines"] != 1 {
			t.Fatalf("%s: counters = %v", site, snap.Counters)
		}

		gets := w.reg.Get("objstore.get.count")
		if _, err := rd.Read(w.clock, &w.src, w.file, nil); !errors.As(err, &ie) || ie.Source != "engine.quarantine" {
			t.Fatalf("%s: gate: err = %v, want engine.quarantine", site, err)
		}
		rd.SkipQuarantined = true
		if out, err := rd.Read(w.clock, &w.src, w.file, nil); err != nil || !out.Skipped {
			t.Fatalf("%s: gate under SkipQuarantined: outcome = %+v, err = %v", site, out, err)
		}
		if got := w.reg.Get("objstore.get.count"); got != gets {
			t.Fatalf("%s: the gate let %d GETs through", site, got-gets)
		}
	}
}

// TestReadHealsInFlightCorruption: a use that fails once gets a fresh
// fetch and nothing is quarantined; a use that fails for another
// reason is not retried.
func TestReadHealsInFlightCorruption(t *testing.T) {
	w := newWorld(t)
	uses := 0
	out, err := w.reader("scan").Read(w.clock, &w.src, w.file, func([]byte, objstore.ObjectInfo) error {
		if uses++; uses == 1 {
			return integrity.Errorf("colfmt.chunk", "sick response")
		}
		return nil
	})
	if err != nil || uses != 2 || !out.Refetched || out.Quarantined {
		t.Fatalf("uses = %d outcome = %+v err = %v", uses, out, err)
	}
	if w.reg.Get("integrity.recovered.refetch") != 1 || len(w.log.Quarantined("ds.t")) != 0 {
		t.Fatal("healed read not counted, or quarantined")
	}
	boom := errors.New("boom")
	if out, err := w.reader("scan").Read(w.clock, &w.src, w.file, func([]byte, objstore.ObjectInfo) error { return boom }); !errors.Is(err, boom) || out.Refetched {
		t.Fatalf("plain failure: outcome = %+v err = %v", out, err)
	}
}

// TestReadBatchCachePoisoningGuard: the cache is filled only by decodes
// that verified, keyed by the generation the GET returned; a detection
// evicts every generation of the object; and the partition column and
// the predicate mask are applied per read, on hit and miss alike.
func TestReadBatchCachePoisoningGuard(t *testing.T) {
	w := newWorld(t)
	rd := w.reader("scan")
	rd.Cache = NewCache(0)
	preds := []colfmt.Predicate{
		{Column: "x", Op: vector.GE, Value: vector.IntValue(6)},
		{Column: "day", Op: vector.EQ, Value: vector.IntValue(7)}, // not stored: dropped here
	}
	for i, want := range []Outcome{{CacheMiss: true}, {CacheHit: true}} {
		sel, out, err := rd.ReadBatch(w.clock, &w.src, w.file, nil, nil, preds)
		if err != nil || out != want {
			t.Fatalf("read %d: outcome = %+v err = %v, want %+v", i, out, err, want)
		}
		if sel.N != 5 || sel.Batch.N != 10 || sumX(t, sel) != 40 {
			t.Fatalf("read %d: selected %d of %d rows, sum %d; want 5 of 10, sum 40", i, sel.N, sel.Batch.N, sumX(t, sel))
		}
		if day := sel.Batch.Column("day"); day == nil || day.Value(0).AsInt() != 7 {
			t.Fatalf("read %d: partition column missing from %v", i, sel.Batch.Schema)
		}
	}
	if full, ok := rd.Resident(&w.src, w.file, nil); !ok || full.N != 10 {
		t.Fatal("pinned generation not resident after a clean read")
	}

	// The next version is rotten at rest: its decode must not be cached,
	// and the clean resident generation is no longer trusted either.
	next := w.write(t, 100)
	if err := w.store.FlipStoredBit(testBucket, testKey, 99); err != nil {
		t.Fatal(err)
	}
	if _, _, err := rd.ReadBatch(w.clock, &w.src, next, nil, nil, nil); !errors.Is(err, integrity.ErrCorrupt) {
		t.Fatalf("read of a rotten file: err = %v", err)
	}
	if len(rd.Cache.items) != 0 {
		t.Fatalf("%d cache entries survive a detection on the object", len(rd.Cache.items))
	}
}
