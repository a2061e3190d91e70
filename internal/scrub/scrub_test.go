package scrub

import (
	"fmt"
	"testing"

	"biglake/internal/bigmeta"
	"biglake/internal/catalog"
	"biglake/internal/colfmt"
	"biglake/internal/objstore"
	"biglake/internal/obs"
	"biglake/internal/security"
	"biglake/internal/sim"
	"biglake/internal/vector"
)

const scrubAdmin = security.Principal("admin@corp")

type world struct {
	clock *sim.Clock
	store *objstore.Store
	cat   *catalog.Catalog
	auth  *security.Authority
	log   *bigmeta.Log
	cred  objstore.Credential
	sizes map[string]int64 // key -> stored size
}

// newWorld builds one Native table ds.t with nFiles committed files.
func newWorld(t *testing.T, nFiles int) *world {
	t.Helper()
	w := &world{clock: sim.NewClock(), sizes: map[string]int64{}}
	w.store = objstore.New(sim.GCP, w.clock)
	w.cred = objstore.Credential{Principal: "sa-lake@corp"}
	if err := w.store.CreateBucket(w.cred, "lake"); err != nil {
		t.Fatal(err)
	}
	w.cat = catalog.New()
	if err := w.cat.CreateDataset(catalog.Dataset{Name: "ds", Region: "gcp-us", Cloud: "gcp"}); err != nil {
		t.Fatal(err)
	}
	w.auth = security.NewAuthority("secret", scrubAdmin)
	if err := w.auth.RegisterConnection(scrubAdmin, security.Connection{
		Name: "lake-conn", ServiceAccount: w.cred, Cloud: "gcp",
	}); err != nil {
		t.Fatal(err)
	}
	w.log = bigmeta.NewLog(w.clock)
	schema := vector.NewSchema(vector.Field{Name: "x", Type: vector.Int64})
	if err := w.cat.CreateTable(catalog.Table{
		Dataset: "ds", Name: "t", Type: catalog.Native, Schema: schema,
		Cloud: "gcp", Bucket: "lake", Prefix: "t/", Connection: "lake-conn",
	}); err != nil {
		t.Fatal(err)
	}
	var entries []bigmeta.FileEntry
	for i := 0; i < nFiles; i++ {
		// Identical rows in every file, so all stored files have the
		// same size and byte budgets split the corpus predictably.
		bl := vector.NewBuilder(schema)
		for r := 0; r < 50; r++ {
			bl.Append(vector.IntValue(int64(r)))
		}
		file, err := colfmt.WriteFile(bl.Build(), colfmt.WriterOptions{})
		if err != nil {
			t.Fatal(err)
		}
		key := fmt.Sprintf("t/data/f%03d.blk", i)
		info, err := w.store.Put(w.cred, "lake", key, file, "application/x-blk")
		if err != nil {
			t.Fatal(err)
		}
		w.sizes[key] = info.Size
		entries = append(entries, bigmeta.FileEntry{
			Bucket: "lake", Key: key, Size: info.Size,
			Generation: info.Generation, RowCount: 50,
		})
	}
	if _, err := w.log.Commit("loader", map[string]bigmeta.TableDelta{"ds.t": {Added: entries}}); err != nil {
		t.Fatal(err)
	}
	return w
}

func (w *world) scrubber(budget int64) (*Scrubber, *obs.Registry) {
	reg := obs.NewRegistry()
	return &Scrubber{
		Catalog: w.cat, Auth: w.auth, Log: w.log, Clock: w.clock,
		Stores: map[string]*objstore.Store{"gcp": w.store},
		Obs:    reg, Principal: string(scrubAdmin), BytesPerPass: budget,
	}, reg
}

// TestScrubCleanPassVerifiesEverything: an unbudgeted pass over a
// healthy table verifies every live file and finds nothing.
func TestScrubCleanPassVerifiesEverything(t *testing.T) {
	w := newWorld(t, 4)
	s, reg := w.scrubber(0)
	rep, err := s.Pass([]string{"ds.t"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.FilesVerified != 4 || rep.CorruptFound != 0 || rep.Exhausted {
		t.Fatalf("report = %+v", rep)
	}
	var want int64
	for _, n := range w.sizes {
		want += n
	}
	if rep.BytesVerified != want {
		t.Fatalf("bytes verified = %d, want %d", rep.BytesVerified, want)
	}
	snap := reg.Snapshot()
	if snap.Counters["integrity.scrub.passes"] != 1 || snap.Counters["integrity.scrub.files"] != 4 {
		t.Fatalf("counters = %v", snap.Counters)
	}
}

// TestScrubBudgetStopsAndResumes: a byte-budgeted pass stops mid-walk,
// and the next pass resumes at the cursor so two passes cover the
// whole corpus exactly once.
func TestScrubBudgetStopsAndResumes(t *testing.T) {
	w := newWorld(t, 4)
	budget := w.sizes["t/data/f000.blk"] + w.sizes["t/data/f001.blk"]
	s, reg := w.scrubber(budget)

	first, err := s.Pass([]string{"ds.t"})
	if err != nil {
		t.Fatal(err)
	}
	if !first.Exhausted || first.FilesVerified != 2 {
		t.Fatalf("first pass = %+v, want 2 files then budget stop", first)
	}
	second, err := s.Pass([]string{"ds.t"})
	if err != nil {
		t.Fatal(err)
	}
	if second.FilesVerified != 2 {
		t.Fatalf("second pass = %+v, want the remaining 2 files", second)
	}
	if got := first.FilesVerified + second.FilesVerified; got != 4 {
		t.Fatalf("passes covered %d of 4 files", got)
	}
	if reg.Snapshot().Counters["integrity.scrub.budget_stops"] != 1 {
		t.Fatal("budget stop not counted")
	}
	// The cursor cleared on the completed walk: a third pass starts over.
	third, err := s.Pass([]string{"ds.t"})
	if err != nil {
		t.Fatal(err)
	}
	if third.FilesVerified != 2 || !third.Exhausted {
		t.Fatalf("third pass = %+v, want a fresh budgeted walk", third)
	}
}

// TestScrubQuarantinesDurableDamage: a bit flipped at rest fails both
// the first verify and the confirming re-fetch, so the scrubber
// quarantines the file; the next pass skips it without re-reading.
func TestScrubQuarantinesDurableDamage(t *testing.T) {
	w := newWorld(t, 3)
	if err := w.store.FlipStoredBit("lake", "t/data/f001.blk", 99); err != nil {
		t.Fatal(err)
	}
	s, reg := w.scrubber(0)
	rep, err := s.Pass([]string{"ds.t"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.CorruptFound != 1 || rep.Quarantined != 1 || rep.FilesVerified != 2 {
		t.Fatalf("report = %+v", rep)
	}
	mark, ok := w.log.IsQuarantined("ds.t", "t/data/f001.blk")
	if !ok || mark.Source != "scrub" {
		t.Fatalf("quarantine mark = %+v ok=%v", mark, ok)
	}
	snap := reg.Snapshot()
	if snap.Counters["integrity.detected.scrub"] < 2 || snap.Counters["integrity.quarantines"] != 1 {
		t.Fatalf("counters = %v", snap.Counters)
	}

	again, err := s.Pass([]string{"ds.t"})
	if err != nil {
		t.Fatal(err)
	}
	if again.FilesSkipped != 1 || again.CorruptFound != 0 || again.FilesVerified != 2 {
		t.Fatalf("second pass = %+v, want the quarantined file skipped", again)
	}
}
