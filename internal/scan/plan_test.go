package scan

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"biglake/internal/bigmeta"
	"biglake/internal/catalog"
	"biglake/internal/colfmt"
	"biglake/internal/objstore"
	"biglake/internal/obs"
	"biglake/internal/resilience"
	"biglake/internal/security"
	"biglake/internal/sim"
	"biglake/internal/vector"
)

const (
	planAdmin  = security.Principal("admin@corp")
	planReader = security.Principal("reader@corp")
)

// planWorld is one deployment with the same four files (k 0..39, ten a
// file; s cycling alpha/beta; day in the path) behind each table type a
// plan can read: ds.native and ds.managed in the log, ds.lake and the
// legacy ds.ext in the bucket. The reader sees s masked and is granted
// the rows with k < 25.
type planWorld struct {
	clock  *sim.Clock
	store  *objstore.Store
	cred   objstore.Credential
	auth   *security.Authority
	tables map[string]catalog.Table
	pl     Planner
}

func newPlanWorld(t *testing.T) *planWorld {
	t.Helper()
	w := &planWorld{clock: sim.NewClock(), cred: objstore.Credential{Principal: "sa@corp"}, tables: map[string]catalog.Table{}}
	w.store = objstore.New(sim.GCP, w.clock)
	if err := w.store.CreateBucket(w.cred, testBucket); err != nil {
		t.Fatal(err)
	}
	w.auth = security.NewAuthority("secret", planAdmin)
	if err := w.auth.RegisterConnection(planAdmin, security.Connection{Name: "conn", ServiceAccount: w.cred, Cloud: "gcp"}); err != nil {
		t.Fatal(err)
	}
	log := bigmeta.NewLog(w.clock)
	w.pl = Planner{
		Access: Access{Auth: w.auth, Stores: map[string]*objstore.Store{"gcp": w.store}, ManagedCred: w.cred},
		Reader: Reader{Log: log, Obs: obs.NewRegistry(), Site: "scan"},
		Meta:   bigmeta.NewCache(w.clock), Clock: w.clock,
	}
	schema := vector.NewSchema(
		vector.Field{Name: "k", Type: vector.Int64}, vector.Field{Name: "s", Type: vector.String},
		vector.Field{Name: "v", Type: vector.Int64}, vector.Field{Name: "day", Type: vector.Int64})
	for name, typ := range map[string]catalog.TableType{
		"native": catalog.Native, "managed": catalog.Managed, "lake": catalog.BigLake, "ext": catalog.External,
	} {
		tab := catalog.Table{Dataset: "ds", Name: name, Type: typ, Schema: schema, Cloud: "gcp", Bucket: testBucket, Prefix: name + "/"}
		if typ == catalog.Managed || typ == catalog.BigLake {
			tab.Connection = "conn"
		}
		var added []bigmeta.FileEntry
		for f := 0; f < 4; f++ {
			added = append(added, w.put(t, tab, f))
		}
		if typ == catalog.Native || typ == catalog.Managed {
			if _, err := log.Commit("loader", map[string]bigmeta.TableDelta{tab.FullName(): {Added: added}}); err != nil {
				t.Fatal(err)
			}
		}
		w.tables[name] = tab
		w.auth.GrantTable(planAdmin, tab.FullName(), planReader, security.RoleViewer)
		w.auth.SetColumnPolicy(planAdmin, tab.FullName(), security.ColumnPolicy{
			Column: "s", Allowed: map[security.Principal]bool{planAdmin: true}, Mask: vector.MaskLastFour,
		})
		w.auth.AddRowPolicy(planAdmin, tab.FullName(), security.RowPolicy{
			Name: "low", Grantees: map[security.Principal]bool{planReader: true},
			Filter: []colfmt.Predicate{{Column: "k", Op: vector.LT, Value: vector.IntValue(25)}},
		})
		w.auth.AddRowPolicy(planAdmin, tab.FullName(), security.RowPolicy{
			Name: "all", Grantees: map[security.Principal]bool{planAdmin: true},
		})
	}
	return w
}

// put stores file f of tab (rows k = 10f..10f+9, under day=f) and
// returns its entry.
func (w *planWorld) put(t *testing.T, tab catalog.Table, f int) bigmeta.FileEntry {
	t.Helper()
	stored := vector.Schema{Fields: tab.Schema.Fields[:3]}
	bl := vector.NewBuilder(stored)
	for i := 0; i < 10; i++ {
		k := int64(10*f + i)
		bl.Append(vector.IntValue(k), vector.StringValue([]string{"alpha", "beta"}[k%2]), vector.IntValue(k*k))
	}
	data, err := colfmt.WriteFile(bl.Build(), colfmt.WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	key := fmt.Sprintf("%sday=%d/f.blk", tab.Prefix, f)
	info, err := w.store.Put(w.cred, testBucket, key, data, "application/x-blk")
	if err != nil {
		t.Fatal(err)
	}
	footer, err := colfmt.ReadFooter(data)
	if err != nil {
		t.Fatal(err)
	}
	en := bigmeta.NewFileEntry(testBucket, key, info, footer)
	en.Partition = bigmeta.PartitionOf(tab.Prefix, key)
	return en
}

func keys(files []bigmeta.FileEntry) []string {
	out := make([]string, len(files))
	for i, f := range files {
		out[i] = f.Key
	}
	return out
}

// TestPlanSameForEngineAndSession: what the engine asks for — a
// projection from its arena, a retry budget, a span to hang the
// metadata spans on — and what a Read API session asks for resolve to
// the same plan, for every table type both can read and both
// principals: the files, the decoded columns, and which predicates
// touch stored values and which wait for the masks.
func TestPlanSameForEngineAndSession(t *testing.T) {
	w := newPlanWorld(t)
	preds := []colfmt.Predicate{
		{Column: "day", Op: vector.GE, Value: vector.IntValue(1)},
		{Column: "s", Op: vector.NE, Value: vector.StringValue("alpha")},
		{Column: "k", Op: vector.LT, Value: vector.IntValue(30)},
	}
	for _, name := range []string{"native", "managed", "lake"} {
		tab := w.tables[name]
		for _, who := range []security.Principal{planAdmin, planReader} {
			eng, err := w.pl.Plan(Request{
				Table: tab, Principal: who, Project: ColumnsOf(tab.Schema, "v"), Predicates: preds, Version: -1,
				Granularity: bigmeta.PruneFiles, MetadataCache: true, Al: vector.Heap,
				Budget: resilience.NewBudget(w.clock, 8, 1), Span: obs.NewTrace("q", w.clock).Root(),
			})
			if err != nil {
				t.Fatal(err)
			}
			sess, err := w.pl.Plan(Request{
				Table: tab, Principal: who, Project: ColumnsOf(tab.Schema, "v"), Predicates: preds, Version: -1,
				Granularity: bigmeta.PruneFiles, MetadataCache: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(keys(eng.Files), keys(sess.Files)) || !reflect.DeepEqual(eng.Columns, sess.Columns) ||
				!reflect.DeepEqual(eng.Pushed, sess.Pushed) || !reflect.DeepEqual(eng.Masked, sess.Masked) || eng.Pruned != sess.Pruned {
				t.Errorf("%s as %s: engine plan {%v %v %v %v} != session plan {%v %v %v %v}", name, who,
					keys(eng.Files), eng.Columns, eng.Pushed, eng.Masked, keys(sess.Files), sess.Columns, sess.Pushed, sess.Masked)
			}
			// day >= 1 prunes a file by partition, k < 30 one by statistics;
			// the predicate on s prunes nothing for either principal (both
			// values are in every file) and is the reader's to wait for.
			wantMasked := 0
			if who == planReader {
				wantMasked = 1
			}
			if len(sess.Files) != 2 || sess.Pruned != 2 || len(sess.Masked) != wantMasked || len(sess.Pushed) != 3-wantMasked {
				t.Errorf("%s as %s: files %v pruned %d pushed %v masked %v", name, who, keys(sess.Files), sess.Pruned, sess.Pushed, sess.Masked)
			}
			// v asked for; day, s, k filtered on — k by the row policy too.
			if got := sess.Columns.Count(4); got != 4 {
				t.Errorf("%s as %s: %d columns decoded, want 4", name, who, got)
			}
		}
	}
}

// TestPlanMaskedPredicateWaitsForGovernance reads a plan's files and
// governs them: the reader's predicate on s selects by what the reader
// sees, never by what is stored.
func TestPlanMaskedPredicateWaitsForGovernance(t *testing.T) {
	w := newPlanWorld(t)
	for _, c := range []struct {
		who  security.Principal
		s    string
		want int
	}{
		{planAdmin, "alpha", 20},  // stored value, every row granted
		{planReader, "alpha", 0},  // confirms nothing
		{planReader, "Xlpha", 13}, // k < 25, even
	} {
		for _, name := range []string{"native", "lake", "ext"} {
			tab := w.tables[name]
			p, err := w.pl.Plan(Request{
				Table: tab, Principal: c.who, Project: ColumnsOf(tab.Schema, "k", "s"), Version: -1,
				Predicates:  []colfmt.Predicate{{Column: "s", Op: vector.EQ, Value: vector.StringValue(c.s)}},
				Granularity: bigmeta.PruneFiles, MetadataCache: tab.Type == catalog.BigLake,
			})
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			for _, f := range p.Files {
				sel, _, err := p.Reader.ReadBatch(w.clock, &p.Source, f, p.Columns, nil, p.Pushed)
				if err != nil {
					t.Fatal(err)
				}
				b, err := p.Govern(sel.Batch)
				if err != nil {
					t.Fatal(err)
				}
				n += b.N
			}
			if n != c.want {
				t.Errorf("%s as %s, s = %q: %d rows, want %d", name, c.who, c.s, n, c.want)
			}
		}
	}
	// A column the principal may not read cannot be filtered on at all.
	tab := w.tables["native"]
	w.auth.SetColumnPolicy(planAdmin, tab.FullName(), security.ColumnPolicy{
		Column: "v", Allowed: map[security.Principal]bool{planAdmin: true}, Mask: vector.MaskNone,
	})
	_, err := w.pl.Plan(Request{Table: tab, Principal: planReader, Version: -1,
		Predicates: []colfmt.Predicate{{Column: "v", Op: vector.EQ, Value: vector.IntValue(4)}}})
	if !errors.Is(err, security.ErrDenied) {
		t.Fatalf("predicate on a denied column: err = %v, want ErrDenied", err)
	}
}

// TestPlanFindsFiles covers how each table type's files are found: the
// log snapshot minus a transaction's removed files, observed before
// pruning; the metadata cache, rebuilt when missing or stale; LIST and
// footer peeks, counted, for a lake table read without it.
func TestPlanFindsFiles(t *testing.T) {
	w := newPlanWorld(t)
	day2 := []colfmt.Predicate{{Column: "day", Op: vector.GE, Value: vector.IntValue(2)}}

	managed := w.tables["managed"]
	var observed []string
	p, err := w.pl.Plan(Request{
		Table: managed, Principal: planAdmin, Predicates: day2, Version: -1, Granularity: bigmeta.PruneFiles,
		Removed: map[string]bool{"managed/day=3/f.blk": true},
		Observe: func(live []bigmeta.FileEntry) { observed = keys(live) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(observed) != 3 || !reflect.DeepEqual(keys(p.Files), []string{"managed/day=2/f.blk"}) || p.Pruned != 2 {
		t.Errorf("managed: observed %v, files %v, pruned %d", observed, keys(p.Files), p.Pruned)
	}

	lake := w.tables["lake"]
	lake.MetadataStaleness = time.Minute
	plan := func(tab catalog.Table, cache bool) Plan {
		t.Helper()
		p, err := w.pl.Plan(Request{Table: tab, Principal: planAdmin, Predicates: day2, Granularity: bigmeta.PruneFiles, MetadataCache: cache})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	if p := plan(lake, true); len(p.Files) != 2 || p.Pruned != 2 || p.ListCalls != 0 || p.FooterReads != 0 {
		t.Errorf("lake, first touch: %v pruned %d list %d footers %d", keys(p.Files), p.Pruned, p.ListCalls, p.FooterReads)
	}
	w.put(t, lake, 4)
	if p := plan(lake, true); len(p.Files) != 2 {
		t.Errorf("lake, inside the staleness interval: %v, want the cached two", keys(p.Files))
	}
	w.clock.Advance(2 * time.Minute)
	if p := plan(lake, true); len(p.Files) != 3 {
		t.Errorf("lake, past the staleness interval: %v, want three", keys(p.Files))
	}
	// Without the cache: one LIST, a footer peek per file partition
	// pruning kept — the same for the table that never had one.
	for _, tab := range []catalog.Table{lake, w.tables["ext"]} {
		want := len(plan(lake, true).Files)
		if tab.Type == catalog.External {
			want = 2
		}
		if p := plan(tab, false); len(p.Files) != want || p.ListCalls != 1 || p.FooterReads != int64(want) || p.Pruned != 2 {
			t.Errorf("%s, listed: %v pruned %d list %d footers %d", tab.Name, keys(p.Files), p.Pruned, p.ListCalls, p.FooterReads)
		}
	}
}

// TestPlanObservesBeforePruning: a transaction's read set is the live
// snapshot, not what pruning leaves. Observe sees every file Removed
// leaves, in snapshot order — the ones the predicates then prune
// included — whether the prune narrows k's ascending ranges by binary
// search or evaluates a mask.
func TestPlanObservesBeforePruning(t *testing.T) {
	w := newPlanWorld(t)
	managed := w.tables["managed"]
	for _, preds := range [][]colfmt.Predicate{
		{{Column: "k", Op: vector.GE, Value: vector.IntValue(30)}},  // window over k's ranges
		{{Column: "v", Op: vector.GE, Value: vector.IntValue(900)}}, // mask over v's ranges
		{{Column: "day", Op: vector.EQ, Value: vector.IntValue(3)}}, // the hive key
		{{Column: "k", Op: vector.NE, Value: vector.IntValue(30)}, {Column: "v", Op: vector.GT, Value: vector.IntValue(899)}},
	} {
		var observed []string
		p, err := w.pl.Plan(Request{
			Table: managed, Principal: planAdmin, Predicates: preds, Version: -1, Granularity: bigmeta.PruneFiles,
			Removed: map[string]bool{"managed/day=1/f.blk": true},
			Observe: func(live []bigmeta.FileEntry) { observed = keys(live) },
		})
		if err != nil {
			t.Fatal(err)
		}
		if want := []string{"managed/day=0/f.blk", "managed/day=2/f.blk", "managed/day=3/f.blk"}; !reflect.DeepEqual(observed, want) {
			t.Errorf("%v: observed %v, want %v", preds, observed, want)
		}
		if got := keys(p.Files); !reflect.DeepEqual(got, []string{"managed/day=3/f.blk"}) || p.Pruned != 2 {
			t.Errorf("%v: files %v, pruned %d; want day=3 alone, 2 pruned", preds, got, p.Pruned)
		}
	}
}

// TestResolveOneRule: a table's connection names its credential; a
// table without one is accessed under the managed credential, and an
// Access that holds none says so with the typed error.
func TestResolveOneRule(t *testing.T) {
	w := newPlanWorld(t)
	scoped, err := w.cred.WithScope("lake/day=1/")
	if err != nil {
		t.Fatal(err)
	}
	managedSA := objstore.Credential{Principal: "managed@corp"}
	acc := Access{Auth: w.auth, Stores: w.pl.Stores, ManagedCred: managedSA}
	if _, cred, err := acc.Resolve(w.tables["lake"]); err != nil || cred.Principal != w.cred.Principal {
		t.Errorf("connection table: %v, %v", cred, err)
	}
	if _, cred, err := acc.Resolve(w.tables["lake"], "lake/day=1/"); err != nil || !reflect.DeepEqual(cred, scoped) {
		t.Errorf("scoped: %v, %v", cred, err)
	}
	if _, cred, err := acc.Resolve(w.tables["ext"]); err != nil || cred.Principal != managedSA.Principal {
		t.Errorf("no connection: %v, %v", cred, err)
	}
	acc.ManagedCred = objstore.Credential{}
	if _, _, err := acc.Resolve(w.tables["native"]); !errors.Is(err, security.ErrNoConnection) {
		t.Errorf("no connection, no managed credential: err = %v, want ErrNoConnection", err)
	}
	other := w.tables["lake"]
	other.Cloud = "aws"
	if _, _, err := acc.Resolve(other); err == nil {
		t.Error("unknown cloud resolved")
	}
}
