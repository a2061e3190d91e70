package biglake

// Integration tests for the production use-case patterns of §6:
// seamless analytics on a single data copy, cross-cloud query and
// analysis, and multi-modal data analysis with SQL simplicity.

import (
	"fmt"
	"strings"
	"testing"

	"biglake/internal/catalog"
	"biglake/internal/colfmt"
	"biglake/internal/engine"
	"biglake/internal/mlmodel"
	"biglake/internal/omni"
	"biglake/internal/sim"
	"biglake/internal/vector"
)

// TestUseCaseSingleDataCopy: "customers store a single copy of data
// ... while still running performant and secure analytics using
// BigQuery and open-source engines like Spark" (§6).
func TestUseCaseSingleDataCopy(t *testing.T) {
	lh := newLakehouse(t)
	lh.CreateDataset("lake")
	lh.CreateBucket("single-copy")
	schema := NewSchema(
		Field{Name: "id", Type: Int64},
		Field{Name: "pii", Type: String},
		Field{Name: "v", Type: Int64},
	)
	bl := vector.NewBuilder(schema)
	for i := 0; i < 500; i++ {
		bl.Append(IntValue(int64(i)), StringValue(fmt.Sprintf("person-%d", i)), IntValue(int64(i%9)))
	}
	file, err := colfmt.WriteFile(bl.Build(), colfmt.WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := lh.Upload("single-copy", "t/p.blk", file, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := lh.CreateConnection("sc", "single-copy"); err != nil {
		t.Fatal(err)
	}
	if err := lh.CreateBigLakeTable(admin, BigLakeTableSpec{
		Dataset: "lake", Name: "t", Schema: schema,
		Bucket: "single-copy", Prefix: "t/", Connection: "sc", MetadataCaching: true,
	}); err != nil {
		t.Fatal(err)
	}
	lh.Auth.GrantTable(admin, "lake.t", analyst, RoleViewer)
	lh.Auth.SetColumnPolicy(admin, "lake.t", ColumnPolicy{
		Column: "pii", Allowed: map[Principal]bool{admin: true}, Mask: vector.MaskHash,
	})

	// BigQuery SQL path.
	sqlRes, err := lh.Query(analyst, "SELECT COUNT(*) AS n FROM lake.t WHERE v = 3")
	if err != nil {
		t.Fatal(err)
	}
	// External-engine path over the same single copy.
	sess := NewSparkleSession(lh, SparkleOptions{UseSessionStats: true})
	spark, err := sess.ReadBigLake(lh.StorageAPI, analyst, "lake.t").
		Filter(Predicate{Column: "v", Op: vector.EQ, Value: IntValue(3)}).
		Collect()
	if err != nil {
		t.Fatal(err)
	}
	if int(sqlRes.Batch.Column("n").Value(0).AsInt()) != spark.N {
		t.Fatalf("engines disagree over the single copy: sql=%v spark=%d", sqlRes.Batch.Row(0), spark.N)
	}
	// Both paths are governed: the external engine sees masked pii.
	if !strings.HasPrefix(spark.Column("pii").Value(0).S, "hash_") {
		t.Fatal("external engine saw raw pii")
	}
	// There is exactly one physical copy of the data.
	if got := lh.Store.ObjectCount("single-copy", "t/"); got != 1 {
		t.Fatalf("data files = %d, want 1 (a single copy)", got)
	}
}

// TestUseCaseCrossCloudAnalysis: "BigQuery Omni now empowers customers
// to query data across clouds seamlessly using cross-cloud joins and
// maintains fine-grained access control" (§6).
func TestUseCaseCrossCloudAnalysis(t *testing.T) {
	dep := NewMultiCloud("admin@corp")
	gcp, err := dep.AddRegion("gcp-us", "gcp")
	if err != nil {
		t.Fatal(err)
	}
	aws, err := dep.AddRegion("aws-us-east-1", "aws")
	if err != nil {
		t.Fatal(err)
	}
	schema := NewSchema(Field{Name: "k", Type: Int64}, Field{Name: "v", Type: Int64})
	for _, r := range []struct {
		region  *Region
		dataset string
	}{{gcp, "gds"}, {aws, "ads"}} {
		if err := dep.Catalog.CreateDataset(catalog.Dataset{Name: r.dataset, Region: r.region.Name, Cloud: r.region.Cloud}); err != nil {
			t.Fatal(err)
		}
		if err := dep.Catalog.CreateTable(catalog.Table{
			Dataset: r.dataset, Name: "t", Type: catalog.Managed, Schema: schema,
			Cloud: r.region.Cloud, Bucket: r.region.Manager.DefaultBucket,
			Prefix: "blmt/t/", Connection: r.region.DefaultConnection(),
		}); err != nil {
			t.Fatal(err)
		}
		dep.Auth.GrantTable(omni.ControlPrincipal, r.dataset+".t", "analyst@corp", RoleViewer)
		dep.Auth.GrantTable(omni.ControlPrincipal, r.dataset+".t", "admin@corp", RoleOwner)
		bl := vector.NewBuilder(schema)
		for i := 0; i < 40; i++ {
			bl.Append(IntValue(int64(i%10)), IntValue(int64(i)))
		}
		if err := r.region.Manager.Insert(engine.NewContext("admin@corp", "seed"), r.dataset+".t", bl.Build()); err != nil {
			t.Fatal(err)
		}
	}
	// Fine-grained control holds across clouds: a row policy on the
	// remote table governs the cross-cloud join's inputs.
	dep.Auth.AddRowPolicy(omni.ControlPrincipal, "ads.t", RowPolicy{
		Name: "small", Grantees: map[Principal]bool{"analyst@corp": true},
		Filter: []Predicate{{Column: "v", Op: vector.LT, Value: IntValue(10)}},
	})
	res, err := dep.Submit("analyst@corp", `SELECT g.v, a.v
		FROM gds.t AS g JOIN ads.t AS a ON g.k = a.k`)
	if err != nil {
		t.Fatal(err)
	}
	// Remote side restricted to v<10 (10 rows, keys 0..9), local side
	// has 4 rows per key: 40 joined rows.
	if res.Batch.N != 40 {
		t.Fatalf("governed cross-cloud join rows = %d, want 40", res.Batch.N)
	}
	for i := 0; i < res.Batch.N; i++ {
		if res.Batch.Row(i)[1].AsInt() >= 10 {
			t.Fatal("row policy leaked across clouds")
		}
	}
}

// TestUseCaseMultiModalAnalysis: "customers can now analyze
// unstructured data within BigQuery using the same governance
// framework employed for structured data" (§6) — metadata extraction,
// training-corpus definition, and granular security over objects.
func TestUseCaseMultiModalAnalysis(t *testing.T) {
	lh := newLakehouse(t)
	lh.CreateDataset("ml")
	lh.CreateBucket("corpus")
	rng := sim.NewRNG(3)
	classes := []string{"cat", "dog"}
	for i := 0; i < 20; i++ {
		img := mlmodel.RandomImage(rng, 64, 64, i%2, 2)
		enc, _ := mlmodel.EncodeImage(img)
		key := fmt.Sprintf("imgs/%s-%03d.jpg", classes[i%2], i)
		if err := lh.Upload("corpus", key, enc, "image/jpeg"); err != nil {
			t.Fatal(err)
		}
	}
	if err := lh.CreateObjectTable(admin, "ml", "images", "corpus", "imgs/"); err != nil {
		t.Fatal(err)
	}

	// Metadata extraction: inference labels feed structured analysis.
	lh.Inference.RegisterModel(&Model{
		Name:       "ml.classifier",
		Classifier: NewClassifier("c", 16, 16, classes, 5),
	})
	res, err := lh.Query(admin, `SELECT predictions, COUNT(*) AS n FROM
		ML.PREDICT(MODEL ml.classifier, (SELECT uri, ML.DECODE_IMAGE(uri) AS image FROM ml.images))
		GROUP BY predictions ORDER BY predictions`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Batch.N != 2 {
		t.Fatalf("label groups = %d", res.Batch.N)
	}

	// Training-corpus definition: sample under governance.
	lh.Auth.GrantTable(admin, "ml.images", analyst, RoleViewer)
	lh.Auth.AddRowPolicy(admin, "ml.images", RowPolicy{
		Name: "recent", Grantees: map[Principal]bool{analyst: true},
		Filter: []Predicate{{Column: "size", Op: vector.GT, Value: IntValue(0)}},
	})
	visible, err := lh.Query(analyst, "SELECT uri FROM ml.images")
	if err != nil {
		t.Fatal(err)
	}
	sample, err := SampleObjects(visible.Batch, 0.5, 9)
	if err != nil {
		t.Fatal(err)
	}
	if sample.N == 0 || sample.N >= visible.Batch.N {
		t.Fatalf("sample = %d of %d", sample.N, visible.Batch.N)
	}

	// Granular security: a stranger cannot enumerate the corpus.
	if _, err := lh.Query("stranger@evil", "SELECT uri FROM ml.images"); err == nil {
		t.Fatal("stranger enumerated governed objects")
	}
}
