package objtable

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"biglake/internal/objstore"
	"biglake/internal/sim"
	"biglake/internal/vector"
)

func setup(t *testing.T) (map[string]*objstore.Store, objstore.Credential, *sim.Clock) {
	t.Helper()
	clock := sim.NewClock()
	store := objstore.New(sim.GCP, clock)
	cred := objstore.Credential{Principal: "sa@corp"}
	if err := store.CreateBucket(cred, "media"); err != nil {
		t.Fatal(err)
	}
	return map[string]*objstore.Store{"gcp": store}, cred, clock
}

func uriBatch(uris ...string) *vector.Batch {
	schema := vector.NewSchema(
		vector.Field{Name: "uri", Type: vector.String},
		vector.Field{Name: "size", Type: vector.Int64},
	)
	bl := vector.NewBuilder(schema)
	for i, u := range uris {
		bl.Append(vector.StringValue(u), vector.IntValue(int64(i)))
	}
	return bl.Build()
}

func TestSplitURI(t *testing.T) {
	cloud, bucket, key, err := SplitURI("aws://b/dir/f.jpg")
	if err != nil || cloud != "aws" || bucket != "b" || key != "dir/f.jpg" {
		t.Fatalf("split = %q %q %q %v", cloud, bucket, key, err)
	}
	for _, bad := range []string{"", "nope", "x://", "x://b", "x://b/"} {
		if _, _, _, err := SplitURI(bad); err == nil {
			t.Errorf("SplitURI(%q) should fail", bad)
		}
	}
}

func TestSignAndFetch(t *testing.T) {
	stores, cred, _ := setup(t)
	stores["gcp"].Put(cred, "media", "a.bin", []byte("payload-a"), "")
	stores["gcp"].Put(cred, "media", "b.bin", []byte("payload-b"), "")
	batch := uriBatch("gcp://media/a.bin", "gcp://media/b.bin")
	urls, err := SignURLs(stores, cred, batch, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(urls) != 2 {
		t.Fatalf("urls = %v", urls)
	}
	data, err := FetchAll(stores, urls)
	if err != nil {
		t.Fatal(err)
	}
	if string(data[0]) != "payload-a" || string(data[1]) != "payload-b" {
		t.Fatalf("fetched = %q", data)
	}
}

func TestSignURLsRequiresURIColumn(t *testing.T) {
	stores, cred, _ := setup(t)
	b := vector.MustBatch(vector.NewSchema(vector.Field{Name: "x", Type: vector.Int64}),
		[]*vector.Column{vector.NewInt64Column([]int64{1})})
	if _, err := SignURLs(stores, cred, b, time.Minute); !errors.Is(err, ErrNoURIColumn) {
		t.Fatalf("err = %v", err)
	}
}

func TestSignURLsGovernanceInvariant(t *testing.T) {
	// A credential without access to an object cannot mint a URL for
	// it — URLs can only be created for rows the caller could see.
	stores, cred, _ := setup(t)
	stores["gcp"].Put(cred, "media", "secret.bin", []byte("s"), "")
	stranger := objstore.Credential{Principal: "stranger@x"}
	_, err := SignURLs(stores, stranger, uriBatch("gcp://media/secret.bin"), time.Minute)
	if !errors.Is(err, objstore.ErrAccessDenied) {
		t.Fatalf("err = %v", err)
	}
}

func TestFetchAllRejectsGarbage(t *testing.T) {
	stores, _, _ := setup(t)
	if _, err := FetchAll(stores, []string{"http://not-signed"}); err == nil {
		t.Fatal("non-signed url should fail")
	}
	if _, err := FetchAll(stores, []string{"signed://mars/b/k?sig=1"}); err == nil {
		t.Fatal("unknown cloud should fail")
	}
}

func TestSampleFraction(t *testing.T) {
	n := 10000
	uris := make([]string, n)
	for i := range uris {
		uris[i] = fmt.Sprintf("gcp://media/f%05d", i)
	}
	b := uriBatch(uris...)
	s, err := Sample(b, 0.01, 42)
	if err != nil {
		t.Fatal(err)
	}
	if s.N < 50 || s.N > 200 {
		t.Fatalf("1%% sample of %d = %d rows", n, s.N)
	}
	// Deterministic.
	s2, _ := Sample(b, 0.01, 42)
	if s2.N != s.N {
		t.Fatal("same seed must give same sample")
	}
	s3, _ := Sample(b, 0.01, 43)
	if s3.N == s.N && s3.Column("uri").Value(0).S == s.Column("uri").Value(0).S {
		t.Fatal("different seeds should differ")
	}
}

func TestSampleValidation(t *testing.T) {
	b := uriBatch("gcp://media/a")
	for _, f := range []float64{0, -1, 1.5} {
		if _, err := Sample(b, f, 1); err == nil {
			t.Errorf("Sample fraction %v should fail", f)
		}
	}
	full, err := Sample(b, 1.0, 1)
	if err != nil || full.N != 1 {
		t.Fatalf("full sample: %v", err)
	}
}
