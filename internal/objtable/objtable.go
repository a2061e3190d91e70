// Package objtable implements the Object-table utilities of §4.1 on
// top of the engine's object-table scans: signed-URL generation under
// the row-governance invariant ("access to a row implies access to the
// content of the corresponding object"), fast random sampling of huge
// object sets, and the remote-function hand-off pattern where signed
// URLs extend the BigLake governance umbrella outside BigQuery.
package objtable

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"biglake/internal/objstore"
	"biglake/internal/sim"
	"biglake/internal/vector"
)

// ErrNoURIColumn reports an input batch without a uri column.
var ErrNoURIColumn = errors.New("objtable: batch has no uri column")

// SplitURI parses "cloud://bucket/key".
func SplitURI(uri string) (cloud, bucket, key string, err error) {
	i := strings.Index(uri, "://")
	if i <= 0 {
		return "", "", "", fmt.Errorf("objtable: malformed uri %q", uri)
	}
	rest := uri[i+3:]
	j := strings.IndexByte(rest, '/')
	if j <= 0 || j == len(rest)-1 {
		return "", "", "", fmt.Errorf("objtable: malformed uri %q", uri)
	}
	return uri[:i], rest[:j], rest[j+1:], nil
}

// SignURLs mints signed URLs for every row of an object-table result
// batch. Because the batch has already passed row-level governance,
// the invariant holds: a caller only ever receives URLs for objects
// whose rows it was allowed to see.
func SignURLs(stores map[string]*objstore.Store, cred objstore.Credential, rows *vector.Batch, ttl time.Duration) ([]string, error) {
	ui := rows.Schema.Index("uri")
	if ui < 0 {
		return nil, ErrNoURIColumn
	}
	uris := rows.Cols[ui].Decode()
	out := make([]string, uris.Len)
	for i := 0; i < uris.Len; i++ {
		cloud, bucket, key, err := SplitURI(uris.Value(i).S)
		if err != nil {
			return nil, err
		}
		store, ok := stores[cloud]
		if !ok {
			return nil, fmt.Errorf("objtable: no store for cloud %q", cloud)
		}
		url, err := store.SignURL(cred, bucket, key, ttl)
		if err != nil {
			return nil, err
		}
		out[i] = url
	}
	return out, nil
}

// Sample returns a deterministic fraction-sized random sample of a
// batch — the "1% random sample of a large dataset of images ... two
// lines of SQL, executes in seconds" workflow (§4.1). fraction is in
// (0, 1].
func Sample(b *vector.Batch, fraction float64, seed uint64) (*vector.Batch, error) {
	if fraction <= 0 || fraction > 1 {
		return nil, fmt.Errorf("objtable: sample fraction %v out of (0, 1]", fraction)
	}
	rng := sim.NewRNG(seed)
	var idx []int
	for i := 0; i < b.N; i++ {
		if rng.Float64() < fraction {
			idx = append(idx, i)
		}
	}
	cols := make([]*vector.Column, len(b.Cols))
	for i, c := range b.Cols {
		cols[i] = vector.GatherWith(vector.Mem{}, c, idx)
	}
	return vector.NewBatch(b.Schema, cols)
}

// FetchAll redeems signed URLs, the path a remote user-defined
// function takes to process objects outside BigQuery while staying
// inside the governance umbrella.
func FetchAll(stores map[string]*objstore.Store, urls []string) ([][]byte, error) {
	out := make([][]byte, len(urls))
	for i, url := range urls {
		// signed://<cloud>/... identifies the issuing store.
		const p = "signed://"
		if !strings.HasPrefix(url, p) {
			return nil, fmt.Errorf("objtable: %q is not a signed url", url)
		}
		rest := url[len(p):]
		j := strings.IndexByte(rest, '/')
		if j <= 0 {
			return nil, fmt.Errorf("objtable: %q is not a signed url", url)
		}
		store, ok := stores[rest[:j]]
		if !ok {
			return nil, fmt.Errorf("objtable: no store for cloud %q", rest[:j])
		}
		data, _, err := store.Fetch(url)
		if err != nil {
			return nil, err
		}
		out[i] = data
	}
	return out, nil
}
