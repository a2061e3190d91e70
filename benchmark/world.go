package main

// The world every workload runs in: the production stack as
// internal/core assembles it (objstore -> bigmeta cache + log with a
// wal journal -> engine -> blmt mutator + txn manager -> Storage API),
// with the scan cache switched on and every component publishing into
// the engine's one registry, fronted by a serve.Server.

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"biglake/internal/colfmt"
	"biglake/internal/core"
	"biglake/internal/engine"
	"biglake/internal/obs"
	"biglake/internal/security"
	"biglake/internal/serve"
	"biglake/internal/vector"
)

const (
	admin          = security.Principal("admin@bench")
	analyst        = security.Principal("analyst@bench")
	lakeBucket     = "lake"
	managedBucket  = "bq-managed" // core.New provisions it
	scanCacheBytes = 32 << 20
)

type world struct {
	lh  *core.Lakehouse
	srv *serve.Server
	reg *obs.Registry
}

func newWorld() (*world, error) {
	opts := engine.DefaultOptions()
	opts.EnableScanCache = true
	opts.ScanCacheBytes = scanCacheBytes
	lh, err := core.New(core.Options{Admin: admin, Engine: &opts})
	if err != nil {
		return nil, err
	}
	reg := lh.Engine.Obs
	lh.Store.UseObs(reg)
	lh.Meta.UseObs(reg)
	lh.Log.UseObs(reg)
	lh.StorageAPI.UseObs(reg)
	lh.Txns.UseObs(reg)
	if err := lh.CreateBucket(lakeBucket); err != nil {
		return nil, err
	}
	if err := lh.CreateDataset("bench"); err != nil {
		return nil, err
	}
	return &world{lh: lh, srv: serve.New(lh.Engine, lh.Txns, serve.Config{}), reg: reg}, nil
}

// lakeTable is one BigLake table's generated content: the batches the
// generator produced and, once encoded, the columnar files a lake
// would already hold before the lakehouse is pointed at it.
type lakeTable struct {
	name   string
	schema vector.Schema
	files  []*vector.Batch
	data   [][]byte
}

// encodeTables writes every batch as a columnar file, GOMAXPROCS files
// at a time, and drops the batches.
func encodeTables(tables []*lakeTable) error {
	type job struct {
		t *lakeTable
		i int
	}
	var jobs []job
	for _, t := range tables {
		t.data = make([][]byte, len(t.files))
		for i := range t.files {
			jobs = append(jobs, job{t, i})
		}
	}
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for n, j := range jobs {
		wg.Add(1)
		go func(n int, j job) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			j.t.data[j.i], errs[n] = colfmt.WriteFile(j.t.files[j.i], colfmt.WriterOptions{})
		}(n, j)
	}
	wg.Wait()
	for _, t := range tables {
		t.files = nil
	}
	return errors.Join(errs...)
}

// loadLake uploads a table's files, registers it as a BigLake table
// with metadata caching, and refreshes the cache so the first query
// already prunes from Big Metadata.
func (w *world) loadLake(t *lakeTable) error {
	prefix := t.name + "/"
	for i, data := range t.data {
		if err := w.lh.Upload(lakeBucket, fmt.Sprintf("%spart-%03d.blk", prefix, i), data, "application/x-blk"); err != nil {
			return err
		}
	}
	if err := w.lh.CreateBigLakeTable(admin, core.BigLakeTableSpec{
		Dataset: "bench", Name: t.name, Schema: t.schema,
		Bucket: lakeBucket, Prefix: prefix, MetadataCaching: true,
	}); err != nil {
		return err
	}
	_, err := w.lh.RefreshMetadataCache("bench." + t.name)
	return err
}

func (w *world) createManaged(name string, schema vector.Schema) error {
	return w.lh.CreateManagedTable(admin, "bench", name, schema, managedBucket)
}
