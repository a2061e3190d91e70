// Package core assembles the BigLake lakehouse: it wires the catalog,
// IAM authority, Big Metadata, the Dremel engine, the Storage APIs,
// the BLMT manager and the BQML inference runtime into one coherent
// deployment object — the "single core platform that solves the
// difficult data management problems once, but has it work across
// storage substrates and analytics stacks" of §3. Every lakehouse is
// deployed on a ControlPlane; several can share one, as Omni's regions
// do (§5).
package core

import (
	"errors"
	"fmt"
	"time"

	"biglake/internal/bigmeta"
	"biglake/internal/blmt"
	"biglake/internal/catalog"
	"biglake/internal/engine"
	"biglake/internal/inference"
	"biglake/internal/objstore"
	"biglake/internal/obs"
	"biglake/internal/security"
	"biglake/internal/serve"
	"biglake/internal/sim"
	"biglake/internal/storageapi"
	"biglake/internal/txn"
	"biglake/internal/vector"
	"biglake/internal/wal"
)

// Options configures a lakehouse deployment.
type Options struct {
	// Cloud names the hosting cloud ("gcp" default).
	Cloud string
	// Region is the deployment region name.
	Region string
	// Admin is the deployment administrator principal.
	Admin security.Principal
	// Engine tunes query execution (defaults to production settings).
	Engine *engine.Options
}

// ControlPlane is what every lakehouse deployed on it shares: the
// simulated clock, the catalog, the IAM authority and the metrics
// registry. core.New deploys one lakehouse on a control plane of its
// own; an Omni deployment deploys one per region on a shared one (§5's
// data plane per cloud under one GCP control plane).
type ControlPlane struct {
	Clock   *sim.Clock
	Catalog *catalog.Catalog
	Auth    *security.Authority
	// Obs is the registry every lakehouse on the control plane counts
	// into, and what their system.metrics reads.
	Obs *obs.Registry
}

// NewControlPlane builds an empty control plane whose IAM authority
// signs tokens with secret and is administered by admins.
func NewControlPlane(clock *sim.Clock, secret string, admins ...security.Principal) *ControlPlane {
	return &ControlPlane{Clock: clock, Catalog: catalog.New(),
		Auth: security.NewAuthority(secret, admins...), Obs: obs.NewRegistry()}
}

// Lakehouse is one region's BigLake deployment on a control plane.
type Lakehouse struct {
	*ControlPlane
	Meta       *bigmeta.Cache
	Log        *bigmeta.Log
	Engine     *engine.Engine
	StorageAPI *storageapi.Server
	Manager    *blmt.Manager
	Inference  *inference.Runtime
	Store      *objstore.Store
	Journal    *wal.Journal
	Txns       *txn.Manager
	// Server is the query service Query runs on; it holds each
	// principal's one open transaction.
	Server *serve.Server
	Admin  security.Principal

	cloud, region string
	serviceSA     objstore.Credential
	querySeq      int
}

// managedBucket holds managed-table data by default and the journal.
// Every lakehouse has a store of its own, so the name never collides.
const managedBucket = "bq-managed"

func (opts *Options) defaults() {
	if opts.Cloud == "" {
		opts.Cloud = "gcp"
	}
	if opts.Region == "" {
		opts.Region = opts.Cloud + "-us"
	}
	if opts.Admin == "" {
		opts.Admin = "admin@biglake"
	}
}

// New builds a ready-to-use lakehouse on a control plane of its own.
func New(opts Options) (*Lakehouse, error) {
	opts.defaults()
	return NewControlPlane(sim.NewClock(), "lakehouse-"+opts.Region, opts.Admin).Deploy(opts)
}

// Deploy builds a lakehouse in opts.Region on the control plane: its
// own object store, journal, log and services, the control plane's
// clock, catalog, IAM and registry. opts.Admin must administer the
// control plane's IAM. One rule names what a region adds to the shared
// IAM and its own store, so regions never collide: the service account
// sa-biglake@<region>, its connection managed-<region>, and the managed
// bucket bq-managed. The _system dataset is created once per catalog.
func (cp *ControlPlane) Deploy(opts Options) (*Lakehouse, error) {
	opts.defaults()
	engOpts := engine.DefaultOptions()
	if opts.Engine != nil {
		engOpts = *opts.Engine
	}
	store := objstore.New(sim.ProfileFor(opts.Cloud), cp.Clock)
	sa := objstore.Credential{Principal: "sa-biglake@" + opts.Region}
	if err := store.CreateBucket(sa, managedBucket); err != nil {
		return nil, err
	}
	lh := &Lakehouse{
		ControlPlane: cp, Store: store, Admin: opts.Admin,
		cloud: opts.Cloud, region: opts.Region, serviceSA: sa,
	}
	lh.assemble(bigmeta.NewLog(cp.Clock), engOpts, cp.Obs)
	j, err := wal.Open(store, sa, managedBucket, "")
	if err != nil {
		return nil, err
	}
	lh.Log.AttachJournal(j)
	lh.Journal = j
	if err := lh.Auth.RegisterConnection(opts.Admin, security.Connection{
		Name: lh.DefaultConnection(), ServiceAccount: sa, Cloud: opts.Cloud,
	}); err != nil {
		return nil, err
	}
	if _, err := lh.Catalog.Dataset("_system"); errors.Is(err, catalog.ErrNotFound) {
		if err := lh.CreateDataset("_system"); err != nil {
			return nil, err
		}
	}
	return lh, nil
}

// assemble builds every in-memory service over log: the Big Metadata
// cache, the engine, the Storage API server, the BLMT manager, the
// transaction manager, the inference runtime and the query service
// (serve.Config{}). The store and the control plane survive it. There is
// one registry for the deployment — reg — and system.metrics reads it:
// the store, cache and log are pointed at it, the Storage API server and
// the BLMT manager inherit it from the log, the transaction manager, the
// inference runtime and the query service from the engine, a journal
// recovery from the store. Open interactive sessions are dropped.
func (lh *Lakehouse) assemble(log *bigmeta.Log, engOpts engine.Options, reg *obs.Registry) {
	stores := map[string]*objstore.Store{lh.cloud: lh.Store}
	meta := bigmeta.NewCache(lh.Clock)
	eng := engine.New(lh.Catalog, lh.Auth, meta, log, lh.Clock, stores, engOpts)
	eng.ManagedCred = lh.serviceSA
	eng.UseObs(reg)
	lh.Store.UseObs(eng.Obs)
	meta.UseObs(eng.Obs)
	log.UseObs(eng.Obs)
	srv := storageapi.NewServer(lh.Catalog, lh.Auth, meta, log, lh.Clock, stores)
	srv.ManagedCred = lh.serviceSA
	mgr := blmt.New(lh.Catalog, lh.Auth, log, lh.Clock, stores)
	mgr.DefaultCloud, mgr.DefaultBucket, mgr.DefaultConnection = lh.cloud, managedBucket, lh.DefaultConnection()
	eng.SetMutator(mgr)
	rt := inference.NewRuntime(lh.Auth, stores, lh.Clock, lh.serviceSA)
	rt.Attach(eng)
	lh.Meta, lh.Log, lh.Engine, lh.StorageAPI, lh.Manager, lh.Inference = meta, log, eng, srv, mgr, rt
	lh.Txns = txn.NewManager(eng)
	lh.Server = serve.New(eng, lh.Txns, serve.Config{})
}

// NewEngine returns another engine over this deployment, with its own
// options, scan cache and arena pool. It shares everything else with
// lh.Engine: catalog, IAM, log, stores, Big Metadata cache, BLMT
// mutator, managed credential, registry and tracer — so its DML is
// visible to lh.Engine and the other way round, and it counts where
// system.metrics reads.
func (lh *Lakehouse) NewEngine(opts engine.Options) *engine.Engine {
	eng := engine.New(lh.Catalog, lh.Auth, lh.Meta, lh.Log, lh.Clock, lh.Engine.Stores, opts)
	eng.ManagedCred = lh.serviceSA
	eng.UseObs(lh.Engine.Obs)
	eng.Tracer = lh.Engine.Tracer
	eng.SetMutator(lh.Manager)
	return eng
}

// Recover is the restart path: it reopens the journal from the store,
// replays it with wal.Recover and rebuilds every in-memory service over
// the replayed log with lh.Engine's options, registry and tracer — the
// Storage API server resuming each write stream at its sealed offset,
// the BLMT manager keeping AutoIceberg. Open sessions and transactions
// go with the old query service; the clock, store, catalog and IAM are
// kept. Orphan GC and re-exporting Iceberg metadata are the caller's,
// which knows its data prefixes. A crash injector on the old log is not
// carried over.
func (lh *Lakehouse) Recover() (wal.RecoveryReport, error) {
	j, err := wal.Open(lh.Store, lh.serviceSA, managedBucket, "")
	if err != nil {
		return wal.RecoveryReport{}, fmt.Errorf("core: reopen journal: %w", err)
	}
	rec, err := wal.Recover(j, lh.Clock)
	if err != nil {
		return wal.RecoveryReport{}, err
	}
	old := lh.Engine
	autoIceberg := lh.Manager.AutoIceberg
	lh.assemble(rec.Log, old.Opts, old.Obs)
	lh.Engine.Tracer = old.Tracer
	lh.Manager.AutoIceberg = autoIceberg
	lh.StorageAPI.RestoreStreams(rec.Report.Streams)
	lh.Journal = j
	return rec.Report, nil
}

// Cloud returns the hosting cloud name.
func (lh *Lakehouse) Cloud() string { return lh.cloud }

// DefaultConnection names the connection of the deployment's service
// account: table helpers use it when a spec names none.
func (lh *Lakehouse) DefaultConnection() string { return "managed-" + lh.region }

// ServiceAccount returns the deployment's default delegated service
// account credential.
func (lh *Lakehouse) ServiceAccount() objstore.Credential { return lh.serviceSA }

// CreateDataset registers a dataset in the hosting region.
func (lh *Lakehouse) CreateDataset(name string) error {
	return lh.Catalog.CreateDataset(catalog.Dataset{Name: name, Region: lh.region, Cloud: lh.cloud})
}

// CreateBucket provisions a customer bucket readable by the default
// connection.
func (lh *Lakehouse) CreateBucket(name string) error {
	return lh.Store.CreateBucket(lh.serviceSA, name)
}

// CreateConnection provisions a delegated-access connection with a
// fresh service account (§3.1) and grants it read access to the named
// buckets.
func (lh *Lakehouse) CreateConnection(name string, buckets ...string) (security.Connection, error) {
	sa := objstore.Credential{Principal: fmt.Sprintf("sa-%s@biglake", name)}
	conn := security.Connection{Name: name, ServiceAccount: sa, Cloud: lh.cloud}
	if err := lh.Auth.RegisterConnection(lh.Admin, conn); err != nil {
		return security.Connection{}, err
	}
	for _, b := range buckets {
		if err := lh.Store.Grant(lh.serviceSA, b, sa.Principal, objstore.PermRead); err != nil {
			return security.Connection{}, err
		}
	}
	return conn, nil
}

// BigLakeTableSpec describes a BigLake table over open-format files.
type BigLakeTableSpec struct {
	Dataset, Name   string
	Schema          vector.Schema
	Bucket, Prefix  string
	Connection      string
	PartitionColumn string
	// MetadataCaching enables §3.3 acceleration (default true via
	// CreateBigLakeTable).
	MetadataCaching bool
	// MetadataStaleness bounds cache age before an automatic
	// background refresh (0 = on demand only).
	MetadataStaleness time.Duration
}

// CreateBigLakeTable registers a BigLake table and grants the creator
// ownership.
func (lh *Lakehouse) CreateBigLakeTable(creator security.Principal, spec BigLakeTableSpec) error {
	if spec.Connection == "" {
		spec.Connection = lh.DefaultConnection()
	}
	t := catalog.Table{
		Dataset: spec.Dataset, Name: spec.Name, Type: catalog.BigLake,
		Schema: spec.Schema, Cloud: lh.cloud, Bucket: spec.Bucket, Prefix: spec.Prefix,
		Connection: spec.Connection, PartitionColumn: spec.PartitionColumn,
		MetadataCaching: spec.MetadataCaching, MetadataStaleness: spec.MetadataStaleness,
		CreatedAt: lh.Clock.Now(),
	}
	if err := lh.Catalog.CreateTable(t); err != nil {
		return err
	}
	return lh.Auth.GrantTable(lh.Admin, t.FullName(), creator, security.RoleOwner)
}

// CreateManagedTable registers a BLMT storing data on a customer
// bucket (§3.5).
func (lh *Lakehouse) CreateManagedTable(creator security.Principal, dataset, name string, schema vector.Schema, bucket string) error {
	t := catalog.Table{
		Dataset: dataset, Name: name, Type: catalog.Managed,
		Schema: schema, Cloud: lh.cloud, Bucket: bucket,
		Prefix:     fmt.Sprintf("blmt/%s/%s/", dataset, name),
		Connection: lh.DefaultConnection(), CreatedAt: lh.Clock.Now(),
	}
	if err := lh.Catalog.CreateTable(t); err != nil {
		return err
	}
	return lh.Auth.GrantTable(lh.Admin, t.FullName(), creator, security.RoleOwner)
}

// CreateObjectTable registers an Object table over a bucket prefix of
// unstructured objects (§4.1).
func (lh *Lakehouse) CreateObjectTable(creator security.Principal, dataset, name, bucket, prefix string) error {
	t := catalog.Table{
		Dataset: dataset, Name: name, Type: catalog.Object,
		Cloud: lh.cloud, Bucket: bucket, Prefix: prefix,
		Connection: lh.DefaultConnection(), MetadataCaching: true, CreatedAt: lh.Clock.Now(),
	}
	if err := lh.Catalog.CreateTable(t); err != nil {
		return err
	}
	return lh.Auth.GrantTable(lh.Admin, t.FullName(), creator, security.RoleOwner)
}

// Query runs one SQL statement as a principal on the lakehouse's query
// service (Server.Exec, query ID q-<n>): admitted, recorded once in
// system.jobs, returned whole. BEGIN opens the principal's transaction
// and returns one txn_id row; the principal's statements then run inside
// it — reads pinned to the BEGIN-time snapshot, writes buffered until
// COMMIT seals them atomically — until COMMIT or ROLLBACK. BEGIN fails
// with serve.ErrTxnOpen while a serve session of the principal holds one.
func (lh *Lakehouse) Query(p security.Principal, sql string) (*engine.Result, error) {
	lh.querySeq++
	return lh.Server.Exec(p, fmt.Sprintf("q-%d", lh.querySeq), sql)
}

// RefreshMetadataCache rebuilds the §3.3 cache for a table in the
// background.
func (lh *Lakehouse) RefreshMetadataCache(table string) (int, error) {
	t, err := lh.Catalog.Table(table)
	if err != nil {
		return 0, err
	}
	store, cred, err := lh.Engine.Planner().Resolve(t)
	if err != nil {
		return 0, err
	}
	return lh.Meta.Refresh(table, store, cred, t.Bucket, t.Prefix, bigmeta.RefreshOptions{
		WithFileStats: t.Type != catalog.Object,
		Background:    true,
	})
}

// Upload writes an object through the default service account (a
// loader convenience for examples and tests).
func (lh *Lakehouse) Upload(bucket, key string, data []byte, contentType string) error {
	_, err := lh.Store.Put(lh.serviceSA, bucket, key, data, contentType)
	return err
}

// Now returns the deployment's simulated time.
func (lh *Lakehouse) Now() time.Duration { return lh.Clock.Now() }
