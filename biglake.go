// Package biglake is the public API of this repository: a from-scratch
// Go reproduction of "BigLake: BigQuery's Evolution toward a
// Multi-Cloud Lakehouse" (SIGMOD 2024). It exposes:
//
//   - Lakehouse: a single-region deployment with BigLake tables over
//     open columnar files (delegated access, fine-grained governance,
//     Big Metadata acceleration), BigLake Managed Tables (DML,
//     streaming, Iceberg export), Object tables over unstructured
//     data, BQML inference (in-engine and remote), and the Storage
//     Read/Write APIs for external engines;
//
//   - Deployment (via NewMultiCloud): an Omni-style multi-cloud
//     installation with a GCP control plane, foreign-cloud data
//     planes, cross-cloud queries and cross-cloud materialized views.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-measured results.
package biglake

import (
	"biglake/internal/bigmeta"
	"biglake/internal/catalog"
	"biglake/internal/colfmt"
	"biglake/internal/core"
	"biglake/internal/engine"
	"biglake/internal/inference"
	"biglake/internal/mlmodel"
	"biglake/internal/objstore"
	"biglake/internal/objtable"
	"biglake/internal/omni"
	"biglake/internal/security"
	"biglake/internal/sim"
	"biglake/internal/sparkle"
	"biglake/internal/storageapi"
	"biglake/internal/vector"
)

// Core deployment types.
type (
	// Lakehouse is a single-region BigLake deployment. Its Query runs
	// each statement on the deployment's query service: admitted (the
	// serve layer's default budget and queue) and recorded once in
	// system.jobs with its SQL text. BEGIN opens the principal's
	// transaction and returns one row, its txn_id.
	Lakehouse = core.Lakehouse
	// Options configures New.
	Options = core.Options
	// BigLakeTableSpec describes a BigLake table over open files.
	BigLakeTableSpec = core.BigLakeTableSpec
	// Deployment is an Omni multi-cloud installation.
	Deployment = omni.Deployment
	// Region is one Omni data plane.
	Region = omni.Region
	// CCMV is a cross-cloud materialized view.
	CCMV = omni.CCMV
)

// Identity and governance types.
type (
	// Principal identifies a user or service account.
	Principal = security.Principal
	// Connection is a delegated-access connection object.
	Connection = security.Connection
	// RowPolicy is a row-level access policy.
	RowPolicy = security.RowPolicy
	// ColumnPolicy protects or masks a column.
	ColumnPolicy = security.ColumnPolicy
	// Role is a coarse table role.
	Role = security.Role
)

// Governance role levels.
const (
	RoleNone   = security.RoleNone
	RoleViewer = security.RoleViewer
	RoleEditor = security.RoleEditor
	RoleOwner  = security.RoleOwner
)

// Data types.
type (
	// Schema describes a table's columns.
	Schema = vector.Schema
	// Field is one schema column.
	Field = vector.Field
	// Value is one SQL value.
	Value = vector.Value
	// Batch is a columnar result set.
	Batch = vector.Batch
	// Predicate is a pushdown filter.
	Predicate = colfmt.Predicate
	// Result is a completed query.
	Result = engine.Result
	// Table is a catalog table definition.
	Table = catalog.Table
	// FileEntry is cached physical file metadata.
	FileEntry = bigmeta.FileEntry
)

// Column type constants.
const (
	Int64     = vector.Int64
	Float64   = vector.Float64
	Bool      = vector.Bool
	String    = vector.String
	Bytes     = vector.Bytes
	Timestamp = vector.Timestamp
)

// Comparison operators for predicates.
const (
	EQ = vector.EQ
	NE = vector.NE
	LT = vector.LT
	LE = vector.LE
	GT = vector.GT
	GE = vector.GE
)

// Masking transforms for column policies.
const (
	MaskNullify  = vector.MaskNullify
	MaskHash     = vector.MaskHash
	MaskDefault  = vector.MaskDefault
	MaskLastFour = vector.MaskLastFour
)

// Storage API types for external engines.
type (
	// ReadSessionRequest parameterizes CreateReadSession.
	ReadSessionRequest = storageapi.ReadSessionRequest
	// ReadSession is the handle streams are read from.
	ReadSession = storageapi.ReadSession
	// AggregateRequest asks the Read API for a server-side partial
	// aggregate.
	AggregateRequest = storageapi.AggregateRequest
	// StorageServer is the Storage Read/Write API frontend.
	StorageServer = storageapi.Server
	// SparkleSession is the external-engine driver session.
	SparkleSession = sparkle.Session
	// SparkleOptions tunes the external engine's planner.
	SparkleOptions = sparkle.Options
)

// Inference types.
type (
	// Model is a registered BQML model.
	Model = inference.Model
	// Classifier is the local image classifier.
	Classifier = mlmodel.Classifier
	// DocParser is the document-entity extractor.
	DocParser = mlmodel.DocParser
	// ModelServer hosts remote models over HTTP.
	ModelServer = inference.ModelServer
)

// Credential is an object-store identity.
type Credential = objstore.Credential

// New creates a single-region lakehouse deployment.
func New(opts Options) (*Lakehouse, error) { return core.New(opts) }

// NewMultiCloud creates an Omni-style deployment; add regions with
// Deployment.AddRegion (the first GCP region becomes the control
// plane's primary).
func NewMultiCloud(admins ...Principal) *Deployment {
	return omni.NewDeployment(sim.NewClock(), admins...)
}

// NewSparkleSession opens an external-engine session against a
// lakehouse (the Spark/Trino role in the paper's figures).
func NewSparkleSession(lh *Lakehouse, opts SparkleOptions) *SparkleSession {
	return sparkle.NewSession(lh.Clock, opts)
}

// NewSchema builds a schema from fields.
func NewSchema(fields ...Field) Schema { return vector.NewSchema(fields...) }

// Convenience value constructors.
var (
	IntValue    = vector.IntValue
	FloatValue  = vector.FloatValue
	BoolValue   = vector.BoolValue
	StringValue = vector.StringValue
)

// NewClassifier builds a deterministic image classifier model.
func NewClassifier(name string, inputSide, hidden int, classes []string, seed uint64) *Classifier {
	return mlmodel.NewClassifier(name, inputSide, hidden, classes, seed)
}

// SampleObjects draws a deterministic random sample from an
// object-table result (§4.1's two-line 1% sample).
func SampleObjects(b *Batch, fraction float64, seed uint64) (*Batch, error) {
	return objtable.Sample(b, fraction, seed)
}
