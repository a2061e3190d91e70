// Package iceberg implements the Apache Iceberg-format snapshot
// export of §3.5: BLMTs keep their source of truth in Big Metadata,
// but can export an Iceberg-compatible snapshot of table metadata to
// cloud storage so "any engine capable of understanding Iceberg can
// query the data directly". The layout follows Iceberg's structure —
// a table-metadata JSON pointing at a manifest list, which points at
// manifests, which enumerate data files with per-column bounds.
package iceberg

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"biglake/internal/bigmeta"
	"biglake/internal/crashpoint"
	"biglake/internal/objstore"
	"biglake/internal/resilience"
	"biglake/internal/vector"
)

// ErrNotIceberg reports a metadata object that is not an Iceberg
// table-metadata file.
var ErrNotIceberg = errors.New("iceberg: not an iceberg table metadata file")

// FormatVersion is the Iceberg spec version the export claims.
const FormatVersion = 2

// TableMetadata is the root metadata document.
type TableMetadata struct {
	FormatVersion     int         `json:"format-version"`
	TableUUID         string      `json:"table-uuid"`
	Location          string      `json:"location"`
	LastUpdatedMillis int64       `json:"last-updated-ms"`
	CurrentSnapshotID int64       `json:"current-snapshot-id"`
	Schemas           []SchemaDoc `json:"schemas"`
	Snapshots         []Snapshot  `json:"snapshots"`
}

// SchemaDoc is one schema revision.
type SchemaDoc struct {
	SchemaID int        `json:"schema-id"`
	Fields   []FieldDoc `json:"fields"`
}

// FieldDoc is one column.
type FieldDoc struct {
	ID       int    `json:"id"`
	Name     string `json:"name"`
	Required bool   `json:"required"`
	Type     string `json:"type"`
}

// Snapshot points at a manifest list.
type Snapshot struct {
	SnapshotID   int64  `json:"snapshot-id"`
	TimestampMS  int64  `json:"timestamp-ms"`
	ManifestList string `json:"manifest-list"`
	Summary      struct {
		Operation  string `json:"operation"`
		TotalFiles int64  `json:"total-data-files,string"`
		TotalRows  int64  `json:"total-records,string"`
	} `json:"summary"`
}

// ManifestList enumerates manifests.
type ManifestList struct {
	Entries []ManifestEntry `json:"entries"`
}

// ManifestEntry points at one manifest file.
type ManifestEntry struct {
	ManifestPath string `json:"manifest_path"`
	AddedFiles   int64  `json:"added_data_files_count"`
}

// Manifest enumerates data files.
type Manifest struct {
	DataFiles []DataFile `json:"data_files"`
}

// DataFile describes one data file with pruning bounds.
type DataFile struct {
	Path        string            `json:"file_path"`
	Format      string            `json:"file_format"`
	RecordCount int64             `json:"record_count"`
	FileSize    int64             `json:"file_size_in_bytes"`
	Partition   map[string]string `json:"partition,omitempty"`
	LowerBounds map[string]string `json:"lower_bounds,omitempty"`
	UpperBounds map[string]string `json:"upper_bounds,omitempty"`
	NullCounts  map[string]int64  `json:"null_value_counts,omitempty"`
}

func icebergType(t vector.Type) string {
	switch t {
	case vector.Int64:
		return "long"
	case vector.Float64:
		return "double"
	case vector.Bool:
		return "boolean"
	case vector.Timestamp:
		return "timestamptz"
	case vector.Bytes:
		return "binary"
	default:
		return "string"
	}
}

// Export writes an Iceberg snapshot of the given file entries into
// bucket under prefix ("metadata/..."), returning the key of the
// table-metadata JSON. snapshotID should be the Big Metadata log
// version the snapshot reflects.
//
// Metadata writes retry under res (nil = no retries). The version-hint
// object — the pointer concurrent exporters race on — is written with
// a generation precondition and a bounded reload-and-re-CAS loop, so
// contention between exporters surfaces as a clean ordered outcome
// rather than a fatal ErrPreconditionFail.
func Export(res resilience.Counted, store *objstore.Store, cred objstore.Credential, bucket, prefix, tableName string, schema vector.Schema, files []bigmeta.FileEntry, snapshotID int64) (string, error) {
	return ExportWithCrash(nil, res, store, cred, bucket, prefix, tableName, schema, files, snapshotID)
}

// ExportWithCrash is Export with crash points marking each step of the
// export protocol. Export is idempotent and runs *after* the sealed
// log commit, so a crash at any of these points leaves at worst
// partially-written (key-versioned, never-referenced) metadata objects
// and a stale version hint — the next export of the same version
// overwrites them and converges the hint.
func ExportWithCrash(crash *crashpoint.Injector, res resilience.Counted, store *objstore.Store, cred objstore.Credential, bucket, prefix, tableName string, schema vector.Schema, files []bigmeta.FileEntry, snapshotID int64) (string, error) {
	now := int64(store.Clock().Now() / time.Millisecond)

	manifest := Manifest{}
	var totalRows int64
	for _, f := range files {
		df := DataFile{
			Path:        fmt.Sprintf("%s/%s", f.Bucket, f.Key),
			Format:      "BLK", // this repo's columnar format; PARQUET in production
			RecordCount: f.RowCount,
			FileSize:    f.Size,
			Partition:   f.Partition,
		}
		if len(f.ColumnStats) > 0 {
			df.LowerBounds = map[string]string{}
			df.UpperBounds = map[string]string{}
			df.NullCounts = map[string]int64{}
			for col, st := range f.ColumnStats {
				df.LowerBounds[col] = st.Min.ToValue().String()
				df.UpperBounds[col] = st.Max.ToValue().String()
				df.NullCounts[col] = st.Nulls
			}
		}
		manifest.DataFiles = append(manifest.DataFiles, df)
		totalRows += f.RowCount
	}

	manifestKey := fmt.Sprintf("%smetadata/snap-%d-manifest.json", prefix, snapshotID)
	manifestJSON, err := json.Marshal(manifest)
	if err != nil {
		return "", err
	}
	crash.At("iceberg.before_manifest")
	if err := res.Do(store.Clock(), nil, "PUT "+bucket+"/"+manifestKey, func() error {
		_, e := store.Put(cred, bucket, manifestKey, manifestJSON, "application/json")
		return e
	}); err != nil {
		return "", err
	}
	crash.At("iceberg.after_manifest")

	listKey := fmt.Sprintf("%smetadata/snap-%d-manifest-list.json", prefix, snapshotID)
	listJSON, err := json.Marshal(ManifestList{Entries: []ManifestEntry{{
		ManifestPath: manifestKey,
		AddedFiles:   int64(len(files)),
	}}})
	if err != nil {
		return "", err
	}
	if err := res.Do(store.Clock(), nil, "PUT "+bucket+"/"+listKey, func() error {
		_, e := store.Put(cred, bucket, listKey, listJSON, "application/json")
		return e
	}); err != nil {
		return "", err
	}

	snap := Snapshot{SnapshotID: snapshotID, TimestampMS: now, ManifestList: listKey}
	snap.Summary.Operation = "append"
	snap.Summary.TotalFiles = int64(len(files))
	snap.Summary.TotalRows = totalRows

	schemaDoc := SchemaDoc{SchemaID: 0}
	for i, f := range schema.Fields {
		schemaDoc.Fields = append(schemaDoc.Fields, FieldDoc{ID: i + 1, Name: f.Name, Type: icebergType(f.Type)})
	}
	meta := TableMetadata{
		FormatVersion:     FormatVersion,
		TableUUID:         fmt.Sprintf("uuid-%s-%d", tableName, snapshotID),
		Location:          fmt.Sprintf("%s/%s", bucket, prefix),
		LastUpdatedMillis: now,
		CurrentSnapshotID: snapshotID,
		Schemas:           []SchemaDoc{schemaDoc},
		Snapshots:         []Snapshot{snap},
	}
	metaJSON, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return "", err
	}
	metaKey := fmt.Sprintf("%smetadata/v%d.metadata.json", prefix, snapshotID)
	if err := res.Do(store.Clock(), nil, "PUT "+bucket+"/"+metaKey, func() error {
		_, e := store.Put(cred, bucket, metaKey, metaJSON, "application/json")
		return e
	}); err != nil {
		return "", err
	}
	crash.At("iceberg.after_metadata")
	// version-hint lets engines discover the latest metadata file. It is
	// the one object concurrent exporters overwrite, so it commits via
	// compare-and-swap on the observed generation; on conflict the loop
	// reloads the generation and re-CASes (bounded attempts).
	hintKey := prefix + "metadata/version-hint.text"
	var hintGen int64
	loadGen := func() error {
		return res.Do(store.Clock(), nil, "HEAD "+bucket+"/"+hintKey, func() error {
			info, err := store.Head(cred, bucket, hintKey)
			if errors.Is(err, objstore.ErrNoSuchObject) {
				hintGen = 0
				return nil
			}
			if err != nil {
				return err
			}
			hintGen = info.Generation
			return nil
		})
	}
	if err := loadGen(); err != nil {
		return "", err
	}
	if err := res.DoCAS(store.Clock(), nil, "PUT "+bucket+"/"+hintKey, func() error {
		_, e := store.PutIfGeneration(cred, bucket, hintKey, []byte(metaKey), "text/plain", hintGen)
		return e
	}, loadGen); err != nil {
		return "", err
	}
	crash.At("iceberg.after_hint")
	return metaKey, nil
}

// ReadTable loads an exported snapshot the way an external Iceberg
// reader would: metadata JSON -> manifest list -> manifests -> data
// files. It returns the data-file entries and the snapshot's schema.
func ReadTable(store *objstore.Store, cred objstore.Credential, bucket, metadataKey string) ([]DataFile, vector.Schema, error) {
	metaJSON, _, err := store.Get(cred, bucket, metadataKey)
	if err != nil {
		return nil, vector.Schema{}, err
	}
	var meta TableMetadata
	if err := json.Unmarshal(metaJSON, &meta); err != nil || meta.FormatVersion == 0 {
		return nil, vector.Schema{}, fmt.Errorf("%w: %s", ErrNotIceberg, metadataKey)
	}
	var current *Snapshot
	for i := range meta.Snapshots {
		if meta.Snapshots[i].SnapshotID == meta.CurrentSnapshotID {
			current = &meta.Snapshots[i]
		}
	}
	if current == nil {
		return nil, vector.Schema{}, fmt.Errorf("iceberg: metadata %s has no current snapshot", metadataKey)
	}
	listJSON, _, err := store.Get(cred, bucket, current.ManifestList)
	if err != nil {
		return nil, vector.Schema{}, err
	}
	var list ManifestList
	if err := json.Unmarshal(listJSON, &list); err != nil {
		return nil, vector.Schema{}, err
	}
	var out []DataFile
	for _, entry := range list.Entries {
		manJSON, _, err := store.Get(cred, bucket, entry.ManifestPath)
		if err != nil {
			return nil, vector.Schema{}, err
		}
		var man Manifest
		if err := json.Unmarshal(manJSON, &man); err != nil {
			return nil, vector.Schema{}, err
		}
		out = append(out, man.DataFiles...)
	}
	schema := vector.Schema{}
	if len(meta.Schemas) > 0 {
		for _, f := range meta.Schemas[len(meta.Schemas)-1].Fields {
			schema.Fields = append(schema.Fields, vector.Field{Name: f.Name, Type: fromIcebergType(f.Type)})
		}
	}
	return out, schema, nil
}

func fromIcebergType(s string) vector.Type {
	switch s {
	case "long", "int":
		return vector.Int64
	case "double", "float":
		return vector.Float64
	case "boolean":
		return vector.Bool
	case "timestamptz", "timestamp":
		return vector.Timestamp
	case "binary":
		return vector.Bytes
	default:
		return vector.String
	}
}

// LatestMetadataKey resolves the version hint to the current metadata
// file key.
func LatestMetadataKey(store *objstore.Store, cred objstore.Credential, bucket, prefix string) (string, error) {
	hint, _, err := store.Get(cred, bucket, prefix+"metadata/version-hint.text")
	if err != nil {
		return "", err
	}
	return string(hint), nil
}

// Stats summarizes an exported snapshot for tests and the harness.
func Stats(files []DataFile) (fileCount, rowCount int64) {
	for _, f := range files {
		fileCount++
		rowCount += f.RecordCount
	}
	return fileCount, rowCount
}
