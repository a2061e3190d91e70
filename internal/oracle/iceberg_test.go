package oracle

// BLMT ↔ Iceberg consistency: after random DML and compaction on a
// managed table, the Iceberg snapshot exported via internal/iceberg
// must reference a file set that decodes to exactly the row set the
// engine returns for the same table. An external Iceberg reader and a
// BigQuery query must never disagree about table contents — the
// zero-copy interoperability claim in DESIGN.md.

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"biglake/internal/colfmt"
	"biglake/internal/engine"
	"biglake/internal/iceberg"
)

// icebergRows decodes every data file referenced by the table's
// exported snapshot and returns the rendered row multiset.
func icebergRows(t *testing.T, h *harness, table, metadataKey string) ([]string, []string) {
	t.Helper()
	tab, err := h.w.Catalog.Table(table)
	if err != nil {
		t.Fatal(err)
	}
	files, schema, err := iceberg.ReadTable(h.w.Store, h.w.ServiceAccount(), tab.Bucket, metadataKey)
	if err != nil {
		t.Fatalf("ReadTable(%s): %v", metadataKey, err)
	}
	var rows []string
	for _, f := range files {
		slash := strings.IndexByte(f.Path, '/')
		if slash < 0 {
			t.Fatalf("data file path %q has no bucket prefix", f.Path)
		}
		data, _, err := h.w.Store.Get(h.w.ServiceAccount(), f.Path[:slash], f.Path[slash+1:])
		if err != nil {
			t.Fatalf("get %s: %v", f.Path, err)
		}
		rd, err := colfmt.NewVectorizedReader(data, nil, nil)
		if err != nil {
			t.Fatalf("decode %s: %v", f.Path, err)
		}
		b, err := rd.ReadAll()
		if err != nil {
			t.Fatalf("read %s: %v", f.Path, err)
		}
		if int64(b.N) != f.RecordCount {
			t.Fatalf("%s: manifest says %d records, file holds %d", f.Path, f.RecordCount, b.N)
		}
		for r := 0; r < b.N; r++ {
			rows = append(rows, renderRow(b.Row(r)))
		}
	}
	names := make([]string, len(schema.Fields))
	for i, fld := range schema.Fields {
		names[i] = fld.Name
	}
	return rows, names
}

// checkExportEquality exports one managed table and compares the
// snapshot's decoded contents against SELECT * through the engine.
func checkExportEquality(t *testing.T, h *harness, table string) {
	t.Helper()
	key, err := h.w.Manager.ExportIceberg(table)
	if err != nil {
		t.Fatalf("ExportIceberg(%s): %v", table, err)
	}
	gotRows, gotNames := icebergRows(t, h, table, key)

	eng := h.engineFor(defaultCell())
	want, err := h.engRun(eng, diffAdmin, "iceberg-eq-"+table, "SELECT * FROM "+table)
	if err != nil {
		t.Fatalf("SELECT * FROM %s: %v", table, err)
	}
	if strings.Join(gotNames, ",") != strings.Join(want.Names, ",") {
		t.Fatalf("%s: iceberg schema %v, engine schema %v", table, gotNames, want.Names)
	}
	wantRows := make([]string, len(want.Rows))
	for i, row := range want.Rows {
		wantRows[i] = renderRow(row)
	}
	if len(gotRows) != len(wantRows) {
		t.Fatalf("%s: iceberg snapshot has %d rows, engine returns %d", table, len(gotRows), len(wantRows))
	}
	sort.Strings(gotRows)
	sort.Strings(wantRows)
	for i := range gotRows {
		if gotRows[i] != wantRows[i] {
			t.Fatalf("%s: row %d differs\n  iceberg: %s\n  engine:  %s", table, i, gotRows[i], wantRows[i])
		}
	}
	t.Logf("%s: iceberg export matches engine (%d rows, %d columns)", table, len(gotRows), len(gotNames))
}

func TestIcebergExportEquality(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			w, err := newWorld(engine.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			gen := NewGen(seed)
			tables := gen.Tables()
			h := &harness{w: w, db: NewDB(), seed: seed, rep: &Report{}, logf: t.Logf}
			if err := h.install(tables); err != nil {
				t.Fatal(err)
			}
			var managed *GenTable
			for _, tb := range tables {
				if tb.Managed {
					managed = tb
				}
			}

			// Random DML so the commit log carries inserts, deletes,
			// and updates beyond the bootstrap state.
			ctasT, d := h.runDML(gen, managed, fmt.Sprintf("ds.ice%d", seed))
			if d != nil {
				t.Fatalf("DML divergence while seeding: %s", d.Format())
			}

			// Export both before and after compaction: the snapshot
			// must track whichever file layout is current.
			checkExportEquality(t, h, managed.Full)
			if _, err := w.Manager.Optimize(string(diffAdmin), managed.Full, ""); err != nil {
				t.Fatalf("optimize: %v", err)
			}
			checkExportEquality(t, h, managed.Full)

			if ctasT != nil {
				checkExportEquality(t, h, ctasT.Full)
			}
		})
	}
}
