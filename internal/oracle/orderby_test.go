package oracle

import (
	"fmt"
	"testing"

	"biglake/internal/engine"
	"biglake/internal/serve"
	"biglake/internal/vector"
)

// The ORDER BY battery pins the sort's total order — NULLs first,
// Value.Compare within a key, DESC reversing a key NULLs included,
// ties falling through to the next key and finally to scan order —
// over every physical shape a key arrives in. ds.ob is a BigLake table
// whose 18-row files dictionary-encode grp, run-length-encode run, n
// and the injected partition column, and leave f, b and id plain; the
// scan-cache cells sort those encoded columns as they are. ds.fct
// (the star world's fact) adds the managed side: 34 small files
// before Optimize, one dictionary-heavy file after.
func orderByTable() *GenTable {
	t := &GenTable{Full: "ds.ob", PartitionCol: "part", Schema: vector.NewSchema(
		vector.Field{Name: "id", Type: vector.Int64},
		vector.Field{Name: "part", Type: vector.String},
		vector.Field{Name: "grp", Type: vector.String},
		vector.Field{Name: "run", Type: vector.String},
		vector.Field{Name: "n", Type: vector.Int64},
		vector.Field{Name: "f", Type: vector.Float64},
		vector.Field{Name: "b", Type: vector.Bool},
	)}
	grps := []string{"pear", "apple", "fig", "apple "}
	for i := 0; i < 180; i++ {
		// Partitions are contiguous blocks, so file order is table order
		// and even a tie on every key has one right answer.
		row := []vector.Value{
			vector.IntValue(int64(i)),
			vector.StringValue(fmt.Sprintf("p%d", i/60)),
			vector.StringValue(grps[i%len(grps)]),
			vector.StringValue(fmt.Sprintf("r%d", (i/9)%5)),
			vector.IntValue(int64((i / 6) % 4)),
			vector.FloatValue(float64(i%5) / 2),
			vector.BoolValue(i%3 == 0),
		}
		if i%7 == 0 {
			row[2] = vector.NullValue
		}
		if (i/9)%6 == 2 {
			row[3] = vector.NullValue // a whole run of NULLs
		}
		if (i/6)%5 == 1 {
			row[4] = vector.NullValue
		}
		if i%11 == 0 {
			row[5] = vector.NullValue
		}
		if i%13 == 0 {
			row[6] = vector.NullValue
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

func orderBySQL() []string {
	var out []string
	for _, keys := range []string{
		"grp", "grp DESC", "run", "run DESC, grp", "n", "n DESC, run DESC", "f", "f DESC, b",
		"b", "b DESC, n", "part DESC, grp", "grp, run, n, f, b", "n + 1 DESC",
	} {
		for _, limit := range []string{"", " LIMIT 25", " LIMIT 1"} {
			out = append(out,
				fmt.Sprintf("SELECT * FROM ds.ob ORDER BY %s%s", keys, limit),
				fmt.Sprintf("SELECT id, grp FROM ds.ob WHERE id >= 0 ORDER BY %s%s", keys, limit))
		}
	}
	for _, keys := range []string{"k2", "k2 DESC, v DESC", "v", "price DESC, k2", "k1 DESC, price"} {
		for _, limit := range []string{"", " LIMIT 30"} {
			out = append(out, fmt.Sprintf("SELECT * FROM ds.fct ORDER BY %s%s", keys, limit))
		}
	}
	return out
}

func TestDifferentialOrderByBattery(t *testing.T) {
	w, err := newWorld(engine.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rep := &Report{}
	h := &harness{
		w: w, db: NewDB(), seed: 1, rep: rep, logf: t.Logf,
		sessions: map[*engine.Engine]*serve.Session{},
	}
	fct := starTables()[0]
	if err := h.install([]*GenTable{orderByTable(), fct}); err != nil {
		t.Fatal(err)
	}
	var battery []GenQuery
	for _, sql := range orderBySQL() {
		battery = append(battery, GenQuery{SQL: sql, Ordered: true})
		if _, err := h.db.ExecSQL(sql); err != nil {
			t.Fatalf("oracle rejects %q: %v", sql, err)
		}
	}
	if d := h.runMatrix("pre", battery); d != nil {
		t.Fatal(d.Format())
	}
	if _, err := w.Manager.Optimize(string(diffAdmin), fct.Full, ""); err != nil {
		t.Fatalf("optimize %s: %v", fct.Full, err)
	}
	if d := h.runMatrix("post", battery); d != nil {
		t.Fatal(d.Format())
	}
	t.Logf("ok: %d queries x %d cells x 2 phases = %d executions, %d accepted fault errors",
		len(battery), len(Matrix()), rep.Executions, rep.FaultErrors)
}
