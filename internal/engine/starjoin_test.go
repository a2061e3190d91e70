package engine

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"biglake/internal/arena"
	"biglake/internal/sqlparse"
	"biglake/internal/vector"
)

// n1World is the star schema of the N:1 join: ds.sf (factRows rows in
// factFiles files) joins ds.sd on a key that is unique in ds.sd and
// never NULL, so every fact row matches exactly one dimension row; sd.grp
// has four values over sixteen rows.
func n1World(t *testing.T, ev *env, factRows, factFiles int) {
	t.Helper()
	factSchema := vector.NewSchema(
		vector.Field{Name: "k", Type: vector.Int64},
		vector.Field{Name: "amount", Type: vector.Int64},
		vector.Field{Name: "price", Type: vector.Float64},
	)
	var fact [][]vector.Value
	for i := 0; i < factRows; i++ {
		fact = append(fact, []vector.Value{
			vector.IntValue(int64(i * 7 % 16)), vector.IntValue(int64(i % 100)), vector.FloatValue(float64(i%13) / 4),
		})
	}
	ev.createCustom(t, "sf", factSchema, fact, factFiles)
	dimSchema := vector.NewSchema(
		vector.Field{Name: "k", Type: vector.Int64},
		vector.Field{Name: "grp", Type: vector.String},
	)
	var dim [][]vector.Value
	for i := 0; i < 16; i++ {
		dim = append(dim, []vector.Value{vector.IntValue(int64(i)), vector.StringValue(fmt.Sprintf("grp-%d", i%4))})
	}
	ev.createCustom(t, "sd", dimSchema, dim, 1)
}

const (
	n1JoinSQL = `SELECT f.amount, f.price, d.grp FROM ds.sf AS f JOIN ds.sd AS d ON f.k = d.k`
	n1StarSQL = `SELECT d.grp, COUNT(*) AS n, SUM(f.amount) AS amt, SUM(f.price) AS rev
		FROM ds.sf AS f JOIN ds.sd AS d ON f.k = d.k GROUP BY d.grp ORDER BY d.grp`
)

// TestArenaJoinPassThroughOutlivesRecycle is the lifetime test for the
// join's new aliasing (the dropped-Pooled-on-a-slice bug class): when
// every fact row matches, the join output's left columns ARE the scan's
// columns. Cache-resident ones reach the client uncopied; arena-backed
// ones (a multi-file merge, a selective filter) must still carry Pooled
// through the join so Execute's boundary detaches them. Either way a
// held result must read the same after later queries have recycled the
// arena and scribbled over its slabs. `make gclean` runs this under
// -race.
func TestArenaJoinPassThroughOutlivesRecycle(t *testing.T) {
	for _, tc := range []struct {
		name  string
		files int
		sql   string
	}{
		{"cache-resident", 1, n1JoinSQL},
		{"arena merge", 3, n1JoinSQL},
		{"arena filter", 1, n1JoinSQL + " WHERE f.amount >= 40"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := DefaultOptions()
			opts.EnableScanCache = true
			ev := newEnv(t, opts)
			n1World(t, ev, 3*vector.MorselRows/2, tc.files)
			ev.query(t, adminP, tc.sql) // fill the cache

			_, prof, err := ev.eng.ExplainAnalyze(NewContext(adminP, "q-pass"), tc.sql)
			if err != nil {
				t.Fatal(err)
			}
			if got := profileAttr(prof.Root, "join", "passthrough_cols"); got == "" || got == "0" {
				t.Fatalf("join passed %q columns through: the fixture no longer tests the aliasing\n%s", got, prof.Text())
			}

			held := ev.query(t, adminP, tc.sql)
			for i, c := range held.Batch.Cols {
				if c.Pooled {
					t.Fatalf("result column %d escaped with Pooled set — not detached", i)
				}
			}
			want := fingerprint(held.Batch)
			for q := 0; q < 4; q++ {
				ev.query(t, adminP, fmt.Sprintf("SELECT price, amount, k FROM ds.sf WHERE amount >= %d", 10+q))
				ev.query(t, adminP, n1StarSQL)
				ev.query(t, adminP, fmt.Sprintf("SELECT grp, k FROM ds.sd WHERE k >= %d", q))
			}
			if got := fingerprint(held.Batch); got != want {
				t.Fatalf("held join result changed after arena recycle")
			}
		})
	}
}

// TestArenaJoinPassThroughKeepsPooledFlags pins whose lifetime each output
// column of a pass-through join has: a left column is the input column
// itself, Pooled or not as it came; a gathered right column is the
// query's.
func TestArenaJoinPassThroughKeepsPooledFlags(t *testing.T) {
	ev := newEnv(t, DefaultOptions())
	heapCol := vector.NewInt64Column([]int64{2, 0, 1, 2})
	arenaCol := vector.NewInt64Column([]int64{10, 20, 30, 40})
	arenaCol.Pooled = true
	schema := func(q string) vector.Schema {
		return vector.NewSchema(vector.Field{Name: q + ".k", Type: vector.Int64}, vector.Field{Name: q + ".v", Type: vector.Int64})
	}
	left := vector.MustBatch(schema("f"), []*vector.Column{heapCol, arenaCol})
	right := vector.MustBatch(schema("d"), []*vector.Column{
		vector.NewInt64Column([]int64{0, 1, 2}), vector.NewInt64Column([]int64{7, 8, 9})})
	stmt, err := sqlparse.Parse("SELECT f.v, d.k, d.v FROM f JOIN d ON f.k = d.k")
	if err != nil {
		t.Fatal(err)
	}
	ctx := NewContext(adminP, "q-flags")
	ctx.mem = vector.Mem{Al: arena.New()}
	joined, err := ev.eng.hashJoin(ctx, stmt.(*sqlparse.SelectStmt), 0, batchRel(left), batchRel(right))
	if err != nil {
		t.Fatal(err)
	}
	out, err := ev.eng.materialize(ctx, joined)
	if err != nil {
		t.Fatal(err)
	}
	if out.Cols[0] != heapCol || out.Cols[1] != arenaCol {
		t.Fatalf("left columns were copied, not passed through")
	}
	if out.Cols[0].Pooled || !out.Cols[1].Pooled {
		t.Fatalf("pass-through changed a Pooled flag: %v %v", out.Cols[0].Pooled, out.Cols[1].Pooled)
	}
	for i, c := range out.Cols[2:] {
		if !c.Pooled {
			t.Fatalf("gathered right column %d is arena-backed but not marked Pooled", i)
		}
	}
	if got, want := fingerprint(out), fingerprint(vector.MustBatch(out.Schema, []*vector.Column{
		heapCol, arenaCol, vector.NewInt64Column([]int64{2, 0, 1, 2}), vector.NewInt64Column([]int64{9, 7, 8, 9})})); got != want {
		t.Fatalf("join output:\n%s\nwant:\n%s", got, want)
	}
}

// TestReadAfterJoin: a join gathers the build-side columns the statement
// reads after it — select list, WHERE, GROUP BY, ORDER BY and later ON
// clauses, qualified or by bare name — and every column under `*`.
func TestReadAfterJoin(t *testing.T) {
	schema := vector.NewSchema(vector.Field{Name: "d.k", Type: vector.Int64},
		vector.Field{Name: "d.grp", Type: vector.String}, vector.Field{Name: "d.x", Type: vector.Int64})
	for _, tc := range []struct {
		sql  string
		want []bool
	}{
		{"SELECT d.grp, COUNT(*) AS n FROM f JOIN d ON f.k = d.k GROUP BY d.grp", []bool{false, true, false}},
		{"SELECT grp FROM f JOIN d ON f.k = d.k WHERE x > 1", []bool{false, true, true}},
		{"SELECT f.v FROM f JOIN d ON f.k = d.k JOIN e ON d.x = e.x ORDER BY d.k", []bool{true, false, true}},
		{"SELECT f.v FROM f JOIN d ON f.k = d.k WHERE f.x > 1", []bool{false, false, false}},
		{"SELECT * FROM f JOIN d ON f.k = d.k", nil},
	} {
		stmt, err := sqlparse.Parse(tc.sql)
		if err != nil {
			t.Fatal(err)
		}
		if got := readAfterJoin(stmt.(*sqlparse.SelectStmt), 0, schema); !slices.Equal(got, tc.want) {
			t.Errorf("%s: read %v, want %v", tc.sql, got, tc.want)
		}
	}
}

// TestStarJoinOrderByBuildDictOnDirtyArena: ORDER BY a Dict column of
// the build side of a pass-through join whose fact side a WHERE thinned
// reads the column's gathered codes at the rows each fact piece holds,
// and no other. The engine's pooled arena is scribbled before every
// statement (each uint32 slot of its slabs far past any dictionary), so
// a code read at a row a piece does not hold would index past the
// dictionary or read a stale value. amount >= 90 keeps a tenth of each
// file, so its pieces are gathered before the join extends them.
func TestStarJoinOrderByBuildDictOnDirtyArena(t *testing.T) {
	const factRows = 3*vector.MorselRows + 500
	// want is the (grp, amount) of the first limit surviving fact rows
	// in the statement's order: the n1World fixture, computed directly.
	want := func(th int, desc bool, limit int) string {
		var rows [][2]string
		for i := 0; i < factRows; i++ {
			if amount := i % 100; amount >= th {
				rows = append(rows, [2]string{fmt.Sprintf("grp-%d", i*7%16%4), fmt.Sprintf("%03d", amount)})
			}
		}
		slices.SortFunc(rows, func(a, b [2]string) int {
			c := strings.Compare(a[0]+a[1], b[0]+b[1])
			if desc {
				return -c
			}
			return c
		})
		var sb strings.Builder
		for _, r := range rows[:limit] {
			fmt.Fprintf(&sb, "%s %s\n", r[0], strings.TrimLeft(r[1], "0"))
		}
		return sb.String()
	}
	scribble := func(pool *arena.Pool) {
		ar := pool.Get()
		for range 64 {
			for i, us := 0, ar.Uint32s(1<<14); i < len(us); i++ {
				us[i] = 1<<30 + uint32(i)
			}
		}
		ar.Release()
	}
	for _, w := range []int{1, 2, 3, 8} {
		opts := DefaultOptions()
		opts.EnableScanCache = true
		opts.MorselWorkers = w
		ev := newEnv(t, opts)
		n1World(t, ev, factRows, 3)
		for _, tc := range []struct {
			th    int
			desc  bool
			limit int
		}{{40, true, 5}, {40, false, 7}, {90, true, 5}, {90, false, 300}} {
			dir := ""
			if tc.desc {
				dir = " DESC"
			}
			sql := fmt.Sprintf(`SELECT d.grp, f.amount FROM ds.sf AS f JOIN ds.sd AS d ON f.k = d.k
				WHERE f.amount >= %d ORDER BY d.grp%s, f.amount%s LIMIT %d`, tc.th, dir, dir, tc.limit)
			ev.query(t, adminP, sql) // fill the cache
			_, prof, err := ev.eng.ExplainAnalyze(NewContext(adminP, "q-pass"), sql)
			if err != nil {
				t.Fatal(err)
			}
			if got := profileAttr(prof.Root, "join", "passthrough_cols"); got == "" || got == "0" {
				t.Fatalf("join passed %q columns through: the fixture no longer reads gathered codes\n%s", got, prof.Text())
			}
			scribble(ev.eng.arenas)
			res := ev.query(t, adminP, sql)
			var got strings.Builder
			for r := 0; r < res.Batch.N; r++ {
				fmt.Fprintf(&got, "%s %s\n", res.Batch.Cols[0].Value(r), res.Batch.Cols[1].Value(r))
			}
			if exp := want(tc.th, tc.desc, tc.limit); got.String() != exp {
				t.Errorf("workers=%d %q:\n%s\nwant\n%s", w, sql, got.String(), exp)
			}
		}
	}
}
