package bigmeta

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"biglake/internal/colfmt"
	"biglake/internal/vector"
)

// refCompare is Value.Compare with integers compared exactly: the one
// order the prune keeps besides Value.Compare's.
func refCompare(a, b vector.Value) int {
	isInt := func(t vector.Type) bool { return t == vector.Int64 || t == vector.Timestamp }
	if isInt(a.Type) && isInt(b.Type) {
		switch {
		case a.I < b.I:
			return -1
		case a.I > b.I:
			return 1
		}
		return 0
	}
	return a.Compare(b)
}

// refStats is the per-file statistics rule, written out independently
// of colfmt: unknown statistics keep the file, all-null ones prune it,
// NE prunes only a constant null-free file equal to the literal.
func refStats(op vector.CmpOp, lit vector.Value, st colfmt.ColumnStats) bool {
	min, max := st.Min.ToValue(), st.Max.ToValue()
	if min.IsNull() || max.IsNull() {
		return !(min.IsNull() && max.IsNull() && st.Nulls > 0)
	}
	switch op {
	case vector.EQ:
		return refCompare(lit, min) >= 0 && refCompare(lit, max) <= 0
	case vector.NE:
		return !(refCompare(min, max) == 0 && refCompare(min, lit) == 0 && st.Nulls == 0)
	case vector.LT:
		return refCompare(min, lit) < 0
	case vector.LE:
		return refCompare(min, lit) <= 0
	case vector.GT:
		return refCompare(max, lit) > 0
	case vector.GE:
		return refCompare(max, lit) >= 0
	}
	return true
}

// refCanMatch is the per-file reference the kernel must equal: a
// partition value decides a predicate on its key, statistics (at
// PruneFiles) any other.
func refCanMatch(e FileEntry, preds []colfmt.Predicate, g PruneGranularity) bool {
	for _, p := range preds {
		if pv, ok := e.Partition[p.Column]; ok {
			v := ParsePartitionValue(pv, p.Value.Type)
			if !v.IsNull() && !p.Op.Eval(refCompare(v, p.Value)) {
				return false
			}
			continue
		}
		if g == PruneFiles && e.ColumnStats != nil {
			if st, ok := e.ColumnStats[p.Column]; ok && !refStats(pruneOp(p.Op), p.Value, st) {
				return false
			}
		}
	}
	return true
}

// pruneWorld draws a file set and predicates over it.
type pruneWorld struct {
	r    *rand.Rand
	base int64 // integer statistics and literals sit near base
}

// statTypes are the typed statistics columns, in drawing order.
var statTypes = []struct {
	name string
	t    vector.Type
}{{"i", vector.Int64}, {"t", vector.Timestamp}, {"f", vector.Float64}, {"s", vector.String}, {"b", vector.Bool}}

func (w *pruneWorld) intValue(t vector.Type) colfmt.StatValue {
	return colfmt.StatValue{Type: t, I: w.base + int64(w.r.Intn(40)) - 20}
}

func (w *pruneWorld) value(t vector.Type) colfmt.StatValue {
	switch t {
	case vector.Int64, vector.Timestamp:
		return w.intValue(t)
	case vector.Float64:
		return colfmt.StatValue{Type: t, F: float64(w.base) + float64(w.r.Intn(80))/2 - 20}
	case vector.String:
		return colfmt.StatValue{Type: t, S: string(rune('a' + w.r.Intn(8)))}
	default:
		return colfmt.StatValue{Type: t, B: w.r.Intn(2) == 0}
	}
}

func (w *pruneWorld) ordered(t vector.Type) (colfmt.StatValue, colfmt.StatValue) {
	a, b := w.value(t), w.value(t)
	if a.ToValue().Compare(b.ToValue()) > 0 || (a.Type != vector.Float64 && refCompare(a.ToValue(), b.ToValue()) > 0) {
		a, b = b, a
	}
	return a, b
}

// files draws n files. A clustered column has known, ascending ranges
// in every file (the window path); the others mix known, one-sided,
// all-null and missing statistics. Column "m" has Int64 statistics in
// some files and Float64 in others; hive key "p" is in most files and
// "i" is a hive key in a few when it is not clustered.
func (w *pruneWorld) files(n int) []FileEntry {
	clustered := map[string]bool{"i": w.r.Intn(2) == 0, "t": w.r.Intn(2) == 0}
	next := map[string]int64{"i": w.base - 25, "t": w.base - 25}
	files := make([]FileEntry, n)
	for k := range files {
		e := FileEntry{Key: fmt.Sprintf("f%03d", k)}
		if w.r.Intn(12) != 0 {
			e.ColumnStats = map[string]colfmt.ColumnStats{}
		}
		for _, c := range statTypes {
			name, t := c.name, c.t
			if clustered[name] {
				lo := next[name] + int64(w.r.Intn(3))
				hi := lo + int64(w.r.Intn(3))
				next[name] = hi
				if e.ColumnStats == nil {
					e.ColumnStats = map[string]colfmt.ColumnStats{}
				}
				e.ColumnStats[name] = colfmt.ColumnStats{Min: colfmt.StatValue{Type: t, I: lo}, Max: colfmt.StatValue{Type: t, I: hi}, Nulls: int64(w.r.Intn(2))}
				continue
			}
			if e.ColumnStats == nil {
				continue
			}
			var st colfmt.ColumnStats
			switch w.r.Intn(8) {
			case 0: // no statistics for the column
				continue
			case 1: // all NULL
				st.Nulls = 1 + int64(w.r.Intn(3))
			case 2: // NULL and no rows known: unknown
			case 3: // one bound unknown
				st.Max = w.value(t)
			default:
				st.Min, st.Max = w.ordered(t)
				st.Nulls = int64(w.r.Intn(2))
			}
			e.ColumnStats[name] = st
		}
		if e.ColumnStats != nil && w.r.Intn(3) != 0 {
			t := []vector.Type{vector.Int64, vector.Float64}[w.r.Intn(2)]
			min, max := w.ordered(t)
			e.ColumnStats["m"] = colfmt.ColumnStats{Min: min, Max: max}
		}
		if w.r.Intn(5) != 0 {
			e.Partition = map[string]string{"p": w.partValue()}
		}
		if !clustered["i"] && w.r.Intn(6) == 0 {
			if e.Partition == nil {
				e.Partition = map[string]string{}
			}
			e.Partition["i"] = w.partValue()
		}
		files[k] = e
	}
	if w.r.Intn(2) == 0 {
		w.r.Shuffle(len(files), func(i, j int) { files[i], files[j] = files[j], files[i] })
	}
	return files
}

// partValue is a hive value: an integer, a float, a boolean, a word,
// or text no number parses from.
func (w *pruneWorld) partValue() string {
	switch w.r.Intn(5) {
	case 0:
		return fmt.Sprintf("%g", float64(w.r.Intn(20))/2)
	case 1:
		return []string{"true", "false"}[w.r.Intn(2)]
	case 2:
		return []string{"a", "c", "x7", ""}[w.r.Intn(4)]
	}
	return fmt.Sprint(w.base + int64(w.r.Intn(40)) - 20)
}

func (w *pruneWorld) literal() vector.Value {
	switch w.r.Intn(9) {
	case 0, 1, 2:
		return vector.IntValue(w.intValue(vector.Int64).I)
	case 3:
		return vector.TimestampValue(w.intValue(vector.Timestamp).I)
	case 4, 5:
		return w.value(vector.Float64).ToValue()
	case 6:
		return w.value(vector.String).ToValue()
	case 7:
		return vector.BoolValue(w.r.Intn(2) == 0)
	}
	return vector.NullValue
}

func (w *pruneWorld) preds() []colfmt.Predicate {
	cols := []string{"i", "i", "t", "f", "s", "b", "m", "p", "p", "none"}
	preds := make([]colfmt.Predicate, 1+w.r.Intn(3))
	for k := range preds {
		preds[k] = colfmt.Predicate{Column: cols[w.r.Intn(len(cols))], Op: vector.CmpOp(w.r.Intn(6)), Value: w.literal()}
	}
	return preds
}

func keys(files []FileEntry) []string {
	out := make([]string, len(files))
	for i, f := range files {
		out[i] = f.Key
	}
	return out
}

// TestPruneKernelMatchesReference: over random file sets — typed,
// missing, one-sided and all-null statistics, a column whose statistics
// change type, hive keys with values that do not parse, clustered and
// shuffled files, integers near 2^53 — and random conjunctions of all
// six operators with integer, timestamp, float, string, boolean and
// NULL literals, the kernel keeps exactly the files the per-file
// reference keeps, in snapshot order, at both granularities, whether
// it prunes a cached index, a list, or one file.
func TestPruneKernelMatchesReference(t *testing.T) {
	windowed := 0
	for seed := int64(1); seed <= 200; seed++ {
		w := &pruneWorld{r: rand.New(rand.NewSource(seed))}
		if seed%3 == 0 {
			w.base = 1 << 53
		}
		files := w.files(w.r.Intn(40))
		x := NewIndex(files)
		for q := 0; q < 30; q++ {
			preds := w.preds()
			for _, g := range []PruneGranularity{PrunePartitionsOnly, PruneFiles} {
				var want []string
				for _, f := range files {
					if refCanMatch(f, preds, g) {
						want = append(want, f.Key)
					}
					if got, ref := FileCanMatch(f, preds, g), refCanMatch(f, preds, g); got != ref {
						t.Fatalf("seed %d: FileCanMatch(%s, %v, %d) = %v, reference %v (stats %v, partition %v)",
							seed, f.Key, preds, g, got, ref, f.ColumnStats, f.Partition)
					}
				}
				if got := keys(x.Prune(nil, preds, g)); !slices.Equal(got, want) {
					t.Fatalf("seed %d: Index.Prune(%v, %d) = %v, reference %v", seed, preds, g, got, want)
				}
				list := append([]FileEntry(nil), files...)
				if got := keys(PruneList(nil, list, preds, g)); !slices.Equal(got, want) {
					t.Fatalf("seed %d: PruneList(%v, %d) = %v, reference %v", seed, preds, g, got, want)
				}
				for _, p := range preds {
					if x.sorted(p, g) != nil {
						windowed++
					}
					// Row-group skipping (colfmt) decides as the kernel does.
					for _, f := range files {
						st, ok := f.ColumnStats[p.Column]
						if got, ref := p.StatsCanSatisfy(st), refStats(p.Op, p.Value, st); ok && got != ref {
							t.Fatalf("seed %d: %v StatsCanSatisfy(%+v) = %v, reference %v", seed, p, st, got, ref)
						}
					}
				}
			}
		}
	}
	if windowed == 0 {
		t.Fatal("no predicate took the window path")
	}
}

// TestIndexConcurrentPrunes: one cached index serves concurrent prunes,
// including the first ones to parse its partition values as a literal
// type, and each keeps what the reference keeps.
func TestIndexConcurrentPrunes(t *testing.T) {
	w := &pruneWorld{r: rand.New(rand.NewSource(7))}
	files := w.files(64)
	x := NewIndex(files)
	lits := []vector.Value{vector.IntValue(3), vector.FloatValue(2.5), vector.StringValue("c"), vector.BoolValue(true), vector.TimestampValue(4), vector.NullValue}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				preds := []colfmt.Predicate{
					{Column: "p", Op: vector.CmpOp((g + k) % 6), Value: lits[(g+k)%len(lits)]},
					{Column: "i", Op: vector.CmpOp(k % 6), Value: vector.IntValue(int64(k%40) - 20)},
				}
				var want []string
				for _, f := range files {
					if refCanMatch(f, preds, PruneFiles) {
						want = append(want, f.Key)
					}
				}
				if got := keys(x.Prune(nil, preds, PruneFiles)); !slices.Equal(got, want) {
					t.Errorf("goroutine %d: Prune(%v) = %v, reference %v", g, preds, got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
