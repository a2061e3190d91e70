package bigmeta

import (
	"fmt"
	"math/rand"
	"testing"

	"biglake/internal/colfmt"
	"biglake/internal/vector"
)

// benchFiles builds n files the way a clustered fact table lays them
// out: 100 ascending ids per file, an unsorted amount range, a price
// range, and a hive date key shared by runs of consecutive files.
func benchFiles(n int) []FileEntry {
	r := rand.New(rand.NewSource(1))
	files := make([]FileEntry, n)
	for i := range files {
		lo := r.Int63n(1000)
		files[i] = FileEntry{
			Key:       fmt.Sprintf("t/date=d%02d/f%07d.blk", i*30/n, i),
			Partition: map[string]string{"date": fmt.Sprintf("d%02d", i*30/n)},
			ColumnStats: map[string]colfmt.ColumnStats{
				"id":     {Min: colfmt.FromValue(vector.IntValue(int64(i) * 100)), Max: colfmt.FromValue(vector.IntValue(int64(i)*100 + 99))},
				"amount": {Min: colfmt.FromValue(vector.IntValue(lo)), Max: colfmt.FromValue(vector.IntValue(lo + r.Int63n(200)))},
				"price":  {Min: colfmt.FromValue(vector.FloatValue(float64(lo) / 10)), Max: colfmt.FromValue(vector.FloatValue(float64(lo)/10 + 20))},
			},
		}
	}
	return files
}

// benchShapes are the prune shapes BenchmarkPrune measures: two stats
// predicates and a partition predicate, and a clustered-key point
// lookup.
func benchShapes(n int) []struct {
	name  string
	preds []colfmt.Predicate
} {
	return []struct {
		name  string
		preds []colfmt.Predicate
	}{
		{"stats2+partition", []colfmt.Predicate{
			{Column: "amount", Op: vector.GE, Value: vector.IntValue(900)},
			{Column: "price", Op: vector.LT, Value: vector.FloatValue(95)},
			{Column: "date", Op: vector.EQ, Value: vector.StringValue("d07")},
		}},
		{"point", []colfmt.Predicate{{Column: "id", Op: vector.EQ, Value: vector.IntValue(int64(n) * 37)}}},
	}
}

var pruneSink []FileEntry

// BenchmarkPrune: a cached table's prune (Index.Prune, heap scratch) at
// 10^3, 10^4 and 10^5 files, reported per file.
//
//	go test -run '^$' -bench BenchmarkPrune ./internal/bigmeta
func BenchmarkPrune(b *testing.B) {
	for _, n := range []int{1_000, 10_000, 100_000} {
		x := NewIndex(benchFiles(n))
		for _, s := range benchShapes(n) {
			b.Run(fmt.Sprintf("%s/files=%d", s.name, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					pruneSink = x.Prune(nil, s.preds, PruneFiles)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/file")
			})
		}
	}
}
