//go:build !race

package bigmeta

import (
	"testing"

	"biglake/internal/arena"
)

// TestGCLeanPruneAllocs: a prune allocates the same number of times at
// 10^2 and 10^4 files — its masks and the survivor slice, no per-file
// allocation — and a clustered point lookup allocates only the survivor
// slice, from the cached index and from a list alike: a list's index
// lives on the stack and its masks in the caller's arena. (Not under
// the race detector, whose instrumentation moves allocation counts.)
func TestGCLeanPruneAllocs(t *testing.T) {
	allocs := func(n int) (cached, list map[string]float64) {
		files := benchFiles(n)
		x := NewIndex(files)
		cached, list = map[string]float64{}, map[string]float64{}
		scratch := make([]FileEntry, n)
		pool := arena.NewPool()
		for _, s := range benchShapes(n) {
			cached[s.name] = testing.AllocsPerRun(20, func() { pruneSink = x.Prune(nil, s.preds, PruneFiles) })
			list[s.name] = testing.AllocsPerRun(20, func() {
				a := pool.Get()
				copy(scratch, files)
				pruneSink = PruneList(a, scratch, s.preds, PruneFiles)
				pool.Put(a)
			})
		}
		return cached, list
	}
	smallC, smallL := allocs(100)
	bigC, bigL := allocs(10_000)
	for name := range smallC {
		if smallC[name] != bigC[name] || smallL[name] != bigL[name] {
			t.Errorf("%s: allocs grow with files: cached %v -> %v, list %v -> %v", name, smallC[name], bigC[name], smallL[name], bigL[name])
		}
	}
	if got := bigC["point"]; got != 1 {
		t.Errorf("cached point lookup: %v allocs, want 1 (the survivor slice)", got)
	}
	if got := bigL["point"]; got != 0 {
		t.Errorf("list point lookup: %v allocs, want 0 (in place, the index on the stack, its masks from a recycled arena)", got)
	}
}
