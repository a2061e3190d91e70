//go:build !race

package engine

import "testing"

// budgetSmallJoin bounds the heap allocations of a ten-row join through
// Engine.Query on a warm scan cache: measured 193 (191 before the LIST
// path's survivors carried their listing positions), where the commit
// before the bounded column fan-out (a goroutine, a closure and a
// semaphore slot per output column, and two index copies) measured 213.
const budgetSmallJoin = 195

// TestGCLeanSmallJoinAllocs: a join whose output is under one morsel
// gathers its columns on the calling goroutine and spawns nothing.
func TestGCLeanSmallJoinAllocs(t *testing.T) {
	opts := DefaultOptions()
	opts.EnableScanCache = true
	ev := newEnv(t, opts)
	n1World(t, ev, 10, 1)
	got := testing.AllocsPerRun(20, func() { ev.query(t, adminP, n1JoinSQL) })
	t.Logf("ten-row join: %v allocs/op (budget %d)", got, budgetSmallJoin)
	if got > budgetSmallJoin {
		t.Errorf("ten-row join: %v allocs/op, budget %d", got, budgetSmallJoin)
	}
}
