//go:build !oraclebug_dense

package vector

// denseSlot is v's slot in a direct-address table of span slots above
// base: v − base, wrapping — in uint32 a dictionary code c above base
// NullIdx is c + 1 and NULL is 0. The oraclebug_dense build tag
// (dense_hook_bug.go) replaces it with a deliberately broken one, which
// the differential oracle must catch.
func denseSlot[T denseKey](v, base T, _ int) int { return int(v - base) }
