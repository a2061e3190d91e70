//go:build oraclebug_dense

package vector

// denseSlot under the oraclebug_dense tag plants an off-by-one in the
// direct-address grouping: every slot is one too high, the last one
// clamped back into the table, so the two largest slots share a group
// (and a dictionary's NULL takes its first entry's slot). The
// differential fuzzer must catch it (go test -tags oraclebug_dense
// ./internal/oracle -run TestForcedDenseBugCaught).
func denseSlot[T denseKey](v, base T, span int) int { return min(int(v-base)+1, span-1) }
