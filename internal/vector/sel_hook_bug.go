//go:build oraclebug_sel

package vector

// pieceStart under the oraclebug_sel tag plants an off-by-one in a
// piece's global offset: every piece after the first starts one
// position early, so each of its rows takes the build row the position
// before it matched. The differential fuzzer must catch it (go test
// -tags oraclebug_sel ./internal/oracle -run TestForcedSelBugCaught).
func pieceStart(before, p int) int { return before - min(p, 1) }
