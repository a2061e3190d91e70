//go:build oraclebug

package bigmeta

import "biglake/internal/vector"

// pruneOp under the oraclebug tag plants a classic off-by-one pruning
// bug: `col <= x` is evaluated against file statistics as `col < x`,
// so a file whose minimum equals the literal is wrongly skipped and its
// rows silently vanish from results. The differential fuzzer must
// catch this (go test -tags oraclebug ./internal/oracle -run
// TestForcedBug).
func pruneOp(op vector.CmpOp) vector.CmpOp {
	if op == vector.LE {
		return vector.LT
	}
	return op
}
