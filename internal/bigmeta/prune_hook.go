//go:build !oraclebug

package bigmeta

import "biglake/internal/vector"

// pruneOp is the operator the prune kernel puts to file statistics for
// a predicate's op: the production decision. The oraclebug build tag
// (see prune_hook_bug.go) replaces it with a deliberately broken one
// used to validate that the differential oracle in internal/oracle
// detects pruning bugs with a minimized report.
func pruneOp(op vector.CmpOp) vector.CmpOp { return op }
