//go:build !oraclebug_sel

package vector

// pieceStart is the first position of piece p of a relation whose
// earlier pieces hold before rows: where the piece's rows start among
// the relation's, and so among a join's match slots. The oraclebug_sel
// build tag (sel_hook_bug.go) replaces it with a deliberately broken
// one, which the differential oracle must catch.
func pieceStart(before, _ int) int { return before }
