//go:build !race

package colfmt

import "testing"

// budgetWriteChunk is the heap allocations one more column chunk costs
// a file write, measured at steady state (a writer's scratch and body
// already grown) plus headroom: the chunk's bytes, its encoded column
// header, an RLE chunk's run values, its share of the row group's chunk
// list and of the footer JSON (3.5 measured). A boxed value, a
// per-chunk map or a per-row buffer put back on the write path fails
// it.
const budgetWriteChunk = 5

// TestGCLeanWriteFile: the write path's allocations grow with the
// number of chunks a file holds, not with its rows: the bench.orders
// shape (8,192 rows, 4 columns) written as 64 and as 4 chunks differs
// by at most budgetWriteChunk allocations per extra chunk.
func TestGCLeanWriteFile(t *testing.T) {
	b := benchShapes()[1].b
	allocs := func(rows int) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := WriteFile(b, WriterOptions{RowGroupRows: rows}); err != nil {
				t.Fatal(err)
			}
		})
	}
	few, many := allocs(b.N), allocs(b.N/16)
	extra := float64(15 * len(b.Cols))
	t.Logf("4 chunks: %.0f allocs; 64 chunks: %.0f allocs (%.2f per extra chunk)", few, many, (many-few)/extra)
	if per := (many - few) / extra; per > budgetWriteChunk {
		t.Fatalf("%.2f allocations per extra chunk, budget %d", per, budgetWriteChunk)
	}
}
