package oracle

import (
	"fmt"
	"reflect"
	"testing"

	"biglake/internal/colfmt"
	"biglake/internal/vector"
)

// TestWriterFooterIsReadFooter: over the differential harness's
// generated tables, the footer colfmt.Writer.Finish hands over — what
// bigmeta describes a committed file from — is the one ReadFooter
// parses from the file's bytes, at the default row-group size and at
// small ones that cut each table into several groups.
func TestWriterFooterIsReadFooter(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		for _, gt := range NewGen(seed).Tables() {
			bl := vector.NewBuilder(gt.Schema)
			for _, row := range gt.Rows {
				bl.Append(row...)
			}
			b := bl.Build()
			for _, rows := range []int{0, 7, 16} {
				name := fmt.Sprintf("seed %d %s RowGroupRows %d", seed, gt.Full, rows)
				w := colfmt.NewWriter(gt.Schema, colfmt.WriterOptions{RowGroupRows: rows})
				if err := w.WriteBatch(b); err != nil {
					t.Fatal(err)
				}
				file, footer, err := w.Finish()
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				read, err := colfmt.ReadFooter(file)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(footer, read) {
					t.Fatalf("%s: handed-over footer differs from ReadFooter", name)
				}
			}
		}
	}
}
