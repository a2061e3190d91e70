package engine

import (
	"slices"

	"biglake/internal/vector"
)

// rel is a relation between operators: its schema and its rows as
// pieces (vector.Selection) — a scan hands on each file's surviving rows
// of its resident columns, and the join, GROUP BY and top-K read them
// there. The pieces' batches hold the relation's columns in schema
// order; their own schemas are not consulted. A relation has at least
// one piece, so a kernel can name an input by its column in the first.
type rel struct {
	schema vector.Schema
	pieces []vector.Selection
}

// batchRel is b as a one-piece relation.
func batchRel(b *vector.Batch) rel {
	return rel{schema: b.Schema, pieces: []vector.Selection{vector.Whole(b)}}
}

// rows returns how many rows r holds.
func (r rel) rows() int { return vector.Count(r.pieces) }

// col returns column i of r's first piece: how r names its column i to
// a kernel.
func (r rel) col(i int) *vector.Column { return r.pieces[0].Batch.Cols[i] }

// materialize copies r's surviving rows into one contiguous batch: the
// engine's one concatenation, for the operators that need a batch — a
// residual WHERE, an expression, a TVF's input, a transaction overlay,
// governance that drops or masks rows, a join's build side and a
// general join's probe side, and the page-out. A piece holding every
// row of its batch is that batch, not a copy.
func (e *Engine) materialize(ctx *QueryContext, r rel) (*vector.Batch, error) {
	out, fanned, err := vector.FilterConcatWorkers(ctx.mem, r.pieces, e.execWorkers())
	if err != nil {
		return nil, err
	}
	if fanned {
		e.ec.mergeFanouts.Add(1)
	}
	if out == nil || out.N == 0 {
		return vector.EmptyBatch(r.schema), nil
	}
	if !slices.Equal(out.Schema.Fields, r.schema.Fields) {
		out = &vector.Batch{Schema: r.schema, Cols: out.Cols, N: out.N}
	}
	return out, nil
}

// pick returns the columns cols of b named by schema: b itself when
// they are all of its columns, in order.
func pick(b *vector.Batch, schema vector.Schema, cols []int) *vector.Batch {
	if len(cols) == len(b.Cols) && slices.Equal(schema.Fields, b.Schema.Fields) {
		identity := true
		for k, i := range cols {
			identity = identity && i == k
		}
		if identity {
			return b
		}
	}
	out := make([]*vector.Column, len(cols))
	for k, i := range cols {
		out[k] = b.Cols[i]
	}
	return &vector.Batch{Schema: schema, Cols: out, N: b.N}
}

// take returns r's columns cols at positions pos, in that order: only
// those rows are read — a top-K's winners, a grouping's first rows.
func take(ctx *QueryContext, r rel, pos []int32, cols []int) []*vector.Column {
	in := make([]*vector.Column, len(cols))
	for k, i := range cols {
		in[k] = r.col(i)
	}
	return vector.Take(ctx.mem, r.pieces, in, pos)
}
