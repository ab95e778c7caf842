package engine

import (
	"slices"
	"sync/atomic"

	"hybridstore/internal/agg"
	"hybridstore/internal/colstore"
	"hybridstore/internal/exec"
	"hybridstore/internal/expr"
	"hybridstore/internal/schema"
	"hybridstore/internal/value"
)

// pkJoin is a side held by a vertical split — its row part, holding the
// OLTP attributes, and its column part, holding the aggregated ones — for
// the statements that need columns of both. They join the parts on the
// primary key both replicate, exactly the rewrite the paper describes for
// vertical partitioning (Figure 3).
type pkJoin struct {
	sch      *schema.Table
	row, col *part
}

// pkJoin returns the join of a side's row part and column part.
func (st *storage) pkJoin(side []part) pkJoin {
	return pkJoin{sch: st.sch, row: &side[0], col: &side[1]}
}

// projectRows returns the given columns of every row, the projections
// carved out of one backing array.
func projectRows(rows [][]value.Value, cols []int) [][]value.Value {
	flat := make([]value.Value, len(rows)*len(cols))
	out := make([][]value.Value, len(rows))
	for r, row := range rows {
		out[r] = flat[r*len(cols) : (r+1)*len(cols) : (r+1)*len(cols)]
		for i, c := range cols {
			out[r][i] = row[c]
		}
	}
	return out
}

// andOf is the conjunction of preds (nil when there are none).
func andOf(preds []expr.Predicate) expr.Predicate {
	switch len(preds) {
	case 0:
		return nil
	case 1:
		return preds[0]
	}
	return &expr.And{Preds: preds}
}

// remapCols returns the part positions of table columns cols.
func remapCols(cols []int, fwd map[int]int) []int {
	out := make([]int, len(cols))
	for i, c := range cols {
		out[i] = fwd[c]
	}
	return out
}

// scanJoined reconstructs full-width tuples via a PK join, on the calling
// goroutine: the row part's blocks drive, and the column part is
// probed per key (tuple reconstruction on the column store side).
func (v pkJoin) scanJoined(pred expr.Predicate, cols []int, ex *exec.Ctx) exec.Blocks {
	pkRow := v.row.rs.Schema().PrimaryKey
	in := v.row.rs.Blocks(nil, nil, ex.Serial())
	return joinedBlocks(in, in.Ctx, v.sch.NumColumns(), cols, func(prows [][]value.Value, jw *joinWorker) {
		key := make([]value.Value, len(pkRow))
		for k := range prows[0] {
			for i, c := range v.row.cols {
				jw.row[c] = prows[i][k]
			}
			for i, c := range pkRow {
				key[i] = prows[c][k]
			}
			crid, ok := v.col.cs.LookupPK(key)
			if !ok {
				mVerticalJoinMiss.Inc() // part inconsistency; skip defensively
				continue
			}
			crow := v.col.cs.Get(crid)
			for i, c := range v.col.cols {
				jw.row[c] = crow[i]
			}
			if pred == nil || pred.Matches(jw.row) {
				jw.put()
			}
		}
	})
}

// aggregateSpanning answers an aggregate that needs columns of both
// parts with one column-driven, batch-at-a-time PK join. The
// conjuncts the column part covers run on its bitmap and zone-map
// kernels; each surviving row's key is probed in the row part's PK
// index and the needed row-part columns are read straight from the
// arena. Block ranges accumulate into partials of their own, on whichever
// worker claims them, and the partials merge in block order, so the result
// is a function of the data alone — bit-identical on any pool size.
// Nothing links the parts but the key: the column store migrates
// updated main rows to its delta and renumbers on merge, so a rid-to-rid
// link would be a second source of truth.
//
// When the column part holds the group columns, the row part
// covers the remaining conjuncts and MIN/MAX read column-part columns
// only, the aggregation is the column part's dense kernel: groups and
// column-side keyfigures come from code vectors, row-side keyfigures are
// fed as float vectors (spanningDense). Every other shape joins full rows
// and accumulates them one by one (spanningGeneric).
func (v pkJoin) aggregateSpanning(specs []agg.Spec, groupBy []int, pred expr.Predicate, ex *exec.Ctx) *agg.Result {
	var colConj, postConj []expr.Predicate
	for _, c := range expr.Conjuncts(pred) {
		if cp, ok := expr.Remap(c, v.col.fwd); ok {
			colConj = append(colConj, cp)
		} else {
			postConj = append(postConj, c)
		}
	}
	res := agg.NewResult(specs, groupBy)
	res.SetOutputTypes(v.sch.ColTypes())
	tr := ex.Tracer()
	zoneSkipped := tr.Counter("blocks_zone_skipped")
	var join spanJoin
	kernel := "dense"
	if !v.spanningDense(res, specs, groupBy, andOf(colConj), andOf(postConj), ex, &join) {
		kernel = "generic"
		v.spanningGeneric(res, andOf(colConj), andOf(postConj), ex, &join)
	}
	mVerticalJoinMiss.Add(join.misses.Load())
	if sp := tr.Span("aggregate"); sp != nil {
		sp.Tag("kernel", kernel)
		sp.Add("probe_rows", join.probed.Load())
		sp.Add("probe_guessed", join.guessed.Load())
		sp.Add("probe_misses", join.misses.Load())
		sp.Add("blocks_zone_skipped", tr.Counter("blocks_zone_skipped")-zoneSkipped)
	}
	return res
}

// spanJoin counts a spanning aggregate's PK join: keys probed in the row
// part, those the positional guess resolved, and those it did not hold (a
// part inconsistency; such rows are skipped defensively).
type spanJoin struct{ probed, guessed, misses atomic.Int64 }

// resolve sets slots[k] to the row part's slot of a batch's key k,
// -1 when the part does not hold it (rowstore.ResolvePK).
func (v pkJoin) resolve(words []uint64, key func(i, k int) value.Value, start int, slots []int32, join *spanJoin) {
	guessed, missed := v.row.rs.ResolvePK(words, key, start, slots)
	join.probed.Add(int64(len(slots)))
	join.guessed.Add(int64(guessed))
	join.misses.Add(int64(missed))
}

// spanningDense runs the spanning aggregate on the column part's
// dense kernel; false means the shape is not one the kernel covers.
func (v pkJoin) spanningDense(res *agg.Result, specs []agg.Spec, groupBy []int, colPred, post expr.Predicate, ex *exec.Ctx, join *spanJoin) bool {
	rowPost, ok := expr.Remap(post, v.row.fwd)
	if !ok {
		return false
	}
	dense := colstore.DenseAgg{Specs: make([]agg.Spec, len(specs)), Ext: make([]int, len(specs)), Cols: v.col.cs.Schema().PrimaryKey}
	for _, g := range groupBy {
		local, ok := v.col.fwd[g]
		if !ok {
			return false
		}
		dense.GroupBy = append(dense.GroupBy, local)
	}
	var extCols []int // the row-part column behind each external vector
	for i, s := range specs {
		dense.Specs[i], dense.Ext[i] = s, -1
		if local, ok := v.col.fwd[s.Col]; ok {
			dense.Specs[i].Col = local
		} else if s.Col >= 0 {
			if s.Func == agg.Min || s.Func == agg.Max {
				return false
			}
			dense.Specs[i].Col, dense.Ext[i] = -1, len(extCols)
			extCols = append(extCols, v.row.fwd[s.Col])
		}
	}
	postCols := expr.ColumnSet(rowPost)
	// A batch's keys (one-word keys as payload words) resolve at once from
	// its first row's slot; row-side keyfigures are gathered as floats.
	type spanWorker struct {
		words []uint64
		slots []int32
		rrow  []value.Value // the conjuncts' columns of the row part's tuple
	}
	workers := make([]spanWorker, ex.Workers(v.col.cs.NumBlocks()))
	dense.Fill = func(b *colstore.DenseBatch) {
		sw, n := &workers[b.W], len(b.Rids)
		sw.words, sw.slots = slices.Grow(sw.words[:0], n)[:n], slices.Grow(sw.slots[:0], n)[:n]
		sw.rrow = slices.Grow(sw.rrow[:0], len(v.row.cols))[:len(v.row.cols)]
		words, slots := sw.words, sw.slots
		if len(dense.Cols) > 1 || !v.col.cs.CodeWords(dense.Cols[0], b.Codes[0], words) {
			words = nil
		}
		v.resolve(words, func(i, k int) value.Value { return v.col.cs.CodeValue(dense.Cols[i], b.Codes[i][k]) }, int(b.Rids[0]), slots, join)
		for k, s := range slots {
			if s >= 0 && rowPost != nil {
				if v.row.rs.Read(int(s), postCols, sw.rrow); !rowPost.Matches(sw.rrow) {
					slots[k] = -1
				}
			}
			if slots[k] < 0 {
				b.Group[k] = b.Drop
			}
		}
		for e, c := range extCols {
			v.row.rs.Floats(c, slots, b.Ext[e].Vals, b.Ext[e].Null)
		}
	}
	return v.col.cs.AggregateDense(res, &dense, colPred, ex)
}

// spanningGeneric joins full rows into the generic hash fold: the column
// part's surviving rows arrive in blocks with the key and the needed
// column-part columns decoded, the remaining conjuncts are tested on
// the joined row, and joined block i holds block i's rows that pass.
func (v pkJoin) spanningGeneric(res *agg.Result, colPred, post expr.Predicate, ex *exec.Ctx, join *spanJoin) {
	res.Fold(foldBlocks, func(cols []int) exec.Blocks {
		// The scan decodes the key first, then the column-part
		// columns the joined row needs; joinedCol maps a table column to
		// where the joined row takes it from.
		type joinedCol struct{ table, local int }
		scanCols := append([]int{}, v.col.cs.Schema().PrimaryKey...)
		var fromCol, fromRow []joinedCol // local: index into the block's columns / the row part's tuple
		seen := make(map[int]bool)
		for _, c := range append(expr.ColumnSet(post), cols...) {
			if seen[c] {
				continue
			}
			seen[c] = true
			if local, ok := v.col.fwd[c]; ok {
				fromCol = append(fromCol, joinedCol{c, len(scanCols)})
				scanCols = append(scanCols, local)
			} else {
				fromRow = append(fromRow, joinedCol{c, v.row.fwd[c]})
			}
		}
		in := v.col.cs.Blocks(colPred, scanCols, ex)
		return joinedBlocks(in, ex, v.sch.NumColumns(), cols, func(colVals [][]value.Value, jw *joinWorker) {
			jw.slots = slices.Grow(jw.slots[:0], len(colVals[0]))[:len(colVals[0])]
			v.resolve(nil, func(i, k int) value.Value { return colVals[i][k] }, 0, jw.slots, join)
			for k, s := range jw.slots {
				if s < 0 {
					continue
				}
				for _, c := range fromCol {
					jw.row[c.table] = colVals[c.local][k]
				}
				for _, c := range fromRow {
					jw.row[c.table] = v.row.rs.Value(int(s), c.local)
				}
				if post == nil || post.Matches(jw.row) {
					jw.put()
				}
			}
		})
	})
}

func allCols(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
