package engine

import (
	"sync/atomic"

	"hybridstore/internal/agg"
	"hybridstore/internal/catalog"
	"hybridstore/internal/colstore"
	"hybridstore/internal/exec"
	"hybridstore/internal/expr"
	"hybridstore/internal/rowstore"
	"hybridstore/internal/schema"
	"hybridstore/internal/value"
	"hybridstore/internal/wal"
)

// verticalStorage splits a table's attributes into a row-store partition
// (OLTP attributes) and a column-store partition (aggregated attributes).
// Both partitions replicate the primary key; queries spanning both
// partitions are answered by a primary-key join, exactly the rewrite the
// paper describes for vertical partitioning (Figure 3).
type verticalStorage struct {
	sch  *schema.Table
	spec *catalog.VerticalSpec

	rowPart *rowstore.Table // projection of spec.RowCols
	colPart *colstore.Table // projection of spec.ColCols

	rowFwd map[int]int // table column -> rowPart column
	colFwd map[int]int // table column -> colPart column
}

// newVerticalStorage builds the two projected partitions.
func newVerticalStorage(sch *schema.Table, spec *catalog.VerticalSpec) (*verticalStorage, error) {
	if err := (&catalog.PartitionSpec{Vertical: spec}).Validate(sch); err != nil {
		return nil, err
	}
	rsSchema, err := sch.Project(sch.Name+"$rs", spec.RowCols)
	if err != nil {
		return nil, err
	}
	csSchema, err := sch.Project(sch.Name+"$cs", spec.ColCols)
	if err != nil {
		return nil, err
	}
	v := &verticalStorage{
		sch:     sch,
		spec:    spec,
		rowPart: rowstore.New(rsSchema),
		colPart: colstore.New(csSchema),
		rowFwd:  make(map[int]int, len(spec.RowCols)),
		colFwd:  make(map[int]int, len(spec.ColCols)),
	}
	for i, c := range spec.RowCols {
		v.rowFwd[c] = i
	}
	for i, c := range spec.ColCols {
		v.colFwd[c] = i
	}
	return v, nil
}

func (v *verticalStorage) Rows() int { return v.rowPart.Rows() }

func (v *verticalStorage) Insert(rows [][]value.Value) error {
	// Validate the whole batch — schema, existing-key collisions (the
	// row partition is authoritative for the PK) and duplicates within
	// the batch — before touching either partition, so a failing INSERT
	// is atomic.
	if err := v.sch.ValidateInsert(rows, v.HasPK); err != nil {
		return err
	}
	// Project the batch once per partition and insert each projection
	// as one batch.
	rrows := projectRows(rows, v.spec.RowCols)
	if err := v.rowPart.Insert(rrows); err != nil {
		return err
	}
	if err := v.colPart.Insert(projectRows(rows, v.spec.ColCols)); err != nil {
		// Keep partitions consistent: roll the row partition back by key.
		for _, row := range rows {
			v.rowPart.DeletePK(v.sch.PKValues(row))
		}
		return err
	}
	return nil
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

// coverage reports which partition, if any, holds all the given table
// columns and the columns of pred.
const (
	partRow  = 0
	partCol  = 1
	partNone = -1
)

func (v *verticalStorage) coverage(cols []int, pred expr.Predicate) int {
	inRow, inCol := true, true
	for _, c := range append(expr.ColumnSet(pred), cols...) {
		_, row := v.rowFwd[c]
		_, col := v.colFwd[c]
		inRow, inCol = inRow && row, inCol && col
	}
	switch {
	case inRow:
		return partRow
	case inCol:
		return partCol
	default:
		return partNone
	}
}

// Scan streams matching rows. When the referenced columns fit a single
// partition it scans that partition alone; otherwise it reconstructs full
// tuples by joining the partitions on the primary key (the cost the paper
// charges queries that span a vertical split).
func (v *verticalStorage) Scan(pred expr.Predicate, cols []int, ex *exec.Ctx, fn func(w, seq int, colVals [][]value.Value) bool) {
	cols = orAll(cols, v.sch.NumColumns())
	switch v.coverage(cols, pred) {
	case partRow:
		rpred, _ := expr.Remap(pred, v.rowFwd)
		scanRowTable(v.rowPart, rpred, remapCols(cols, v.rowFwd), ex, fn)
	case partCol:
		cpred, _ := expr.Remap(pred, v.colFwd)
		v.colPart.ScanBatchesExec(cpred, remapCols(cols, v.colFwd), ex, func(w, block int, _ []int32, colVals [][]value.Value) bool { return fn(w, block, colVals) })
	default:
		v.scanJoined(pred, cols, ex, fn)
	}
}

// remapCols returns the partition positions of table columns cols.
func remapCols(cols []int, fwd map[int]int) []int {
	out := make([]int, len(cols))
	for i, c := range cols {
		out[i] = fwd[c]
	}
	return out
}

// scanJoined reconstructs full-width tuples via a PK join: the row
// partition drives, the column partition is probed per key (tuple
// reconstruction on the column store side).
func (v *verticalStorage) scanJoined(pred expr.Predicate, cols []int, ex *exec.Ctx, fn func(w, seq int, colVals [][]value.Value) bool) {
	pkRow := v.rowPart.Schema().PrimaryKey
	key := make([]value.Value, len(pkRow))
	row := make([]value.Value, v.sch.NumColumns())
	var matched [][]value.Value // the current block's rows, by position
	b := &rowBlocks{cols: cols, ex: ex, fn: fn, get: func(k int32, col int) value.Value { return matched[k][col] }}
	v.rowPart.Scan(nil, func(rid int, prow []value.Value) bool {
		for i, c := range v.spec.RowCols {
			row[c] = prow[i]
		}
		for i, k := range pkRow {
			key[i] = prow[k]
		}
		crid, ok := v.colPart.LookupPK(key)
		if !ok {
			mVerticalJoinMiss.Inc() // partition inconsistency; skip defensively
			return true
		}
		crow := v.colPart.Get(crid)
		for i, c := range v.spec.ColCols {
			row[c] = crow[i]
		}
		if pred != nil && !pred.Matches(row) {
			return true
		}
		if len(b.ids) == len(matched) { // the buffers of a block's rows are reused
			matched = append(matched, make([]value.Value, len(row)))
		}
		copy(matched[len(b.ids)], row)
		return b.add(len(b.ids))
	})
	b.flush()
}

// Aggregate pushes the aggregation into a single partition when all
// referenced columns live there (the common case after the advisor's
// vertical split: keyfigures and group-bys in the column partition);
// otherwise it joins the partitions on the primary key, column partition
// driving (aggregateSpanning).
func (v *verticalStorage) Aggregate(specs []agg.Spec, groupBy []int, pred expr.Predicate, ex *exec.Ctx) *agg.Result {
	remapInto := func(fwd map[int]int) ([]agg.Spec, []int, expr.Predicate, bool) {
		rs := make([]agg.Spec, len(specs))
		for i, s := range specs {
			if s.Col < 0 {
				rs[i] = s
				continue
			}
			n, ok := fwd[s.Col]
			if !ok {
				return nil, nil, nil, false
			}
			rs[i] = agg.Spec{Func: s.Func, Col: n}
		}
		gb := make([]int, len(groupBy))
		for i, c := range groupBy {
			n, ok := fwd[c]
			if !ok {
				return nil, nil, nil, false
			}
			gb[i] = n
		}
		p, ok := expr.Remap(pred, fwd)
		if !ok {
			return nil, nil, nil, false
		}
		return rs, gb, p, true
	}
	if rs, gb, p, ok := remapInto(v.rowFwd); ok {
		return v.rowPart.AggregateExec(rs, gb, p, ex)
	}
	if rs, gb, p, ok := remapInto(v.colFwd); ok {
		return v.colPart.AggregateExec(rs, gb, p, ex)
	}
	return v.aggregateSpanning(specs, groupBy, pred, ex)
}

// aggregateSpanning answers an aggregate that needs columns of both
// partitions with one column-driven, batch-at-a-time PK join. The
// conjuncts the column partition covers run on its bitmap and zone-map
// kernels; each surviving row's key is probed in the row partition's PK
// index and the needed row-partition columns are read straight from the
// arena. Block ranges accumulate into partials of their own, on whichever
// worker claims them, and the partials merge in block order, so the result
// is a function of the data alone — bit-identical on any pool size.
// Nothing links the partitions but the key: the column store migrates
// updated main rows to its delta and renumbers on merge, so a rid-to-rid
// link would be a second source of truth.
//
// When the column partition holds the group columns, the row partition
// covers the remaining conjuncts and MIN/MAX read column-partition columns
// only, the aggregation is the column partition's dense kernel: groups and
// column-side keyfigures come from code vectors, row-side keyfigures are
// fed as float vectors (spanningDense). Every other shape joins full rows
// and accumulates them one by one (spanningGeneric).
func (v *verticalStorage) aggregateSpanning(specs []agg.Spec, groupBy []int, pred expr.Predicate, ex *exec.Ctx) *agg.Result {
	var colConj, postConj []expr.Predicate
	for _, c := range expr.Conjuncts(pred) {
		if cp, ok := expr.Remap(c, v.colFwd); ok {
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
		sp.Add("probe_misses", join.misses.Load())
		sp.Add("blocks_zone_skipped", tr.Counter("blocks_zone_skipped")-zoneSkipped)
	}
	return res
}

// spanJoin counts a spanning aggregate's PK join: keys probed in the row
// partition, and those it did not hold (a partition inconsistency; such
// rows are skipped defensively).
type spanJoin struct{ probed, misses atomic.Int64 }

// rowOf returns the row partition's slot for key. next guesses it: both
// partitions take rows in the same order, so within a batch the tuple
// usually sits right after the last one found.
func (v *verticalStorage) rowOf(key []value.Value, next *int, misses *int64) (int, bool) {
	rrid, ok := v.rowPart.LookupPKNear(key, *next)
	if !ok {
		*misses++
		return 0, false
	}
	*next = rrid + 1
	return rrid, true
}

// spanningDense runs the spanning aggregate on the column partition's
// dense kernel; false means the shape is not one the kernel covers.
func (v *verticalStorage) spanningDense(res *agg.Result, specs []agg.Spec, groupBy []int, colPred, post expr.Predicate, ex *exec.Ctx, join *spanJoin) bool {
	rowPost, ok := expr.Remap(post, v.rowFwd)
	if !ok {
		return false
	}
	dense := colstore.DenseAgg{Specs: make([]agg.Spec, len(specs)), Ext: make([]int, len(specs)), Cols: v.colPart.Schema().PrimaryKey}
	for _, g := range groupBy {
		local, ok := v.colFwd[g]
		if !ok {
			return false
		}
		dense.GroupBy = append(dense.GroupBy, local)
	}
	var extCols []int // the row-partition column behind each external vector
	for i, s := range specs {
		dense.Specs[i], dense.Ext[i] = s, -1
		if local, ok := v.colFwd[s.Col]; ok {
			dense.Specs[i].Col = local
		} else if s.Col >= 0 {
			if s.Func == agg.Min || s.Func == agg.Max {
				return false
			}
			dense.Specs[i].Col, dense.Ext[i] = -1, len(extCols)
			extCols = append(extCols, v.rowFwd[s.Col])
		}
	}
	postCols := expr.ColumnSet(rowPost)
	dense.Fill = func(b *colstore.DenseBatch) {
		key := make([]value.Value, len(dense.Cols))
		var rrow []value.Value // the conjuncts' columns of the row partition's tuple
		if rowPost != nil {
			rrow = make([]value.Value, len(v.spec.RowCols))
		}
		var next int
		var misses int64
		for k := range b.Rids {
			for i, col := range dense.Cols {
				key[i] = v.colPart.CodeValue(col, b.Codes[i][k])
			}
			rrid, ok := v.rowOf(key, &next, &misses)
			if ok && rowPost != nil {
				v.rowPart.Read(rrid, postCols, rrow)
				ok = rowPost.Matches(rrow)
			}
			if !ok {
				b.Group[k] = b.Drop
				continue
			}
			for e, c := range extCols {
				if x := v.rowPart.Value(rrid, c); x.IsNull() {
					b.Ext[e].Null[k] = true
				} else {
					b.Ext[e].Vals[k] = x.Float()
				}
			}
		}
		join.probed.Add(int64(len(b.Rids)))
		join.misses.Add(misses)
	}
	return v.colPart.AggregateDense(res, &dense, colPred, ex)
}

// spanningGeneric joins full rows: the column partition's surviving rows
// arrive in blocks with the key and the needed column-partition columns
// decoded, the remaining conjuncts are tested on the joined row, which is
// then accumulated into the block's partial result.
func (v *verticalStorage) spanningGeneric(res *agg.Result, colPred, post expr.Predicate, ex *exec.Ctx, join *spanJoin) {
	// The scan decodes the key first, then the column-partition columns
	// the joined row needs; joinedCol maps a table column to where the
	// joined row takes it from.
	type joinedCol struct{ table, local int }
	scanCols := append([]int{}, v.colPart.Schema().PrimaryKey...)
	npk := len(scanCols)
	var fromCol, fromRow []joinedCol // local: index into the batch's columns / the row partition's tuple
	need := append(expr.ColumnSet(post), res.GroupCols...)
	for _, s := range res.Specs {
		if s.Col >= 0 {
			need = append(need, s.Col)
		}
	}
	seen := make(map[int]bool, len(need))
	for _, c := range need {
		if seen[c] {
			continue
		}
		seen[c] = true
		if local, ok := v.colFwd[c]; ok {
			fromCol = append(fromCol, joinedCol{c, len(scanCols)})
			scanCols = append(scanCols, local)
		} else {
			fromRow = append(fromRow, joinedCol{c, v.rowFwd[c]})
		}
	}

	aggregateBlocks(res, ex, func(add func(w, seq int, row []value.Value) bool) {
		v.colPart.ScanBatchesExec(colPred, scanCols, ex, func(w, block int, rids []int32, colVals [][]value.Value) bool {
			key, row := make([]value.Value, npk), make([]value.Value, v.sch.NumColumns())
			var next int
			var misses int64
			for k := range rids {
				for i := range key {
					key[i] = colVals[i][k]
				}
				rrid, ok := v.rowOf(key, &next, &misses)
				if !ok {
					continue
				}
				for _, c := range fromCol {
					row[c.table] = colVals[c.local][k]
				}
				for _, c := range fromRow {
					row[c.table] = v.rowPart.Value(rrid, c.local)
				}
				if post == nil || post.Matches(row) {
					add(w, block, row)
				}
			}
			join.probed.Add(int64(len(rids)))
			join.misses.Add(misses)
			return true
		})
	})
}

// HasPK reports whether a live row carries the given primary-key values
// (the row partition is authoritative; keys are in table PK order,
// which projection preserves).
func (v *verticalStorage) HasPK(key []value.Value) bool { return v.rowPart.HasPK(key) }

// DeletePK removes the key's row from both partitions, each resolving the
// key through its PK index, and Upsert re-inserts each row into both
// after deleting its key.
func (v *verticalStorage) DeletePK(key []value.Value) bool {
	v.colPart.DeletePK(key)
	return v.rowPart.DeletePK(key)
}

func (v *verticalStorage) Upsert(rows [][]value.Value) error {
	for _, row := range rows {
		v.DeletePK(v.sch.PKValues(row))
	}
	return v.Insert(rows)
}

// CreateIndex indexes the column in the row partition when it lives there.
func (v *verticalStorage) CreateIndex(col int) {
	if n, ok := v.rowFwd[col]; ok {
		v.rowPart.CreateIndex(n)
	}
}

// SupportsIndex reports whether the column lives in the row partition,
// where a secondary index can be materialized.
func (v *verticalStorage) SupportsIndex(col int) bool {
	_, ok := v.rowFwd[col]
	return ok
}

func (v *verticalStorage) DeltaRows() int { return v.colPart.DeltaRows() }

// Compact merges the column partition's delta and reclaims row-partition
// tombstones.
func (v *verticalStorage) Compact() {
	v.rowPart.Compact()
	v.colPart.Merge()
}

func (v *verticalStorage) footprint(f *Footprint) {
	f.addRow(v.rowPart)
	f.addCol(v.colPart)
}

func (v *verticalStorage) persist(enc *wal.Encoder) {
	persistRowTable(enc, v.rowPart)
	persistColTable(enc, v.colPart)
}

func (v *verticalStorage) restore(dec *wal.Decoder) error {
	rp, err := restoreRowTable(dec, v.rowPart.Schema())
	if err != nil {
		return err
	}
	cp, err := restoreColTable(dec, v.colPart.Schema())
	if err != nil {
		return err
	}
	v.rowPart, v.colPart = rp, cp
	return nil
}

func allCols(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
