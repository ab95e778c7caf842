package engine

import (
	"slices"
	"sync/atomic"

	"hybridstore/internal/agg"
	"hybridstore/internal/catalog"
	"hybridstore/internal/colstore"
	"hybridstore/internal/exec"
	"hybridstore/internal/expr"
	"hybridstore/internal/rowstore"
	"hybridstore/internal/schema"
	"hybridstore/internal/value"
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

// Scan returns the matching rows' blocks. When the referenced columns fit
// a single partition it scans that partition alone; otherwise it
// reconstructs full tuples by joining the partitions on the primary key
// (the cost the paper charges queries that span a vertical split).
func (v *verticalStorage) Scan(pred expr.Predicate, cols []int, ex *exec.Ctx) exec.Blocks {
	cols = orAll(cols, v.sch.NumColumns())
	switch v.coverage(cols, pred) {
	case partRow:
		rpred, _ := expr.Remap(pred, v.rowFwd)
		return v.rowPart.Blocks(rpred, remapCols(cols, v.rowFwd), ex)
	case partCol:
		cpred, _ := expr.Remap(pred, v.colFwd)
		return v.colPart.Blocks(cpred, remapCols(cols, v.colFwd), ex)
	}
	return v.scanJoined(pred, cols, ex)
}

// remapCols returns the partition positions of table columns cols.
func remapCols(cols []int, fwd map[int]int) []int {
	out := make([]int, len(cols))
	for i, c := range cols {
		out[i] = fwd[c]
	}
	return out
}

// scanJoined reconstructs full-width tuples via a PK join, on the calling
// goroutine: the row partition's blocks drive, and the column partition is
// probed per key (tuple reconstruction on the column store side).
func (v *verticalStorage) scanJoined(pred expr.Predicate, cols []int, ex *exec.Ctx) exec.Blocks {
	pkRow := v.rowPart.Schema().PrimaryKey
	in := v.rowPart.Blocks(nil, nil, ex.Serial())
	return joinedBlocks(in, in.Ctx, v.sch.NumColumns(), cols, func(prows [][]value.Value, jw *joinWorker) {
		key := make([]value.Value, len(pkRow))
		for k := range prows[0] {
			for i, c := range v.spec.RowCols {
				jw.row[c] = prows[i][k]
			}
			for i, c := range pkRow {
				key[i] = prows[c][k]
			}
			crid, ok := v.colPart.LookupPK(key)
			if !ok {
				mVerticalJoinMiss.Inc() // partition inconsistency; skip defensively
				continue
			}
			crow := v.colPart.Get(crid)
			for i, c := range v.spec.ColCols {
				jw.row[c] = crow[i]
			}
			if pred == nil || pred.Matches(jw.row) {
				jw.put()
			}
		}
	})
}

// Aggregate pushes the aggregation into a single partition when all
// referenced columns live there (the common case after the advisor's
// vertical split: keyfigures and group-bys in the column partition);
// otherwise it joins the partitions on the primary key, column partition
// driving (aggregateSpanning).
func (v *verticalStorage) Aggregate(specs []agg.Spec, groupBy []int, pred expr.Predicate, ex *exec.Ctx) *agg.Result {
	cols := slices.Clone(groupBy)
	for _, s := range specs {
		if s.Col >= 0 {
			cols = append(cols, s.Col)
		}
	}
	switch v.coverage(cols, pred) {
	case partRow:
		return foldScan(v.sch.ColTypes(), specs, groupBy, func(cols []int) exec.Blocks { return v.Scan(pred, cols, ex) })
	case partCol:
		local := slices.Clone(specs)
		for i, s := range local {
			if s.Col >= 0 {
				local[i].Col = v.colFwd[s.Col]
			}
		}
		cpred, _ := expr.Remap(pred, v.colFwd)
		return v.colPart.AggregateExec(local, remapCols(groupBy, v.colFwd), cpred, ex)
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
		sp.Add("probe_guessed", join.guessed.Load())
		sp.Add("probe_misses", join.misses.Load())
		sp.Add("blocks_zone_skipped", tr.Counter("blocks_zone_skipped")-zoneSkipped)
	}
	return res
}

// spanJoin counts a spanning aggregate's PK join: keys probed in the row
// partition, those the positional guess resolved, and those it did not
// hold (a partition inconsistency; such rows are skipped defensively).
type spanJoin struct{ probed, guessed, misses atomic.Int64 }

// resolve sets slots[k] to the row partition's slot of a batch's key k,
// -1 when the partition does not hold it (rowstore.ResolvePK).
func (v *verticalStorage) resolve(words []uint64, key func(i, k int) value.Value, start int, slots []int32, join *spanJoin) {
	guessed, missed := v.rowPart.ResolvePK(words, key, start, slots)
	join.probed.Add(int64(len(slots)))
	join.guessed.Add(int64(guessed))
	join.misses.Add(int64(missed))
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
	// A batch's keys (one-word keys as payload words) resolve at once from
	// its first row's slot; row-side keyfigures are gathered as floats.
	type spanWorker struct {
		words []uint64
		slots []int32
		rrow  []value.Value // the conjuncts' columns of the row partition's tuple
	}
	workers := make([]spanWorker, ex.Workers(v.colPart.NumBlocks()))
	dense.Fill = func(b *colstore.DenseBatch) {
		sw, n := &workers[b.W], len(b.Rids)
		sw.words, sw.slots = slices.Grow(sw.words[:0], n)[:n], slices.Grow(sw.slots[:0], n)[:n]
		sw.rrow = slices.Grow(sw.rrow[:0], len(v.spec.RowCols))[:len(v.spec.RowCols)]
		words, slots := sw.words, sw.slots
		if len(dense.Cols) > 1 || !v.colPart.CodeWords(dense.Cols[0], b.Codes[0], words) {
			words = nil
		}
		v.resolve(words, func(i, k int) value.Value { return v.colPart.CodeValue(dense.Cols[i], b.Codes[i][k]) }, int(b.Rids[0]), slots, join)
		for k, s := range slots {
			if s >= 0 && rowPost != nil {
				if v.rowPart.Read(int(s), postCols, sw.rrow); !rowPost.Matches(sw.rrow) {
					slots[k] = -1
				}
			}
			if slots[k] < 0 {
				b.Group[k] = b.Drop
			}
		}
		for e, c := range extCols {
			v.rowPart.Floats(c, slots, b.Ext[e].Vals, b.Ext[e].Null)
		}
	}
	return v.colPart.AggregateDense(res, &dense, colPred, ex)
}

// spanningGeneric joins full rows into the generic hash fold: the column
// partition's surviving rows arrive in blocks with the key and the needed
// column-partition columns decoded, the remaining conjuncts are tested on
// the joined row, and joined block i holds block i's rows that pass.
func (v *verticalStorage) spanningGeneric(res *agg.Result, colPred, post expr.Predicate, ex *exec.Ctx, join *spanJoin) {
	res.Fold(foldBlocks, func(cols []int) exec.Blocks {
		// The scan decodes the key first, then the column-partition
		// columns the joined row needs; joinedCol maps a table column to
		// where the joined row takes it from.
		type joinedCol struct{ table, local int }
		scanCols := append([]int{}, v.colPart.Schema().PrimaryKey...)
		var fromCol, fromRow []joinedCol // local: index into the block's columns / the row partition's tuple
		seen := make(map[int]bool)
		for _, c := range append(expr.ColumnSet(post), cols...) {
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
		in := v.colPart.Blocks(colPred, scanCols, ex)
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
					jw.row[c.table] = v.rowPart.Value(int(s), c.local)
				}
				if post == nil || post.Matches(jw.row) {
					jw.put()
				}
			}
		})
	})
}

// HasPK reports whether a live row carries the given primary-key values
// (the row partition is authoritative; keys are in table PK order,
// which projection preserves).
func (v *verticalStorage) HasPK(key []value.Value) bool { return v.rowPart.HasPK(key) }

// DeletePK removes the key's row from both partitions, each resolving the
// key through its PK index.
func (v *verticalStorage) DeletePK(key []value.Value) bool {
	v.colPart.DeletePK(key)
	return v.rowPart.DeletePK(key)
}

// Upsert validates the whole batch, removes each row's key from both
// partitions and then appends the projections to both, so the partitions
// keep holding their rows in the same order (the guess
// rowstore.ResolvePK starts from).
func (v *verticalStorage) Upsert(rows [][]value.Value) error {
	if err := v.sch.ValidateRows(rows); err != nil {
		return err
	}
	for _, row := range rows {
		v.DeletePK(v.sch.PKValues(row))
	}
	if err := v.rowPart.Upsert(projectRows(rows, v.spec.RowCols)); err != nil {
		return err
	}
	return v.colPart.Upsert(projectRows(rows, v.spec.ColCols))
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

func allCols(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
