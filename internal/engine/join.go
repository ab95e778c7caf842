package engine

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"hybridstore/internal/agg"
	"hybridstore/internal/colstore"
	"hybridstore/internal/exec"
	"hybridstore/internal/expr"
	"hybridstore/internal/plan"
	"hybridstore/internal/query"
	"hybridstore/internal/trace"
	"hybridstore/internal/value"
)

// execJoinPlan executes a planned equi-join (Select or Aggregate with a
// Join clause) as a hash join. The plan contributes the structural
// decisions — which side builds the hash table and whether single-side
// conjuncts are pushed below the join — while the concrete predicate
// fragments are re-derived from the bound query (the classification is
// structural, so a cached generic plan and the bound statement always
// agree). Column references in the query use combined indexing: left
// columns first, then right columns.
func (db *Database) execJoinPlan(ctx context.Context, q *query.Query, p *plan.Plan, sh *readShape, snap stmtSnap) (*Result, error) {
	left, err := db.runtime(q.Table)
	if err != nil {
		return nil, err
	}
	right, err := db.runtime(q.Join.Table)
	if err != nil {
		return nil, err
	}
	nL := left.entry.Schema.NumColumns()
	nR := right.entry.Schema.NumColumns()
	if q.Join.LeftCol < 0 || q.Join.LeftCol >= nL || q.Join.RightCol < 0 || q.Join.RightCol >= nR {
		return nil, fmt.Errorf("engine: join columns out of range")
	}
	ex := db.execCtx(ctx)

	// Planner decision: predicate pushdown below the join.
	var leftPred, rightPred, postPred expr.Predicate
	if p.Pushdown {
		leftPred, rightPred, postPred = plan.SplitJoinPred(q.Pred, nL, nR)
	} else {
		postPred = q.Pred
	}

	// Columns each side must materialize.
	needL, needR := plan.JoinNeededCols(q, nL, nR)

	// Snapshot views: a side whose version overlay contributes rows at
	// the statement's snapshot scans serially through the merged view; a
	// nil view keeps that side's parallel scan and the star join.
	ls := joinSide{rt: left, view: db.tableView(left, snap.ts, snap.tx),
		pred: leftPred, need: needL, joinCol: q.Join.LeftCol, width: nL, offset: 0}
	rs := joinSide{rt: right, view: db.tableView(right, snap.ts, snap.tx),
		pred: rightPred, need: needR, joinCol: q.Join.RightCol, width: nR, offset: nL}
	// Planner decision: the smaller estimated (post-pushdown) input builds.
	build, probe := rs, ls
	if p.BuildLeft {
		build, probe = ls, rs
	}

	// Join keys of two whole-number types compare by numeric value: the
	// build key is brought to the probe column's type where it is read.
	build.keyType = probe.rt.entry.Schema.Columns[probe.joinCol].Type
	if bt := build.rt.entry.Schema.Columns[build.joinCol].Type; !value.JoinComparable(bt, build.keyType) {
		return nil, fmt.Errorf("engine: cannot join columns of types %s and %s", bt, build.keyType)
	}

	tr := trace.FromContext(ctx)
	var bsp *trace.Span
	if tr != nil {
		bsp = tr.Start(nodeSpanName(sh.join.Build))
	}

	var aggRes *agg.Result
	res := &Result{}
	if q.Kind == query.Aggregate {
		aggRes = agg.NewResult(q.Aggs, q.GroupBy)
		// Combined-row indexing: left column types first, then right.
		aggRes.SetOutputTypes(append(left.entry.Schema.ColTypes(), right.entry.Schema.ColTypes()...))
	}

	// Build phase. The star-join shape resolves the build side into the
	// probe column's dictionary and needs no hash table; everything else
	// materializes the needed columns of matching build rows.
	buildNeed := append(append([]int{}, build.need...), build.joinCol)
	var star *starJoin
	var hash map[uint64][]*buildRow
	var buildRows int64
	if cs, ok := probe.rt.store.(*colStorage); ok && q.Kind == query.Aggregate && postPred == nil && starJoinShape(q, &probe, &build) {
		star = newStarJoin(cs.t, q, &probe, &build, buildNeed, ex)
		buildRows = star.buildRows
	} else {
		hash, buildRows = buildJoinHash(&build, buildNeed, ex)
	}
	bsp.AddRowsOut(buildRows)
	bsp.End()
	var psp *trace.Span
	if tr != nil {
		psp = tr.Start(nodeSpanName(sh.join.Probe))
	}

	// Probe phase.
	outCols := q.Cols
	if q.Kind == query.Select && outCols == nil {
		outCols = plan.StarCols(left.entry.Schema, right.entry.Schema)
	}
	var probeRows atomic.Int64
	var rc *rowCollector
	probeCols := func(cols []int) exec.Blocks {
		return probeJoin(&probe, &build, buildNeed, hash, postPred, nL+nR, cols, ex, &probeRows)
	}
	switch {
	case star != nil:
		probeRows.Store(star.probe(aggRes, probe.pred, ex))
	case q.Kind == query.Aggregate:
		aggRes.Fold(foldBlocks, probeCols)
	default:
		pos := append(slices.Clip(outCols), orderCols(q.OrderBy)...) // the output columns, then the sort keys
		rc = collectRows(q, len(outCols), pos, sh.topk != nil, probeCols(pos))
	}
	sp := tr.Span("join")
	if star != nil {
		mJoinDense.Inc()
		sp.Tag("probe", "dense")
		sp.Add("build_keys_resolved", star.resolved)
	} else {
		mJoinGeneric.Inc()
		sp.Tag("probe", "generic")
	}
	sp.Add("build_rows", buildRows)
	sp.Add("probe_rows", probeRows.Load())

	if err := ctx.Err(); err != nil {
		psp.End()
		return nil, err
	}
	if rc != nil { // grouped rows are assembled below
		res.Rows = finishCollect(tr, sh, rc, psp)
	}
	psp.End()

	// Assemble the result.
	names := func(c int) string {
		if c < nL {
			return q.Table + "." + left.entry.Schema.Columns[c].Name
		}
		return q.Join.Table + "." + right.entry.Schema.Columns[c-nL].Name
	}
	if q.Kind == query.Aggregate {
		res = &Result{Rows: aggRes.Rows()}
		for _, g := range q.GroupBy {
			res.Cols = append(res.Cols, names(g))
		}
		for _, s := range q.Aggs {
			if s.Col < 0 {
				res.Cols = append(res.Cols, "COUNT(*)")
			} else {
				res.Cols = append(res.Cols, fmt.Sprintf("%s(%s)", s.Func, names(s.Col)))
			}
		}
		if err := sortAggRows(res.Rows, q); err != nil {
			return nil, err
		}
	} else {
		for _, c := range outCols {
			res.Cols = append(res.Cols, names(c))
		}
	}
	res.Affected = len(res.Rows)
	return res, nil
}

// joinSide describes one input of a hash join.
type joinSide struct {
	rt      *tableRuntime
	view    *overlayView // statement's MVCC view (nil: base is current)
	pred    expr.Predicate
	need    []int
	joinCol int
	width   int
	offset  int        // offset of this side's columns in the combined row
	keyType value.Type // build side: the probe column's type, which join keys are compared in
}

// joinKey returns the build side's join key k as the probe side compares
// it: a whole number of another type (the only mixed pairs
// value.JoinComparable admits) takes the probe column's type.
func (s *joinSide) joinKey(k value.Value) value.Value {
	switch {
	case k.Type() == s.keyType:
		return k
	case s.keyType == value.Integer:
		return value.NewInt(k.Int())
	case s.keyType == value.Bigint:
		return value.NewBigint(k.Int())
	}
	return value.NewDate(k.Int())
}

// buildRow is one materialized row of the hash join's build side.
type buildRow struct {
	key  value.Value   // in the probe column's type
	vals []value.Value // full side width (needed cols filled)
}

// buildJoinHash materializes the needed columns of the build side's
// matching rows, keyed by join key; NULL keys never join and are left out.
func buildJoinHash(build *joinSide, buildNeed []int, ex *exec.Ctx) (hash map[uint64][]*buildRow, rows int64) {
	hash = make(map[uint64][]*buildRow)
	eachRow(mergedScan(build.rt, build.view, build.pred, buildNeed, ex.Serial()), buildNeed, build.width, func(row []value.Value) {
		if key := row[build.joinCol]; !key.IsNull() {
			br := &buildRow{key: build.joinKey(key), vals: slices.Clone(row)}
			h := br.key.Hash()
			hash[h] = append(hash[h], br)
			rows++
		}
	})
	return hash, rows
}

// starJoinShape reports whether the aggregate join q, free of post-join
// conjuncts, is one the dense kernel covers: the probe side is a plain
// column-store table at its current version, the build side joins on its
// primary key — so a probe key meets at most one build row, the star-schema
// shape — every group column lives on the build side, and MIN/MAX read
// probe-side columns only (the kernel tracks extrema by dictionary code).
func starJoinShape(q *query.Query, probe, build *joinSide) bool {
	pk := build.rt.entry.Schema.PrimaryKey
	if probe.view != nil || len(pk) != 1 || pk[0] != build.joinCol {
		return false
	}
	for _, g := range q.GroupBy {
		if !build.has(g) {
			return false
		}
	}
	for _, sp := range q.Aggs {
		if (sp.Func == agg.Min || sp.Func == agg.Max) && !probe.has(sp.Col) {
			return false
		}
	}
	return true
}

// has reports whether column c (combined indexing) belongs to this side.
func (s *joinSide) has(c int) bool { return c >= s.offset && c < s.offset+s.width }

// starJoin is a star join run as a dense grouped aggregation over the
// probe table: the build side is scanned once, each build row's key is
// resolved once into the probe column's dictionary, and what the probe
// needs of the row — the dense id of its group, its values of the
// aggregated build-side columns — is stored by key code. The probe is then
// the column store's dense kernel with the group of a row looked up by its
// key code; no hash table is built or probed.
type starJoin struct {
	t       *colstore.Table
	dense   colstore.DenseAgg
	groupOf []uint32     // by probe key code: dense group, or the kernel's drop slot
	vals    [][]float64  // per external vector, by probe key code: the build row's value
	nulls   [][]bool     // ... and whether it is NULL (nil: never)
	ids     *agg.Result  // numbers the build side's groups in order of appearance
	probed  atomic.Int64 // probe rows seen

	buildRows, resolved int64 // build rows with a key; those whose key the probe dictionary holds
}

func newStarJoin(t *colstore.Table, q *query.Query, probe, build *joinSide, buildNeed []int, ex *exec.Ctx) *starJoin {
	space := t.CodeSpace(probe.joinCol)
	sj := &starJoin{t: t, groupOf: make([]uint32, space), ids: agg.NewResult(nil, q.GroupBy)}
	const unset = ^uint32(0)
	for i := range sj.groupOf {
		sj.groupOf[i] = unset
	}
	specs := make([]agg.Spec, len(q.Aggs))
	ext := make([]int, len(q.Aggs))
	var extCols []int // the build-side column behind each external vector
	for i, sp := range q.Aggs {
		specs[i], ext[i] = sp, -1
		switch {
		case sp.Col < 0:
		case probe.has(sp.Col):
			specs[i].Col = sp.Col - probe.offset
		default:
			ext[i] = len(extCols)
			extCols = append(extCols, sp.Col-build.offset)
			sj.vals = append(sj.vals, make([]float64, space))
		}
	}
	sj.nulls = make([][]bool, len(extCols))

	key := make([]value.Value, len(q.GroupBy))
	hint := 0
	eachRow(mergedScan(build.rt, build.view, build.pred, buildNeed, ex.Serial()), buildNeed, build.width, func(row []value.Value) {
		jk := row[build.joinCol]
		if jk.IsNull() {
			return
		}
		sj.buildRows++
		// A value can sit in the main and in the delta dictionary.
		main, delta := t.LookupCodes(probe.joinCol, build.joinKey(jk), hint)
		if main < 0 && delta < 0 {
			return // no probe row carries the key
		}
		sj.resolved++
		hint = main + 1 // build rows tend to arrive in key order
		g := uint32(0)  // an ungrouped aggregate has the one group
		if len(key) > 0 {
			for i, c := range q.GroupBy {
				key[i] = row[c-build.offset]
			}
			g = uint32(sj.ids.GroupIndex(key))
		}
		for _, code := range [2]int{main, delta} {
			if code < 0 {
				continue
			}
			sj.groupOf[code] = g
			for e, c := range extCols {
				if v := row[c]; !v.IsNull() {
					sj.vals[e][code] = v.Float()
				} else {
					if sj.nulls[e] == nil {
						sj.nulls[e] = make([]bool, space)
					}
					sj.nulls[e][code] = true
				}
			}
		}
	})
	groups := len(sj.ids.Groups)
	for code, g := range sj.groupOf {
		if g == unset {
			sj.groupOf[code] = uint32(groups) // DenseBatch.Drop
		}
	}
	sj.dense = colstore.DenseAgg{
		Specs: specs, Ext: ext, Groups: groups,
		Key:  func(g uint32) []value.Value { return sj.ids.Groups[g].Key },
		Cols: []int{probe.joinCol}, Fill: sj.fill,
	}
	return sj
}

// fill numbers a probe batch's rows with their build row's group and
// copies the build row's values into the external vectors.
func (sj *starJoin) fill(b *colstore.DenseBatch) {
	codes := b.Codes[0]
	sj.probed.Add(int64(len(codes)))
	for k, c := range codes {
		b.Group[k] = sj.groupOf[c]
	}
	for e, vals := range sj.vals {
		x := &b.Ext[e]
		for k, c := range codes {
			x.Vals[k] = vals[c]
		}
		if nulls := sj.nulls[e]; nulls != nil {
			for k, c := range codes {
				x.Null[k] = nulls[c]
			}
		}
	}
}

// probe runs the probe side through the dense kernel into aggRes and
// returns the probe rows seen. A build side without a key the probe
// dictionary holds joins nothing.
func (sj *starJoin) probe(aggRes *agg.Result, pred expr.Predicate, ex *exec.Ctx) int64 {
	if sj.resolved > 0 {
		sj.t.AggregateDense(aggRes, &sj.dense, pred, ex)
	}
	return sj.probed.Load()
}

// probeJoin is the probe side run through the build side's hash table, as
// a block source of combined-row columns cols: joined block i holds the
// combined rows of probe block i's matches that pass the post-join
// conjuncts. probed counts the probe rows seen.
func probeJoin(probe, build *joinSide, buildNeed []int, hash map[uint64][]*buildRow, postPred expr.Predicate, combinedWidth int, cols []int, ex *exec.Ctx, probed *atomic.Int64) exec.Blocks {
	probeNeed := append(append([]int{}, probe.need...), probe.joinCol)
	keyIdx := len(probeNeed) - 1
	in := mergedScan(probe.rt, probe.view, probe.pred, probeNeed, ex)
	return joinedBlocks(in, ex, combinedWidth, cols, func(colVals [][]value.Value, jw *joinWorker) {
		probed.Add(int64(len(colVals[keyIdx])))
		row := jw.row
		for k, kv := range colVals[keyIdx] {
			if kv.IsNull() {
				continue
			}
			matches := hash[kv.Hash()]
			if len(matches) == 0 {
				continue
			}
			for j, c := range probeNeed {
				row[probe.offset+c] = colVals[j][k]
			}
			for _, m := range matches {
				if !value.Equal(m.key, kv) {
					continue // hash collision
				}
				for _, c := range buildNeed {
					row[build.offset+c] = m.vals[c]
				}
				if postPred == nil || postPred.Matches(row) {
					jw.put()
				}
			}
		}
	})
}

// joinedBlocks turns the blocks of a join's driving side into the join's
// blocks of columns cols: joined block i holds what match puts out for
// driving block i, with its own worker's buffers — a width-wide combined
// row to fill, and put, which takes the row as it stands.
func joinedBlocks(in exec.Blocks, ex *exec.Ctx, width int, cols []int, match func(colVals [][]value.Value, jw *joinWorker)) exec.Blocks {
	workers := make([]*joinWorker, ex.Workers(math.MaxInt))
	return exec.Blocks{N: in.N, Ctx: in.Ctx, Done: in.Done, Block: func(w, i int) [][]value.Value {
		colVals := in.Block(w, i)
		if len(colVals) == 0 {
			return nil
		}
		jw := workers[w]
		if jw == nil {
			jw = &joinWorker{row: make([]value.Value, width), cols: cols, out: make([][]value.Value, len(cols))}
			workers[w] = jw
		}
		for j := range jw.out {
			jw.out[j] = jw.out[j][:0]
		}
		match(colVals, jw)
		return nonEmpty(jw.out)
	}}
}

// joinWorker is one worker's buffers of a join's block source.
type joinWorker struct {
	row  []value.Value // the combined row
	cols []int
	out  [][]value.Value // the block's columns cols
}

// put appends the combined row's columns to the block.
func (jw *joinWorker) put() {
	for j, c := range jw.cols {
		jw.out[j] = append(jw.out[j], jw.row[c])
	}
}
