package engine

import (
	"context"
	"fmt"

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
	stop := stopFunc(ctx)
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

	// Planner decision: the smaller estimated (post-pushdown) input
	// builds the hash table.
	buildLeft := p.BuildLeft

	// Snapshot views: a side whose version overlay contributes rows at
	// the statement's snapshot scans through the merged serial path; a
	// nil view keeps that side's vectorized fast paths.
	ls := joinSide{rt: left, view: db.tableView(left, snap.ts, snap.tx),
		pred: leftPred, need: needL, joinCol: q.Join.LeftCol, width: nL, offset: 0}
	rs := joinSide{rt: right, view: db.tableView(right, snap.ts, snap.tx),
		pred: rightPred, need: needR, joinCol: q.Join.RightCol, width: nR, offset: nL}
	build, probe := rs, ls
	if buildLeft {
		build, probe = ls, rs
	}

	tr := trace.FromContext(ctx)
	var bsp *trace.Span
	if tr != nil {
		bsp = tr.Start(nodeSpanName(sh.join.Build))
	}

	// Build phase: materialize the needed columns of matching build rows.
	// A column-store build side feeds the hash table through the
	// vectorized batch scan — columns arrive column-at-a-time without the
	// full-width scratch copy per row.
	hash := make(map[uint64][]*buildRow)
	buildNeed := append(append([]int{}, build.need...), build.joinCol)
	if bs, ok := build.rt.store.(execBatchScanner); ok && build.view == nil && ex.Parallel(bs.NumBlocks()) {
		// Parallel build: blocks materialize their rows concurrently;
		// the hash inserts run serially afterwards in block order, so
		// bucket chains match the serial build exactly.
		keyIdx := len(buildNeed) - 1 // joinCol is last in buildNeed
		perBlock := make([][]*buildRow, bs.NumBlocks())
		bs.ScanBatchesExec(build.pred, buildNeed, ex, func(w, block int, rids []int32, colVals [][]value.Value) bool {
			rows := make([]*buildRow, 0, len(rids))
			for k := range rids {
				key := colVals[keyIdx][k]
				if key.IsNull() {
					continue
				}
				vals := make([]value.Value, build.width)
				for j, c := range buildNeed {
					vals[c] = colVals[j][k]
				}
				rows = append(rows, &buildRow{key: key, vals: vals})
			}
			perBlock[block] = rows
			return true
		})
		for _, rows := range perBlock {
			for _, br := range rows {
				h := br.key.Hash()
				hash[h] = append(hash[h], br)
			}
		}
	} else if bs, ok := build.rt.store.(batchScanner); ok && build.view == nil {
		keyIdx := len(buildNeed) - 1 // joinCol is last in buildNeed
		bs.ScanBatches(build.pred, buildNeed, func(rids []int32, colVals [][]value.Value) bool {
			if stop != nil && stop() {
				return false
			}
			for k := range rids {
				key := colVals[keyIdx][k]
				if key.IsNull() {
					continue
				}
				vals := make([]value.Value, build.width)
				for j, c := range buildNeed {
					vals[c] = colVals[j][k]
				}
				h := key.Hash()
				hash[h] = append(hash[h], &buildRow{key: key, vals: vals})
			}
			return true
		})
	} else {
		buildVisited := 0
		mergedScan(build.rt, build.view, build.pred, buildNeed, func(row []value.Value) bool {
			if stop != nil {
				buildVisited++
				if buildVisited%scanCancelBatch == 0 && stop() {
					return false
				}
			}
			k := row[build.joinCol]
			if k.IsNull() {
				return true
			}
			vals := make([]value.Value, build.width)
			for _, c := range buildNeed {
				vals[c] = row[c]
			}
			h := k.Hash()
			hash[h] = append(hash[h], &buildRow{key: k, vals: vals})
			return true
		})
	}

	if bsp != nil {
		var nb int64
		for _, rows := range hash {
			nb += int64(len(rows))
		}
		bsp.AddRowsOut(nb)
		bsp.End()
	}
	var psp *trace.Span
	if tr != nil {
		psp = tr.Start(nodeSpanName(sh.join.Probe))
	}

	// Probe phase.
	combined := make([]value.Value, nL+nR)
	var res *Result
	var aggRes *agg.Result
	if q.Kind == query.Aggregate {
		aggRes = agg.NewResult(q.Aggs, q.GroupBy)
		// Combined-row indexing: left column types first, then right.
		aggRes.SetOutputTypes(append(left.entry.Schema.ColTypes(), right.entry.Schema.ColTypes()...))
	} else {
		res = &Result{}
	}
	outCols := q.Cols
	if q.Kind == query.Select && outCols == nil {
		outCols = allCols(nL + nR)
	}

	// Columnar probe fast path: when the probe side is an unpartitioned
	// column-store table and the aggregate's grouping lives entirely on
	// the build side (the star-query shape), the join is probed by
	// dictionary code — the build side is resolved once per distinct key
	// and group buckets once per build row, so the per-row work is a code
	// extraction plus accumulator updates. This is the dictionary-join
	// advantage real columnar engines have over value-at-a-time probing.
	ordered := len(q.OrderBy) > 0
	var keys [][]value.Value
	var acc *topKAcc
	var seq int64
	if sh.topk != nil {
		acc = newTopK(q.Limit, q.OrderBy)
	}
	if cs, ok := probe.rt.store.(*colStorage); ok && probe.view == nil && q.Kind == query.Aggregate {
		if postPred == nil && groupsOnSide(q.GroupBy, build.offset, build.width) {
			probeJoinColumnar(cs.t, q, &probe, &build, hash, aggRes, ex)
		} else {
			probeJoinBatched(cs.t, q, &probe, &build, buildNeed, hash, aggRes, postPred, nL+nR, ex)
		}
	} else {
		limitHit := false
		probeVisited := 0
		probeNeed := append(append([]int{}, probe.need...), probe.joinCol)
		mergedScan(probe.rt, probe.view, probe.pred, probeNeed, func(row []value.Value) bool {
			if stop != nil {
				probeVisited++
				if probeVisited%scanCancelBatch == 0 && stop() {
					return false
				}
			}
			k := row[probe.joinCol]
			if k.IsNull() {
				return true
			}
			matches := hash[k.Hash()]
			if len(matches) == 0 {
				return true
			}
			// Fill the probe side of the combined row once.
			for _, c := range probeNeed {
				combined[probe.offset+c] = row[c]
			}
			for _, m := range matches {
				if !value.Equal(m.key, k) {
					continue // hash collision
				}
				for _, c := range buildNeed {
					combined[build.offset+c] = m.vals[c]
				}
				if postPred != nil && !postPred.Matches(combined) {
					continue
				}
				if q.Kind == query.Aggregate {
					aggRes.AddRow(combined)
				} else {
					out := make([]value.Value, len(outCols))
					for i, c := range outCols {
						out[i] = combined[c]
					}
					if acc != nil {
						// Planned single-pass top-K over the probe
						// output: arrival order is the serial probe
						// emission order, matching stable sort+limit.
						key := make([]value.Value, len(q.OrderBy))
						for i, o := range q.OrderBy {
							key[i] = combined[o.Col]
						}
						acc.Add(out, key, seq)
						seq++
						continue
					}
					res.Rows = append(res.Rows, out)
					if ordered {
						key := make([]value.Value, len(q.OrderBy))
						for i, o := range q.OrderBy {
							key[i] = combined[o.Col]
						}
						keys = append(keys, key)
						continue
					}
					if q.Limit > 0 && len(res.Rows) >= q.Limit {
						limitHit = true
						return false
					}
				}
			}
			return !limitHit
		})
	}

	if err := ctx.Err(); err != nil {
		psp.End()
		return nil, err
	}
	if acc != nil {
		res.Rows = acc.Finish()
	}
	if psp != nil {
		if q.Kind != query.Aggregate { // grouped rows are assembled below
			psp.AddRowsOut(int64(len(res.Rows)))
		}
		psp.End()
	}

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
	} else {
		for _, c := range outCols {
			res.Cols = append(res.Cols, names(c))
		}
	}
	if q.Kind == query.Aggregate {
		if err := sortAggRows(res.Rows, q); err != nil {
			return nil, err
		}
	} else if ordered && acc == nil {
		sortRowsByKeys(res.Rows, keys, q.OrderBy)
		if q.Limit > 0 && len(res.Rows) > q.Limit {
			res.Rows = res.Rows[:q.Limit]
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
	offset  int // offset of this side's columns in the combined row
}

// buildRow is one materialized row of the hash join's build side.
type buildRow struct {
	key   value.Value
	vals  []value.Value // full side width (needed cols filled)
	group int           // dense id of the row's group (probeJoinColumnar)
}

// groupsOnSide reports whether every group-by column (combined indexing)
// falls within [offset, offset+width).
func groupsOnSide(groupBy []int, offset, width int) bool {
	for _, c := range groupBy {
		if c < offset || c >= offset+width {
			return false
		}
	}
	return true
}

// probeJoinColumnar probes the hash join by dictionary code: the build
// side is resolved once per distinct probe-key code and every build row
// carries the dense id of its group, so the per-probe-row work reduces to
// a code extraction, an array lookup and accumulator updates. Each block
// range of the probe side accumulates into a dense partial of its own and
// the partials merge in block order, so the sums do not depend on the
// pool size; each worker keeps a private code→matches cache (re-resolving
// a code on two workers is cheap and race-free). Groups come out in the
// order the probe scan first reaches them.
func probeJoinColumnar(t *colstore.Table, q *query.Query, probe, build *joinSide, hash map[uint64][]*buildRow, aggRes *agg.Result, ex *exec.Ctx) {
	keyVals := t.KeyDictValues(probe.joinCol)

	// Map each aggregate to its source: COUNT(*), a probe-side column
	// (decoded into extraVals), or a build-side column.
	type aggSrc struct {
		countStar  bool
		probeExtra int // index into extraVals, -1 if build-side
		buildCol   int // side-local build column, -1 if probe-side
	}
	srcs := make([]aggSrc, len(q.Aggs))
	var extra []int
	extraIdx := map[int]int{}
	for i, sp := range q.Aggs {
		switch {
		case sp.Col < 0:
			srcs[i] = aggSrc{countStar: true, probeExtra: -1, buildCol: -1}
		case sp.Col >= probe.offset && sp.Col < probe.offset+probe.width:
			local := sp.Col - probe.offset
			idx, ok := extraIdx[local]
			if !ok {
				idx = len(extra)
				extraIdx[local] = idx
				extra = append(extra, local)
			}
			srcs[i] = aggSrc{probeExtra: idx, buildCol: -1}
		default:
			srcs[i] = aggSrc{probeExtra: -1, buildCol: sp.Col - build.offset}
		}
	}

	// Number the build side's groups (an ungrouped aggregate has the one
	// group 0, which every build row's zero value already names).
	groupKeys := [][]value.Value{nil}
	if len(q.GroupBy) > 0 {
		groupKeys = groupKeys[:0]
		ids := make(map[string]int)
		key := make([]value.Value, len(q.GroupBy))
		for _, rows := range hash {
			for _, m := range rows {
				for i, c := range q.GroupBy {
					key[i] = m.vals[c-build.offset]
				}
				ks := value.TupleKey(key)
				id, ok := ids[ks]
				if !ok {
					id = len(groupKeys)
					ids[ks] = id
					groupKeys = append(groupKeys, append([]value.Value(nil), key...))
				}
				m.group = id
			}
		}
	}

	// A partial holds one accumulator per (group, aggregate), the joined
	// rows per group and the groups in the order its rows first reached
	// them.
	nspec := len(q.Aggs)
	type partial struct {
		accs  []agg.Acc
		rows  []int64
		order []int
	}
	newPartial := func() *partial {
		return &partial{accs: make([]agg.Acc, len(groupKeys)*nspec), rows: make([]int64, len(groupKeys))}
	}
	total := newPartial()

	type pjState struct {
		matches  [][]*buildRow
		resolved []bool
	}
	states := make([]*pjState, ex.Workers(t.NumBlocks()))
	per := colstore.RangeBlocks(len(groupKeys) * max(1, nspec))
	colstore.JoinProbe(t, probe.joinCol, extra, probe.pred, ex, per, newPartial, func(w int, p *partial, code int64, extraVals []value.Value) bool {
		if code < 0 {
			return true // NULL join keys never match
		}
		st := states[w]
		if st == nil {
			st = &pjState{matches: make([][]*buildRow, len(keyVals)), resolved: make([]bool, len(keyVals))}
			states[w] = st
		}
		if !st.resolved[code] {
			st.resolved[code] = true
			k := keyVals[code]
			for _, m := range hash[k.Hash()] {
				if value.Equal(m.key, k) {
					st.matches[code] = append(st.matches[code], m)
				}
			}
		}
		for _, m := range st.matches[code] {
			if p.rows[m.group] == 0 {
				p.order = append(p.order, m.group)
			}
			p.rows[m.group]++
			accs := p.accs[m.group*nspec:]
			for i := range q.Aggs {
				switch {
				case srcs[i].countStar:
					accs[i].AddCount(1)
				case srcs[i].probeExtra >= 0:
					accs[i].Add(extraVals[srcs[i].probeExtra])
				default:
					accs[i].Add(m.vals[srcs[i].buildCol])
				}
			}
		}
		return true
	}, func(p *partial) {
		for _, g := range p.order {
			if total.rows[g] == 0 {
				total.order = append(total.order, g)
			}
			total.rows[g] += p.rows[g]
			p.rows[g] = 0
			for i := g * nspec; i < (g+1)*nspec; i++ {
				total.accs[i].Merge(&p.accs[i])
				p.accs[i] = agg.Acc{}
			}
		}
		p.order = p.order[:0]
	})
	if ex.Stopped() {
		return // caller surfaces ctx.Err(); partials are discarded
	}
	for _, g := range total.order {
		var grp *agg.Group
		if len(q.GroupBy) > 0 {
			grp = aggRes.GroupFor(groupKeys[g])
		} else {
			grp = aggRes.Global()
		}
		for i := range grp.Accs {
			grp.Accs[i].Merge(&total.accs[g*nspec+i])
		}
	}
}

// probeJoinBatched is the generic aggregate probe of a column-store probe
// side: every block's batch walks the shared (read-only) hash table and
// accumulates into a partial result of its own, on whichever worker
// claimed the block; the partials merge in block order, so the result
// does not depend on the pool size. Select joins stay on the serial
// probe — their limit/order semantics want the serial row order — and
// stopped contexts leave a partial aggRes the caller discards.
func probeJoinBatched(t *colstore.Table, q *query.Query, probe, build *joinSide, buildNeed []int, hash map[uint64][]*buildRow, aggRes *agg.Result, postPred expr.Predicate, combinedWidth int, ex *exec.Ctx) {
	probeNeed := append(append([]int{}, probe.need...), probe.joinCol)
	keyIdx := len(probeNeed) - 1
	type partial struct{ res *agg.Result }
	combined := make([][]value.Value, ex.Workers(t.NumBlocks()))
	colstore.ReduceBatches(t, probe.pred, probeNeed, ex, func() *partial { return &partial{} },
		func(w int, p *partial, rids []int32, colVals [][]value.Value) bool {
			if p.res == nil {
				p.res = agg.NewResult(q.Aggs, q.GroupBy)
			}
			if combined[w] == nil {
				combined[w] = make([]value.Value, combinedWidth)
			}
			row := combined[w]
			for k := range rids {
				kv := colVals[keyIdx][k]
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
						p.res.AddRow(row)
					}
				}
			}
			return true
		},
		func(p *partial) {
			aggRes.Merge(p.res)
			p.res = nil
		})
}
