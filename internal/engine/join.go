package engine

import (
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
	"hybridstore/internal/schema"
	"hybridstore/internal/trace"
	"hybridstore/internal/value"
)

// hashJoin is a read's equi-join source, in combined column indexing (the
// left table's columns, then the right's): the build table's matching rows,
// materialized once, and the probe table's scan matched against them. The
// plan decides which table builds and whether single-side conjuncts are
// pushed below the join; the concrete predicate fragments are re-derived
// from the bound query (the classification is structural, so a cached
// generic plan and the bound statement always agree).
type hashJoin struct {
	probe, build joinSide
	right        *schema.Table
	buildNeed    []int          // build columns materialized, the join key last
	post         expr.Predicate // conjuncts evaluated on the joined row
	width        int            // of the joined row

	// Built by open: the build side as a hash table by join key, or, for
	// an aggregate on the dense kernel, as a star join.
	hash      map[uint64][]*buildRow
	star      *starJoin
	buildRows int64
	probed    atomic.Int64 // probe rows seen
}

// newHashJoin sets up the join of q's two tables as the plan's join hj
// says; left is q.Table's runtime. A side whose version overlay contributes
// rows at the statement's snapshot scans serially through the merged view.
func (db *Database) newHashJoin(q *query.Query, hj *plan.HashJoin, snap stmtSnap, left *tableRuntime) (*hashJoin, error) {
	right, err := db.runtime(q.Join.Table)
	if err != nil {
		return nil, err
	}
	nL, nR := left.entry.Schema.NumColumns(), right.entry.Schema.NumColumns()
	if q.Join.LeftCol < 0 || q.Join.LeftCol >= nL || q.Join.RightCol < 0 || q.Join.RightCol >= nR {
		return nil, fmt.Errorf("engine: join columns out of range")
	}
	var leftPred, rightPred, post expr.Predicate = nil, nil, q.Pred
	if hj.Build.(*plan.Scan).Pred != nil || hj.Probe.(*plan.Scan).Pred != nil { // pushed down
		leftPred, rightPred, post = plan.SplitJoinPred(q.Pred, nL, nR)
	}
	needL, needR := plan.JoinNeededCols(q, nL, nR)
	ls := joinSide{rt: left, view: db.tableView(left, snap.ts, snap.tx),
		pred: leftPred, need: needL, joinCol: q.Join.LeftCol, width: nL, offset: 0}
	rs := joinSide{rt: right, view: db.tableView(right, snap.ts, snap.tx),
		pred: rightPred, need: needR, joinCol: q.Join.RightCol, width: nR, offset: nL}
	j := &hashJoin{probe: ls, build: rs, right: right.entry.Schema, post: post, width: nL + nR}
	if hj.BuildIsLeft {
		j.probe, j.build = rs, ls
	}
	// Join keys of two whole-number types compare by numeric value: the
	// build key is brought to the probe column's type where it is read.
	j.build.keyType = j.probe.rt.entry.Schema.Columns[j.probe.joinCol].Type
	if bt := j.build.rt.entry.Schema.Columns[j.build.joinCol].Type; !value.JoinComparable(bt, j.build.keyType) {
		return nil, fmt.Errorf("engine: cannot join columns of types %s and %s", bt, j.build.keyType)
	}
	j.buildNeed = append(slices.Clip(j.build.need), j.build.joinCol)
	return j, nil
}

// dense reports whether the aggregate q runs on the column store's dense
// kernel as a star join: the probe table is one full-width column part, no
// conjunct spans both tables, and the shape is a star's (starJoinShape).
func (j *hashJoin) dense(q *query.Query) bool {
	return j.probe.rt.store.column() != nil && j.post == nil && starJoinShape(q, &j.probe, &j.build)
}

// open builds the build side: the star join's resolution into the probe
// column's dictionary when star is set, else a hash table of the needed
// columns of the matching build rows.
func (j *hashJoin) open(q *query.Query, star bool, ex *exec.Ctx) {
	if star {
		j.star = newStarJoin(j.probe.rt.store.column(), q, &j.probe, &j.build, j.buildNeed, ex)
		j.buildRows = j.star.buildRows
		return
	}
	j.hash, j.buildRows = buildJoinHash(&j.build, j.buildNeed, ex)
}

// aggregate runs the star join's probe through the dense kernel into a
// result of q, whose joined rows have column types types.
func (j *hashJoin) aggregate(q *query.Query, types []value.Type, ex *exec.Ctx) *agg.Result {
	ar := agg.NewResult(q.Aggs, q.GroupBy)
	ar.SetOutputTypes(types)
	j.probed.Store(j.star.probe(ar, j.probe.pred, ex))
	return ar
}

// tag reports the join's probe kind and row counts on the statement's
// join span.
func (j *hashJoin) tag(tr *trace.Trace) {
	sp := tr.Span("join")
	if j.star != nil {
		mJoinDense.Inc()
		sp.Tag("probe", "dense")
		sp.Add("build_keys_resolved", j.star.resolved)
	} else {
		mJoinGeneric.Inc()
		sp.Tag("probe", "generic")
	}
	sp.Add("build_rows", j.buildRows)
	sp.Add("probe_rows", j.probed.Load())
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
// conjuncts, is one the dense kernel covers: the build side joins on its
// primary key — so a probe key meets at most one build row, the star-schema
// shape — every group column lives on the build side, and MIN/MAX read
// probe-side columns only (the kernel tracks extrema by dictionary code).
func starJoinShape(q *query.Query, probe, build *joinSide) bool {
	pk := build.rt.entry.Schema.PrimaryKey
	if len(pk) != 1 || pk[0] != build.joinCol {
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

// scan is the probe side run through the build side's hash table, as a
// block source of combined-row columns cols: joined block i holds the
// combined rows of probe block i's matches that pass the post-join
// conjuncts.
func (j *hashJoin) scan(cols []int, ex *exec.Ctx) exec.Blocks {
	probe, build := &j.probe, &j.build
	probeNeed := append(slices.Clip(probe.need), probe.joinCol)
	keyIdx := len(probeNeed) - 1
	in := mergedScan(probe.rt, probe.view, probe.pred, probeNeed, ex)
	return joinedBlocks(in, ex, j.width, cols, func(colVals [][]value.Value, jw *joinWorker) {
		j.probed.Add(int64(len(colVals[keyIdx])))
		row := jw.row
		for k, kv := range colVals[keyIdx] {
			if kv.IsNull() {
				continue
			}
			matches := j.hash[kv.Hash()]
			if len(matches) == 0 {
				continue
			}
			for i, c := range probeNeed {
				row[probe.offset+c] = colVals[i][k]
			}
			for _, m := range matches {
				if !value.Equal(m.key, kv) {
					continue // hash collision
				}
				for _, c := range j.buildNeed {
					row[build.offset+c] = m.vals[c]
				}
				if j.post == nil || j.post.Matches(row) {
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
	row   []value.Value // the combined row
	cols  []int
	out   [][]value.Value // the block's columns cols
	slots []int32         // a vertical split's row-part slots of the block's rows
}

// put appends the combined row's columns to the block.
func (jw *joinWorker) put() {
	for j, c := range jw.cols {
		jw.out[j] = append(jw.out[j], jw.row[c])
	}
}
