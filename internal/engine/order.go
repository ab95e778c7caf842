package engine

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"hybridstore/internal/agg"
	"hybridstore/internal/exec"
	"hybridstore/internal/query"
	"hybridstore/internal/value"
)

// orderCols extracts the column indexes of an ORDER BY clause.
func orderCols(order []query.Order) []int {
	cols := make([]int, len(order))
	for i, o := range order {
		cols[i] = o.Col
	}
	return cols
}

// unionCols returns cols plus any extras not already present, preserving
// cols' order (projection positions must not move); cols itself when it
// has them all.
func unionCols(cols, extras []int) []int {
	for _, e := range extras {
		if !slices.Contains(cols, e) {
			cols = append(slices.Clip(cols), e)
		}
	}
	return cols
}

// compareKeys orders two extracted key tuples under the ORDER BY
// directions. NULLs sort first ascending (value.Compare's order).
func compareKeys(a, b []value.Value, order []query.Order) int {
	for i, o := range order {
		c := value.Compare(a[i], b[i])
		if c == 0 {
			continue
		}
		if o.Desc {
			return -c
		}
		return c
	}
	return 0
}

// blockParts keeps what each scan block produced, per worker, tagged with
// the block's seq, and hands it back in seq order — the order of a serial
// scan — whichever worker took which block.
type blockParts[P any] struct{ workers [][]seqPart[P] }

type seqPart[P any] struct {
	seq int
	p   P
}

// at returns block seq's part on worker w, a zero P when the block is new.
// A worker takes a block whole, so its blocks' rows arrive together.
func (b *blockParts[P]) at(w, seq int) *P {
	ps := b.workers[w]
	if n := len(ps); n > 0 && ps[n-1].seq == seq {
		return &ps[n-1].p
	}
	b.workers[w] = append(ps, seqPart[P]{seq: seq})
	return &b.workers[w][len(ps)].p
}

// inOrder returns the parts in seq order. A worker's blocks arrive in
// seq order, so one worker's parts already are.
func (b *blockParts[P]) inOrder() []seqPart[P] {
	if len(b.workers) == 1 {
		return b.workers[0]
	}
	all := slices.Concat(b.workers...)
	slices.SortFunc(all, func(x, y seqPart[P]) int { return cmp.Compare(x.seq, y.seq) })
	return all
}

// aggregateBlocks folds the rows a block scan offers into res: each block
// into a partial result of its own, the partials merged in seq order, so
// the result does not depend on the pool size.
func aggregateBlocks(res *agg.Result, ex *exec.Ctx, scan func(add func(w, seq int, row []value.Value) bool)) {
	parts := blockParts[*agg.Result]{workers: make([][]seqPart[*agg.Result], maxWorkers(ex))}
	scan(func(w, seq int, row []value.Value) bool {
		p := parts.at(w, seq)
		if *p == nil {
			*p = agg.NewResult(res.Specs, res.GroupCols)
		}
		(*p).AddRow(row)
		return true
	})
	for _, p := range parts.inOrder() {
		res.Merge(p.p)
	}
}

// rowCollector gathers a SELECT's output from a block scan — the one
// collector of every layout and of joins. Blocks are offered on any
// worker, so the output, ties of the ORDER BY included, follows their seq
// and not which worker took which block. A planned top-K keeps each
// worker's k best rows in a bounded heap — building an output row only
// once its sort key is admitted — a plain ORDER BY keeps every row with
// its sort key after its output columns, and a bare LIMIT, whose scan runs
// serially, says when the output is full. A block's columns are read at
// positions: out for the output columns, key for the ORDER BY keys.
type rowCollector struct {
	q        *query.Query
	out, key []int
	blocks   blockParts[rowBlock]
	heaps    []*topKAcc // per worker; nil without a top-K
	gathered int        // rows kept under a bare LIMIT
}

// rowBlock is what one scan block gave a collector: how many rows it
// offered, and the rows it kept.
type rowBlock struct {
	offered int
	rows    [][]value.Value
}

// newRowCollector returns a collector for q, whose blocks hold columns
// cols, the nOut output columns first, and the context its scan runs on:
// serially under a bare LIMIT (no ORDER BY), which can stop the scan once
// the first rows are in.
func newRowCollector(q *query.Query, nOut int, cols []int, topK bool, ex *exec.Ctx) (*rowCollector, *exec.Ctx) {
	if q.Limit > 0 && len(q.OrderBy) == 0 {
		ex = ex.Serial()
	}
	pos := make([]int, nOut+len(q.OrderBy)) // the output columns, then the sort keys
	for i := range pos {
		if pos[i] = i; i >= nOut {
			pos[i] = slices.Index(cols, q.OrderBy[i-nOut].Col)
		}
	}
	c := &rowCollector{q: q, out: pos, key: pos[nOut:], blocks: blockParts[rowBlock]{workers: make([][]seqPart[rowBlock], maxWorkers(ex))}}
	if topK {
		c.out, c.heaps = pos[:nOut], make([]*topKAcc, maxWorkers(ex))
		for w := range c.heaps {
			c.heaps[w] = newTopK(q.Limit, q.OrderBy)
		}
	}
	return c, ex
}

// add offers the rows of block seq on worker w; false means the output is
// complete.
func (c *rowCollector) add(w, seq int, colVals [][]value.Value) bool {
	b, n, m := c.blocks.at(w, seq), len(colVals[0]), len(c.out)
	var flat []value.Value // the block's rows, in one array
	if c.heaps == nil {
		flat = make([]value.Value, n*m)
		b.rows = slices.Grow(b.rows, n)
	}
	for k := 0; k < n; k++ {
		arrival := int64(seq)<<32 | int64(b.offered)
		b.offered++
		if c.heaps != nil {
			h := c.heaps[w]
			for i, p := range c.key {
				h.cand[i] = colVals[p][k]
			}
			if h.Admits(h.cand, arrival) {
				h.Add(pick(make([]value.Value, m), colVals, c.out, k), h.cand, arrival)
			}
			continue
		}
		b.rows = append(b.rows, pick(flat[k*m:(k+1)*m:(k+1)*m], colVals, c.out, k))
		if c.q.Limit > 0 && len(c.key) == 0 { // a bare LIMIT: the scan is serial
			if c.gathered++; c.gathered >= c.q.Limit {
				return false
			}
		}
	}
	return true
}

// finish returns the gathered rows in output order, and how many rows the
// scan offered.
func (c *rowCollector) finish() (rows [][]value.Value, offered int64) {
	for i, b := range c.blocks.inOrder() {
		if offered += int64(b.p.offered); i == 0 {
			rows = b.p.rows // a lone block's rows need no copy
		} else {
			rows = append(rows, b.p.rows...)
		}
	}
	switch n := len(c.out) - len(c.key); {
	case c.heaps != nil:
		acc := newTopK(c.q.Limit, c.q.OrderBy)
		for _, h := range c.heaps {
			acc.Merge(h)
		}
		rows = acc.Finish()
	case len(c.key) > 0:
		slices.SortStableFunc(rows, func(a, b []value.Value) int { return compareKeys(a[n:], b[n:], c.q.OrderBy) })
		for i, row := range rows {
			rows[i] = row[:n:n]
		}
	}
	if c.q.Limit > 0 && len(rows) > c.q.Limit {
		rows = rows[:c.q.Limit]
	}
	return rows, offered
}

// pick fills dst with row k of a block's columns at positions pos.
func pick(dst []value.Value, colVals [][]value.Value, pos []int, k int) []value.Value {
	for i, p := range pos {
		dst[i] = colVals[p][k]
	}
	return dst
}

// sortAggRows sorts an aggregate result's rows by its ORDER BY keys,
// which must be group-by columns (result rows lead with the group key in
// q.GroupBy order).
func sortAggRows(rows [][]value.Value, q *query.Query) error {
	if len(q.OrderBy) == 0 {
		return nil
	}
	pos := make([]int, len(q.OrderBy))
	for i, o := range q.OrderBy {
		pos[i] = -1
		for gi, g := range q.GroupBy {
			if g == o.Col {
				pos[i] = gi
				break
			}
		}
		if pos[i] < 0 {
			return fmt.Errorf("engine: ORDER BY column %d of an aggregate must be grouped", o.Col)
		}
	}
	sort.SliceStable(rows, func(i, j int) bool {
		for k, p := range pos {
			c := value.Compare(rows[i][p], rows[j][p])
			if c == 0 {
				continue
			}
			if q.OrderBy[k].Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	return nil
}
