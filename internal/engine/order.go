package engine

import (
	"slices"

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

// rowCollector gathers a read's output from a block scan — the one
// collector of every layout, of joins and of an ordered or limited
// aggregate's groups. Blocks run on any worker, so the
// output, ties of the ORDER BY included, follows their numbers and not
// which worker took which block: block i's rows are kept in slot i. A
// planned top-K keeps each worker's k best rows in a bounded heap —
// building an output row only once its sort key is admitted — a plain
// ORDER BY keeps every row with its sort key after its output columns, and
// a bare LIMIT runs the blocks in order on one worker and stops once the
// first rows are in. A block's columns are read at positions: out for the
// output columns, key for the ORDER BY keys.
type rowCollector struct {
	q        *query.Query
	out, key []int
	blocks   []rowBlock
	heaps    []*topKAcc // per worker; nil without a top-K
	gathered int        // rows kept under a bare LIMIT
}

// collectRows runs the blocks of b, which hold columns cols, the nOut
// output columns first, into a collector for q.
func collectRows(q *query.Query, nOut int, cols []int, topK bool, b exec.Blocks) *rowCollector {
	pos := make([]int, nOut+len(q.OrderBy)) // the output columns, then the sort keys
	for i := range pos {
		if pos[i] = i; i >= nOut {
			pos[i] = slices.Index(cols, q.OrderBy[i-nOut].Col)
		}
	}
	c := &rowCollector{q: q, out: pos, key: pos[nOut:], blocks: make([]rowBlock, b.N)}
	if q.Limit > 0 && len(q.OrderBy) == 0 {
		b.Ctx = b.Ctx.Serial()
	}
	if topK {
		c.out, c.heaps = pos[:nOut], make([]*topKAcc, b.Ctx.Workers(b.N))
		for w := range c.heaps {
			c.heaps[w] = newTopK(q.Limit, q.OrderBy)
		}
	}
	b.Each(c.add)
	return c
}

// rowBlock is what one block gave a collector: how many rows it offered,
// and the rows it kept.
type rowBlock struct {
	offered int
	rows    [][]value.Value
}

// add takes block i's rows on worker w; false means the output is
// complete.
func (c *rowCollector) add(w, i int, colVals [][]value.Value) bool {
	n, m := len(colVals[0]), len(c.out)
	if c.heaps != nil {
		c.blocks[i].offered = n
		h := c.heaps[w]
		for k := 0; k < n; k++ {
			for j, p := range c.key {
				h.cand[j] = colVals[p][k]
			}
			if arrival := int64(i)<<32 | int64(k); h.Admits(h.cand, arrival) {
				h.Add(pick(make([]value.Value, m), colVals, c.out, k), h.cand, arrival)
			}
		}
		return true
	}
	bare := c.q.Limit > 0 && len(c.key) == 0 // the blocks run in order on one worker
	if bare {
		n = min(n, c.q.Limit-c.gathered)
		c.gathered += n
	}
	flat, rows := make([]value.Value, n*m), make([][]value.Value, n)
	for k := range rows {
		rows[k] = pick(flat[k*m:(k+1)*m:(k+1)*m], colVals, c.out, k)
	}
	c.blocks[i] = rowBlock{n, rows}
	return !bare || c.gathered < c.q.Limit
}

// finish returns the gathered rows in output order, and how many rows the
// scan offered.
func (c *rowCollector) finish() (rows [][]value.Value, offered int64) {
	for _, b := range c.blocks {
		if offered += int64(b.offered); rows == nil {
			rows = b.rows // a lone block's rows need no copy
		} else {
			rows = append(rows, b.rows...)
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
