package engine

import (
	"fmt"
	"sort"

	"hybridstore/internal/query"
	"hybridstore/internal/value"
)

// scanCancelBatch is how many callback rows a context-aware scan
// processes between cancellation polls — the engine-side batch boundary
// (the column store streams blocks of the same size underneath).
const scanCancelBatch = 1024

// orderCols extracts the column indexes of an ORDER BY clause.
func orderCols(order []query.Order) []int {
	cols := make([]int, len(order))
	for i, o := range order {
		cols[i] = o.Col
	}
	return cols
}

// unionCols returns cols plus any extras not already present, preserving
// cols' order (projection positions must not move). The result is a
// fresh slice.
func unionCols(cols, extras []int) []int {
	out := append(make([]int, 0, len(cols)+len(extras)), cols...)
	for _, e := range extras {
		found := false
		for _, c := range out {
			if c == e {
				found = true
				break
			}
		}
		if !found {
			out = append(out, e)
		}
	}
	return out
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

// sortRowsByKeys stably sorts rows by their parallel key tuples.
func sortRowsByKeys(rows, keys [][]value.Value, order []query.Order) {
	idx := make([]int, len(rows))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(i, j int) bool {
		return compareKeys(keys[idx[i]], keys[idx[j]], order) < 0
	})
	permuted := make([][]value.Value, len(rows))
	for i, j := range idx {
		permuted[i] = rows[j]
	}
	copy(rows, permuted)
}

// rowSink gathers a SELECT's output from a row-at-a-time scan under the
// statement's ORDER BY and LIMIT: a planned top-K keeps the k best rows in
// a bounded heap — building an output row only once its sort key is
// admitted — a plain ORDER BY keeps every row with its sort key, and a
// bare LIMIT says when the output is full. Rows arrive indexed by the
// statement's columns, in the serial scan order ties are broken by.
type rowSink struct {
	q          *query.Query
	cols       []int
	acc        *topKAcc // nil unless the plan has a top-K
	key        []value.Value
	rows, keys [][]value.Value
	seq        int64
}

func newRowSink(q *query.Query, cols []int, topK bool) *rowSink {
	s := &rowSink{q: q, cols: cols, key: make([]value.Value, len(q.OrderBy))}
	if topK {
		s.acc = newTopK(q.Limit, q.OrderBy)
	}
	return s
}

// add offers one row; false means the output is complete.
func (s *rowSink) add(row []value.Value) bool {
	for i, o := range s.q.OrderBy {
		s.key[i] = row[o.Col]
	}
	switch {
	case s.acc != nil:
		if s.acc.Admits(s.key, s.seq) {
			s.acc.Add(projectRow(row, s.cols), s.key, s.seq)
		}
		s.seq++
	case len(s.key) > 0:
		s.rows = append(s.rows, projectRow(row, s.cols))
		s.keys = append(s.keys, append([]value.Value(nil), s.key...))
	default:
		s.rows = append(s.rows, projectRow(row, s.cols))
		return s.q.Limit <= 0 || len(s.rows) < s.q.Limit
	}
	return true
}

// finish returns the gathered rows in output order.
func (s *rowSink) finish() [][]value.Value {
	switch {
	case s.acc != nil:
		return s.acc.Finish()
	case len(s.key) > 0:
		sortRowsByKeys(s.rows, s.keys, s.q.OrderBy)
		if s.q.Limit > 0 && len(s.rows) > s.q.Limit {
			s.rows = s.rows[:s.q.Limit]
		}
	}
	return s.rows
}

// projectRow returns a fresh row holding the given columns of row.
func projectRow(row []value.Value, cols []int) []value.Value {
	out := make([]value.Value, len(cols))
	for i, c := range cols {
		out[i] = row[c]
	}
	return out
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
