// Package query defines the logical query model of the engine and the
// workload abstraction the storage advisor analyzes. A Query carries
// exactly the "query characteristics" the paper's cost model consumes:
// the query type, the aggregates and their functions, the grouping, the
// predicate (selectivity, referenced attributes), the affected columns of
// updates and the joined tables.
package query

import (
	"fmt"
	"strings"

	"hybridstore/internal/agg"
	"hybridstore/internal/expr"
	"hybridstore/internal/value"
)

// Kind is the query type; the paper's cost model picks base costs by it.
type Kind uint8

const (
	// Aggregate is an OLAP aggregation query (SUM/AVG/... with optional
	// GROUP BY and WHERE).
	Aggregate Kind = iota
	// Select is an OLTP point or range selection returning tuples.
	Select
	// Insert appends new tuples.
	Insert
	// Update modifies attribute values of matching tuples.
	Update
	// Delete removes matching tuples.
	Delete
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Aggregate:
		return "AGGREGATE"
	case Select:
		return "SELECT"
	case Insert:
		return "INSERT"
	case Update:
		return "UPDATE"
	case Delete:
		return "DELETE"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Join describes an equi-join with a second table. When a query has a
// join, all column indexes in Aggs, GroupBy, Cols and Pred refer to the
// combined row: the left table's columns first (0..nL-1), then the right
// table's (nL..nL+nR-1). LeftCol indexes the left schema; RightCol indexes
// the right schema locally.
type Join struct {
	Table    string
	LeftCol  int
	RightCol int
}

// Order is one ORDER BY key: a column index (combined indexing for
// joins) and a direction.
type Order struct {
	Col  int
	Desc bool
}

// String renders the key as "colN [DESC]".
func (o Order) String() string {
	if o.Desc {
		return fmt.Sprintf("col%d DESC", o.Col)
	}
	return fmt.Sprintf("col%d", o.Col)
}

// Query is one logical statement against the database.
type Query struct {
	Kind  Kind
	Table string

	// Aggregation (Kind == Aggregate).
	Aggs    []agg.Spec
	GroupBy []int

	// Selection (Kind == Select); nil Cols selects every column.
	Cols []int

	// Limit keeps the first Limit result rows of a Select or Aggregate,
	// after its ORDER BY; 0 means no limit.
	Limit int

	// OrderBy sorts the result rows (Select: any table columns;
	// Aggregate: must be group-by columns). LIMIT applies after the sort,
	// and NULLs order first ascending.
	OrderBy []Order

	// Filter for Aggregate/Select/Update/Delete.
	Pred expr.Predicate

	// Optional equi-join for Aggregate/Select.
	Join *Join

	// Insert payload (Kind == Insert).
	Rows [][]value.Value

	// Update assignments (Kind == Update): column index -> new value.
	Set map[int]value.Value
}

// IsOLAP reports whether the query is analytical (an aggregation); every
// other kind counts as OLTP in the paper's workload mixes.
func (q *Query) IsOLAP() bool { return q.Kind == Aggregate }

// Tables returns the referenced table names (1 or 2).
func (q *Query) Tables() []string {
	if q.Join != nil {
		return []string{q.Table, q.Join.Table}
	}
	return []string{q.Table}
}

// String renders a compact SQL-like description.
func (q *Query) String() string {
	var b strings.Builder
	switch q.Kind {
	case Aggregate:
		b.WriteString("SELECT ")
		for i, s := range q.Aggs {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(s.String())
		}
		fmt.Fprintf(&b, " FROM %s", q.Table)
		if q.Join != nil {
			fmt.Fprintf(&b, " JOIN %s ON l.col%d = r.col%d", q.Join.Table, q.Join.LeftCol, q.Join.RightCol)
		}
		if q.Pred != nil {
			fmt.Fprintf(&b, " WHERE %s", q.Pred)
		}
		if len(q.GroupBy) > 0 {
			b.WriteString(" GROUP BY ")
			for i, c := range q.GroupBy {
				if i > 0 {
					b.WriteString(", ")
				}
				fmt.Fprintf(&b, "col%d", c)
			}
		}
		writeOrderBy(&b, q.OrderBy)
		writeLimit(&b, q.Limit)
	case Select:
		b.WriteString("SELECT ")
		if q.Cols == nil {
			b.WriteString("*")
		} else {
			for i, c := range q.Cols {
				if i > 0 {
					b.WriteString(", ")
				}
				fmt.Fprintf(&b, "col%d", c)
			}
		}
		fmt.Fprintf(&b, " FROM %s", q.Table)
		if q.Join != nil {
			fmt.Fprintf(&b, " JOIN %s ON l.col%d = r.col%d", q.Join.Table, q.Join.LeftCol, q.Join.RightCol)
		}
		if q.Pred != nil {
			fmt.Fprintf(&b, " WHERE %s", q.Pred)
		}
		writeOrderBy(&b, q.OrderBy)
		writeLimit(&b, q.Limit)
	case Insert:
		fmt.Fprintf(&b, "INSERT INTO %s (%d rows)", q.Table, len(q.Rows))
	case Update:
		fmt.Fprintf(&b, "UPDATE %s SET %d columns", q.Table, len(q.Set))
		if q.Pred != nil {
			fmt.Fprintf(&b, " WHERE %s", q.Pred)
		}
	case Delete:
		fmt.Fprintf(&b, "DELETE FROM %s", q.Table)
		if q.Pred != nil {
			fmt.Fprintf(&b, " WHERE %s", q.Pred)
		}
	}
	return b.String()
}

func writeOrderBy(b *strings.Builder, order []Order) {
	for i, o := range order {
		if i == 0 {
			b.WriteString(" ORDER BY ")
		} else {
			b.WriteString(", ")
		}
		b.WriteString(o.String())
	}
}

func writeLimit(b *strings.Builder, limit int) {
	if limit > 0 {
		fmt.Fprintf(b, " LIMIT %d", limit)
	}
}

// Validate performs structural checks (kind-specific required fields).
func (q *Query) Validate() error {
	if q.Table == "" {
		return fmt.Errorf("query: no table")
	}
	if len(q.OrderBy) > 0 && q.Kind != Select && q.Kind != Aggregate {
		return fmt.Errorf("query: ORDER BY is only valid on SELECT queries")
	}
	switch q.Kind {
	case Aggregate:
		if len(q.Aggs) == 0 {
			return fmt.Errorf("query: aggregate without aggregates")
		}
		for _, o := range q.OrderBy {
			if !containsCol(q.GroupBy, o.Col) {
				return fmt.Errorf("query: ORDER BY column %d of an aggregate must be grouped", o.Col)
			}
		}
	case Insert:
		if len(q.Rows) == 0 {
			return fmt.Errorf("query: insert without rows")
		}
		if q.Join != nil {
			return fmt.Errorf("query: insert cannot join")
		}
	case Update:
		if len(q.Set) == 0 {
			return fmt.Errorf("query: update without assignments")
		}
		if q.Join != nil {
			return fmt.Errorf("query: update cannot join")
		}
	case Delete:
		if q.Join != nil {
			return fmt.Errorf("query: delete cannot join")
		}
	}
	return nil
}

func containsCol(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// Workload is a sequence of queries; the advisor estimates its total
// runtime under candidate storage layouts.
type Workload struct {
	Queries []*Query
}

// Add appends queries.
func (w *Workload) Add(qs ...*Query) { w.Queries = append(w.Queries, qs...) }

// Len returns the number of queries.
func (w *Workload) Len() int { return len(w.Queries) }

// OLAPFraction returns the fraction of analytical queries.
func (w *Workload) OLAPFraction() float64 {
	if len(w.Queries) == 0 {
		return 0
	}
	n := 0
	for _, q := range w.Queries {
		if q.IsOLAP() {
			n++
		}
	}
	return float64(n) / float64(len(w.Queries))
}

// Tables returns the sorted set of tables referenced by the workload.
func (w *Workload) Tables() []string {
	seen := map[string]struct{}{}
	var out []string
	for _, q := range w.Queries {
		for _, t := range q.Tables() {
			k := strings.ToLower(t)
			if _, ok := seen[k]; !ok {
				seen[k] = struct{}{}
				out = append(out, t)
			}
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
