// Package plan defines the explicit physical plan IR for read
// statements: typed operator nodes (Scan, Filter, Project, HashJoin,
// Aggregate, Sort, TopK, Limit) that the planner lowers a query.Query
// into and the engine executes. Every read is one pipeline:
//
//	source → [aggregate] → [order/limit] → [project]
//
// The source is a Scan of the statement's one table, or a HashJoin of two
// Scans with a Filter of the conjuncts that span both. An aggregate, with
// or without a join, is ordered and limited by the same operators as a
// select: TopK for ORDER BY + LIMIT, Sort for a bare ORDER BY, Limit for a
// bare LIMIT. Only a select is projected. Each node carries the planner's
// cost and cardinality estimate so EXPLAIN can render the chosen plan and
// EXPLAIN ANALYZE can compare estimates to actuals (spans are tagged with
// the node id).
//
// Plans are generic: the structural decisions (build side, predicate
// pushdown, top-K vs. full sort) depend only on the statement's shape
// and the catalog state, never on bound parameter values. The executor
// re-derives the concrete predicate fragments from the bound query at
// execution time, so one cached plan serves every parameter binding of
// a prepared statement. The node predicates stored here are the
// planning-time shapes, kept for costing and display.
package plan

import (
	"fmt"
	"strings"

	"hybridstore/internal/agg"
	"hybridstore/internal/catalog"
	"hybridstore/internal/expr"
	"hybridstore/internal/query"
)

// Estimate is the planner's prediction for one node: output cardinality
// and cumulative cost (children included) in model nanoseconds.
type Estimate struct {
	Rows   float64
	CostNs float64
}

// Node is one physical operator in a plan tree.
type Node interface {
	// ID is the node's plan-unique id; EXPLAIN ANALYZE spans are tagged
	// with it ("scan#1") so estimates can be lined up with actuals.
	ID() int
	// Kind names the operator ("scan", "hashjoin", ...).
	Kind() string
	// Inputs returns the node's inputs, build side first for joins; nil
	// where it has fewer than two.
	Inputs() (Node, Node)
	// Estimate returns the planner's cost/cardinality prediction.
	Estimate() Estimate
	// Detail renders operator-specific attributes for EXPLAIN.
	Detail() string
}

// base carries the id and estimate shared by every node.
type base struct {
	id  int
	est Estimate
}

func (b *base) ID() int            { return b.id }
func (b *base) Estimate() Estimate { return b.est }

// Scan reads one table's storage, evaluating a pushed-down predicate
// inside the scan kernels (zone maps, dictionary codes) and
// materializing only Cols.
type Scan struct {
	base
	Table string
	Store catalog.StoreKind
	Pred  expr.Predicate // planning-time shape; nil = full scan
	Cols  []int          // table-local columns the scan materializes
}

func (*Scan) Kind() string           { return "scan" }
func (s *Scan) Inputs() (Node, Node) { return nil, nil }
func (s *Scan) Detail() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s store=%s", s.Table, s.Store)
	if s.Pred != nil {
		fmt.Fprintf(&b, " pred=%s", s.Pred)
	}
	fmt.Fprintf(&b, " cols=%v", s.Cols)
	return b.String()
}

// Filter evaluates a residual predicate that could not be pushed into a
// scan (e.g. a post-join conjunct referencing both sides).
type Filter struct {
	base
	Input Node
	Pred  expr.Predicate
}

func (*Filter) Kind() string           { return "filter" }
func (f *Filter) Inputs() (Node, Node) { return f.Input, nil }
func (f *Filter) Detail() string       { return fmt.Sprintf("pred=%s", f.Pred) }

// Project narrows rows to the statement's output columns.
type Project struct {
	base
	Input Node
	Cols  []int
}

func (*Project) Kind() string           { return "project" }
func (p *Project) Inputs() (Node, Node) { return p.Input, nil }
func (p *Project) Detail() string       { return fmt.Sprintf("cols=%v", p.Cols) }

// HashJoin is an equi-join: Build is materialized into a hash table,
// Probe streams against it. Column references above the join use
// combined indexing (left columns first, then right).
type HashJoin struct {
	base
	Build, Probe Node
	// BuildIsLeft records which query side builds: true when the
	// statement's left table (q.Table) is the build side.
	BuildIsLeft       bool
	LeftCol, RightCol int
}

func (*HashJoin) Kind() string           { return "hashjoin" }
func (j *HashJoin) Inputs() (Node, Node) { return j.Build, j.Probe }
func (j *HashJoin) Detail() string {
	side := "right"
	if j.BuildIsLeft {
		side = "left"
	}
	return fmt.Sprintf("on left.%d = right.%d build=%s", j.LeftCol, j.RightCol, side)
}

// Aggregate computes grouped aggregates over its input.
type Aggregate struct {
	base
	Input   Node
	Specs   []agg.Spec
	GroupBy []int
}

func (*Aggregate) Kind() string           { return "aggregate" }
func (a *Aggregate) Inputs() (Node, Node) { return a.Input, nil }
func (a *Aggregate) Detail() string {
	names := make([]string, len(a.Specs))
	for i, s := range a.Specs {
		if s.Col < 0 {
			names[i] = s.Func.String() + "(*)"
		} else {
			names[i] = fmt.Sprintf("%s(%d)", s.Func, s.Col)
		}
	}
	if len(a.GroupBy) == 0 {
		return strings.Join(names, ",")
	}
	return fmt.Sprintf("%s group by %v", strings.Join(names, ","), a.GroupBy)
}

// Sort fully orders its input by Keys (stable; ties keep arrival order).
type Sort struct {
	base
	Input Node
	Keys  []query.Order
}

func (*Sort) Kind() string           { return "sort" }
func (s *Sort) Inputs() (Node, Node) { return s.Input, nil }
func (s *Sort) Detail() string       { return orderDetail(s.Keys) }

// TopK replaces Sort+Limit: a bounded heap retains the K smallest rows
// under (Keys, arrival order) in one pass with O(K) memory — the exact
// prefix a stable sort followed by LIMIT K would produce.
type TopK struct {
	base
	Input Node
	Keys  []query.Order
	K     int
}

func (*TopK) Kind() string           { return "topk" }
func (t *TopK) Inputs() (Node, Node) { return t.Input, nil }
func (t *TopK) Detail() string       { return fmt.Sprintf("%s k=%d", orderDetail(t.Keys), t.K) }

// Limit truncates its input after N rows (unordered: the scan
// short-circuits as soon as N rows matched).
type Limit struct {
	base
	Input Node
	N     int
}

func (*Limit) Kind() string           { return "limit" }
func (l *Limit) Inputs() (Node, Node) { return l.Input, nil }
func (l *Limit) Detail() string       { return fmt.Sprintf("n=%d", l.N) }

func orderDetail(keys []query.Order) string {
	parts := make([]string, len(keys))
	for i, o := range keys {
		dir := "asc"
		if o.Desc {
			dir = "desc"
		}
		parts[i] = fmt.Sprintf("%d %s", o.Col, dir)
	}
	return "by " + strings.Join(parts, ", ")
}

// Plan is one planned read statement: the operator tree, which records
// the structural decisions the executor reads — a HashJoin's build side,
// and whether single-side conjuncts are pushed into its Scans (a Scan
// carries a predicate only then).
type Plan struct {
	Root Node

	// CatalogVersion is the catalog.Catalog.Version the plan was built
	// against; caches compare it to decide whether the plan is stale.
	CatalogVersion uint64
}

// Estimate returns the root node's estimate (whole-statement cost).
func (p *Plan) Estimate() Estimate {
	if p == nil || p.Root == nil {
		return Estimate{}
	}
	return p.Root.Estimate()
}

// Walk visits the tree pre-order (parent before children, build before
// probe), passing each node's depth.
func Walk(n Node, fn func(n Node, depth int)) {
	walk(n, 0, fn)
}

func walk(n Node, depth int, fn func(Node, int)) {
	if n == nil {
		return
	}
	fn(n, depth)
	a, b := n.Inputs()
	walk(a, depth+1, fn)
	walk(b, depth+1, fn)
}

// String renders the plan tree one node per line, indented by depth.
func (p *Plan) String() string {
	var b strings.Builder
	Walk(p.Root, func(n Node, depth int) {
		est := n.Estimate()
		fmt.Fprintf(&b, "%s%s#%d (rows=%.0f cost=%.0fns) %s\n",
			strings.Repeat("  ", depth), n.Kind(), n.ID(), est.Rows, est.CostNs, n.Detail())
	})
	return b.String()
}
