package plan

import (
	"fmt"
	"math"
	"sort"

	"hybridstore/internal/catalog"
	"hybridstore/internal/costmodel"
	"hybridstore/internal/expr"
	"hybridstore/internal/query"
	"hybridstore/internal/schema"
)

// TableMeta is the planner's view of one table: everything the cost
// model and cardinality estimation need, snapshotted by the engine under
// its read lock.
type TableMeta struct {
	Schema   *schema.Table
	Store    catalog.StoreKind
	Rows     int
	Stats    *catalog.TableStats // nil when statistics were never collected
	HasIndex func(col int) bool
}

// Env supplies the planner's inputs. Meta is only guaranteed valid for
// the duration of the Build call — the engine hands out closures that
// read runtime state under its lock.
type Env struct {
	// Meta resolves a table name to its current characteristics.
	Meta func(table string) (TableMeta, bool)
	// Model is the calibrated cost model used to cost scan and
	// aggregate work; nil leaves node costs at zero (plans still carry
	// cardinality estimates and structural decisions).
	Model *costmodel.Model
	// CatalogVersion is stamped into the plan for cache invalidation.
	CatalogVersion uint64
}

// Options force planner decisions; the zero value plans normally. The
// planner bench uses them to measure degraded baselines.
type Options struct {
	// DisablePushdown keeps every predicate conjunct above the join.
	DisablePushdown bool
	// ForceBuildLeft pins the hash-join build side (nil = cost-based).
	ForceBuildLeft *bool
	// DisableTopK forces ORDER BY + LIMIT through a full sort.
	DisableTopK bool
}

// defaultSel is assumed for a predicate on a table without collected
// statistics (matches expr's default).
const defaultSel = 0.1

// BuildOptions plans one read statement (Select or Aggregate, with or
// without a join) into a physical plan; opts forces planner decisions
// (the zero Options plans by cost alone).
func BuildOptions(q *query.Query, env Env, opts Options) (*Plan, error) {
	if q.Kind != query.Select && q.Kind != query.Aggregate {
		return nil, fmt.Errorf("plan: cannot plan %v statement", q.Kind)
	}
	b := &builder{q: q, env: env, opts: opts}
	src, err := b.source()
	if err != nil {
		return nil, err
	}
	return &Plan{Root: b.tail(src), CatalogVersion: env.CatalogVersion}, nil
}

type builder struct {
	q    *query.Query
	env  Env
	opts Options

	nextID int

	// The tables read: left is q.Table, right the joined table (zero
	// without a join); columns from nL on are the right table's.
	left, right TableMeta
	nL          int
	cols        []int // a select's output columns, in combined indexing
}

func (b *builder) id() int {
	b.nextID++
	return b.nextID
}

func (b *builder) node(est Estimate) base { return base{id: b.id(), est: est} }

// meta resolves a table or fails with the planner's unknown-table error.
func (b *builder) meta(table string) (TableMeta, error) {
	m, ok := b.env.Meta(table)
	if !ok || m.Schema == nil {
		return TableMeta{}, fmt.Errorf("plan: unknown table %q", table)
	}
	return m, nil
}

// selectivity estimates the fraction of m's rows matching pred from
// collected statistics, or the textbook default without them.
func selectivity(m TableMeta, pred expr.Predicate) float64 {
	if pred == nil {
		return 1
	}
	if m.Stats != nil {
		return expr.EstimateSelectivity(pred, m.Stats)
	}
	return defaultSel
}

// cost runs the calibrated cost model over a synthetic per-node query.
func (b *builder) cost(q *query.Query, m TableMeta) float64 {
	if b.env.Model == nil {
		return 0
	}
	info := func(string) (costmodel.TableInfo, bool) {
		ti := costmodel.TableInfo{
			Schema: m.Schema, Rows: m.Rows, Compression: 1, HasIndex: m.HasIndex,
		}
		if m.Stats != nil {
			ti.Stats = m.Stats
			ti.Compression = m.Stats.AvgCompression()
		}
		return ti, true
	}
	place := costmodel.Placement{}
	if q.Table != "" {
		place[lowerKey(q.Table)] = m.Store
	}
	return b.env.Model.EstimateQuery(q, info, place)
}

func lowerKey(s string) string {
	out := make([]byte, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		out[i] = c
	}
	return string(out)
}

// scanNode builds a Scan over table m materializing cols under pred.
func (b *builder) scanNode(table string, m TableMeta, pred expr.Predicate, cols []int, limit int) *Scan {
	rows := float64(m.Rows) * selectivity(m, pred)
	if limit > 0 && float64(limit) < rows {
		rows = float64(limit)
	}
	costQ := &query.Query{Kind: query.Select, Table: table, Cols: cols, Pred: pred, Limit: limit}
	s := &Scan{Table: table, Store: m.Store, Pred: pred, Cols: cols}
	s.base = b.node(Estimate{Rows: rows, CostNs: b.cost(costQ, m)})
	return s
}

// Per-row constants for the operators the calibrated model does not
// cover; display-grade estimates (the model costs the scans and
// aggregates, which dominate).
const (
	sortRowNs   = 50.0
	hashRowNs   = 40.0
	probeRowNs  = 25.0
	filterRowNs = 5.0
)

// source plans where the read's rows come from: a scan of its one table,
// or a hash join of its two tables.
func (b *builder) source() (Node, error) {
	q := b.q
	m, err := b.meta(q.Table)
	if err != nil {
		return nil, err
	}
	b.left, b.nL = m, m.Schema.NumColumns()
	if q.Join != nil {
		if b.right, err = b.meta(q.Join.Table); err != nil {
			return nil, err
		}
	}
	if b.cols = q.Cols; b.cols == nil && q.Kind == query.Select {
		b.cols = StarCols(b.left.Schema, b.right.Schema)
	}
	if q.Join != nil {
		return b.join()
	}
	if err := validateCols(q, b.nL, q.Table); err != nil {
		return nil, err
	}
	if q.Kind == query.Aggregate {
		// The storage layer fuses scan+aggregate into one kernel; the
		// plan keeps them as two nodes so the trace can attribute work.
		return b.scanNode(q.Table, m, q.Pred, sortedUnique(aggInputCols(q, nil)), 0), nil
	}
	cols, limit := b.cols, q.Limit
	if len(q.OrderBy) > 0 {
		// An ORDER BY must see every matching row, with its sort keys.
		cols, limit = unionCols(cols, orderByCols(q.OrderBy)), 0
	}
	return b.scanNode(q.Table, m, q.Pred, cols, limit), nil
}

// tail stacks what every read does with its source's rows: an aggregate
// groups them, the ordering and limit follow, and a select is projected.
func (b *builder) tail(cur Node) Node {
	q := b.q
	if q.Kind == query.Aggregate {
		in := cur.Estimate()
		cost := in.CostNs + in.Rows*float64(len(q.Aggs)+1)*filterRowNs
		if q.Join == nil {
			cost = b.cost(q, b.left) // the calibrated model prices a one-table aggregate whole
		}
		a := &Aggregate{Input: cur, Specs: q.Aggs, GroupBy: q.GroupBy}
		a.base = b.node(Estimate{Rows: b.groupCount(in.Rows), CostNs: cost})
		return b.orderLimit(a)
	}
	cur = b.orderLimit(cur)
	p := &Project{Input: cur, Cols: b.cols}
	p.base = b.node(cur.Estimate())
	return p
}

// orderLimit stacks the ordering/limiting operators over cur: TopK for
// ORDER BY + LIMIT (unless disabled), Sort for a bare ORDER BY, Limit
// for a bare LIMIT. A bare unordered LIMIT over a scan is estimated at
// the scan already (the scan short-circuits).
func (b *builder) orderLimit(cur Node) Node {
	keys, limit, in := b.q.OrderBy, b.q.Limit, cur.Estimate()
	switch {
	case len(keys) > 0 && limit > 0 && !b.opts.DisableTopK:
		rows := math.Min(in.Rows, float64(limit))
		t := &TopK{Input: cur, Keys: keys, K: limit}
		// One heap update per input row against a bounded heap.
		t.base = b.node(Estimate{Rows: rows, CostNs: in.CostNs + in.Rows*sortRowNs})
		return t
	case len(keys) > 0:
		s := &Sort{Input: cur, Keys: keys}
		s.base = b.node(Estimate{Rows: in.Rows, CostNs: in.CostNs + in.Rows*math.Log2(in.Rows+2)*sortRowNs})
		var out Node = s
		if limit > 0 {
			rows := math.Min(in.Rows, float64(limit))
			l := &Limit{Input: s, N: limit}
			l.base = b.node(Estimate{Rows: rows, CostNs: s.est.CostNs})
			out = l
		}
		return out
	case limit > 0:
		rows := math.Min(in.Rows, float64(limit))
		l := &Limit{Input: cur, N: limit}
		l.base = b.node(Estimate{Rows: rows, CostNs: in.CostNs})
		return l
	default:
		return cur
	}
}

// groupCount estimates the number of groups: the product of per-column
// distinct counts (capped by input rows), 1 for a global aggregate.
func (b *builder) groupCount(inRows float64) float64 {
	if len(b.q.GroupBy) == 0 {
		return 1
	}
	groups := 1.0
	for _, c := range b.q.GroupBy {
		m := b.left
		if c >= b.nL {
			m, c = b.right, c-b.nL
		}
		d := 0
		if m.Stats != nil {
			d = m.Stats.Distinct(c)
		}
		if d <= 0 {
			d = 100 // unknown: assume moderate cardinality
		}
		groups *= float64(d)
	}
	return math.Min(groups, math.Max(inRows, 1))
}

// join plans a two-table hash join, choosing the build side by estimated
// post-pushdown cardinality, pushing single-side conjuncts into the
// scans and filtering the joined rows by the conjuncts that span both.
func (b *builder) join() (Node, error) {
	q := b.q
	mL, mR, nL := b.left, b.right, b.nL
	nR := mR.Schema.NumColumns()
	if q.Join.LeftCol < 0 || q.Join.LeftCol >= nL || q.Join.RightCol < 0 || q.Join.RightCol >= nR {
		return nil, fmt.Errorf("plan: join columns out of range")
	}
	if err := validateCols(q, nL+nR, q.Table); err != nil {
		return nil, err
	}

	leftPred, rightPred, postPred := SplitJoinPred(q.Pred, nL, nR)
	if b.opts.DisablePushdown {
		leftPred, rightPred, postPred = nil, nil, q.Pred
	}
	needL, needR := JoinNeededCols(q, nL, nR)

	rowsL := float64(mL.Rows) * selectivity(mL, leftPred)
	rowsR := float64(mR.Rows) * selectivity(mR, rightPred)

	// Greedy statistics-light join ordering: the smaller estimated
	// (post-pushdown) input builds the hash table.
	buildLeft := rowsL < rowsR
	if b.opts.ForceBuildLeft != nil {
		buildLeft = *b.opts.ForceBuildLeft
	}

	scanL := b.scanNode(q.Table, mL, leftPred, withCol(needL, q.Join.LeftCol), 0)
	scanR := b.scanNode(q.Join.Table, mR, rightPred, withCol(needR, q.Join.RightCol), 0)
	build, probe := scanR, scanL
	buildMeta, buildCol := mR, q.Join.RightCol
	if buildLeft {
		build, probe = scanL, scanR
		buildMeta, buildCol = mL, q.Join.LeftCol
	}

	// Join cardinality: each probe row matches |build| / distinct(build
	// key) rows on average; an unknown distinct count assumes a key
	// (FK-style) join.
	d := 0
	if buildMeta.Stats != nil {
		d = buildMeta.Stats.Distinct(buildCol)
	}
	if d <= 0 {
		d = int(math.Max(build.est.Rows, 1))
	}
	joinRows := probe.est.Rows * build.est.Rows / float64(d)
	j := &HashJoin{
		Build: build, Probe: probe, BuildIsLeft: buildLeft,
		LeftCol: q.Join.LeftCol, RightCol: q.Join.RightCol,
	}
	j.base = b.node(Estimate{
		Rows: joinRows,
		CostNs: build.est.CostNs + probe.est.CostNs +
			build.est.Rows*hashRowNs + probe.est.Rows*probeRowNs,
	})
	if postPred == nil {
		return j, nil
	}
	// No cross-table statistics: assume the default selectivity.
	f := &Filter{Input: j, Pred: postPred}
	f.base = b.node(Estimate{
		Rows:   joinRows * defaultSel,
		CostNs: j.est.CostNs + joinRows*filterRowNs,
	})
	return f, nil
}

// validateCols checks every column reference of q against width n
// (combined width for joins).
func validateCols(q *query.Query, n int, table string) error {
	for _, c := range q.Cols {
		if c < 0 || c >= n {
			return fmt.Errorf("plan: select column %d out of range for %q", c, table)
		}
	}
	for _, o := range q.OrderBy {
		if o.Col < 0 || o.Col >= n {
			return fmt.Errorf("plan: order-by column %d out of range for %q", o.Col, table)
		}
	}
	for _, s := range q.Aggs {
		if s.Col >= n {
			return fmt.Errorf("plan: aggregate column %d out of range for %q", s.Col, table)
		}
	}
	for _, c := range q.GroupBy {
		if c < 0 || c >= n {
			return fmt.Errorf("plan: group-by column %d out of range for %q", c, table)
		}
	}
	for _, c := range expr.ColumnSet(q.Pred) {
		if c < 0 || c >= n {
			return fmt.Errorf("plan: predicate column %d out of range for %q", c, table)
		}
	}
	return nil
}

// aggInputCols collects the table-local columns an aggregate reads.
func aggInputCols(q *query.Query, dst []int) []int {
	for _, s := range q.Aggs {
		if s.Col >= 0 {
			dst = append(dst, s.Col)
		}
	}
	dst = append(dst, q.GroupBy...)
	dst = append(dst, expr.ColumnSet(q.Pred)...)
	return dst
}

func allCols(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// StarCols is what SELECT * projects, in combined indexing: the declared
// columns of left, then those of right (nil for a single-table read). A
// hidden row key (schema.RowKey) is never among them.
func StarCols(left, right *schema.Table) []int {
	cols := allCols(left.Visible())
	if right != nil {
		for c := 0; c < right.Visible(); c++ {
			cols = append(cols, left.NumColumns()+c)
		}
	}
	return cols
}

func orderByCols(keys []query.Order) []int {
	out := make([]int, len(keys))
	for i, o := range keys {
		out[i] = o.Col
	}
	return out
}

// unionCols appends the members of extra missing from cols, preserving
// cols' positions.
func unionCols(cols, extra []int) []int {
	out := append([]int{}, cols...)
	seen := make(map[int]struct{}, len(cols))
	for _, c := range cols {
		seen[c] = struct{}{}
	}
	for _, c := range extra {
		if _, ok := seen[c]; !ok {
			seen[c] = struct{}{}
			out = append(out, c)
		}
	}
	return out
}

func sortedUnique(cols []int) []int {
	sort.Ints(cols)
	out := cols[:0]
	for i, c := range cols {
		if i == 0 || c != out[len(out)-1] {
			out = append(out, c)
		}
	}
	return out
}

// withCol appends c to cols when absent (side-local scan column lists
// always include the join column).
func withCol(cols []int, c int) []int {
	return unionCols(cols, []int{c})
}

// SplitJoinPred partitions a combined-index predicate into conjuncts
// that reference only the left side (returned in left indexing), only
// the right side (remapped to right-local indexing), and the remainder
// evaluated post-join. The classification is purely structural — it
// depends on which columns a conjunct references, never on its bound
// values — so cached plans and fresh executions agree on it.
func SplitJoinPred(pred expr.Predicate, nL, nR int) (leftPred, rightPred, postPred expr.Predicate) {
	if pred == nil {
		return nil, nil, nil
	}
	var lefts, rights, posts []expr.Predicate
	rightMap := make(map[int]int, nR)
	for i := 0; i < nR; i++ {
		rightMap[nL+i] = i
	}
	identLeft := make(map[int]int, nL)
	for i := 0; i < nL; i++ {
		identLeft[i] = i
	}
	for _, c := range expr.Conjuncts(pred) {
		cols := expr.ColumnSet(c)
		side := sideOf(cols, nL)
		switch side {
		case 0:
			if p, ok := expr.Remap(c, identLeft); ok {
				lefts = append(lefts, p)
				continue
			}
			posts = append(posts, c)
		case 1:
			if p, ok := expr.Remap(c, rightMap); ok {
				rights = append(rights, p)
				continue
			}
			posts = append(posts, c)
		default:
			posts = append(posts, c)
		}
	}
	mk := func(ps []expr.Predicate) expr.Predicate {
		switch len(ps) {
		case 0:
			return nil
		case 1:
			return ps[0]
		default:
			return &expr.And{Preds: ps}
		}
	}
	return mk(lefts), mk(rights), mk(posts)
}

// sideOf returns 0 if all columns are left-side, 1 if all right-side,
// -1 if mixed or empty.
func sideOf(cols []int, nL int) int {
	if len(cols) == 0 {
		return -1
	}
	left, right := false, false
	for _, c := range cols {
		if c < nL {
			left = true
		} else {
			right = true
		}
	}
	switch {
	case left && !right:
		return 0
	case right && !left:
		return 1
	default:
		return -1
	}
}

// JoinNeededCols computes, per side, the columns a join query references
// (projection, aggregates, group-by, order-by, predicate) in side-local
// indexing, sorted ascending.
func JoinNeededCols(q *query.Query, nL, nR int) (needL, needR []int) {
	set := map[int]struct{}{}
	add := func(c int) { set[c] = struct{}{} }
	for _, c := range q.Cols {
		add(c)
	}
	if q.Kind == query.Select && q.Cols == nil {
		for c := 0; c < nL+nR; c++ {
			add(c)
		}
	}
	for _, s := range q.Aggs {
		if s.Col >= 0 {
			add(s.Col)
		}
	}
	for _, c := range q.GroupBy {
		add(c)
	}
	for _, o := range q.OrderBy {
		add(o.Col)
	}
	for _, c := range expr.ColumnSet(q.Pred) {
		add(c)
	}
	for c := range set {
		if c < nL {
			needL = append(needL, c)
		} else {
			needR = append(needR, c-nL)
		}
	}
	sort.Ints(needL)
	sort.Ints(needR)
	return needL, needR
}
