package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"hybridstore/internal/catalog"
	"hybridstore/internal/client"
	"hybridstore/internal/engine"
	"hybridstore/internal/server"
	"hybridstore/internal/value"
	"hybridstore/internal/workload"
)

// Statement classes of olap_scan, in the order one cycle issues them.
const (
	clsSum       = "sum"
	clsGroup     = "group"
	clsFiltered  = "filtered"
	clsTopK      = "topk"
	clsJoin      = "join"
	clsGroupPart = "group_part"
	clsProject   = "project"
	clsPoint     = "point"
)

var olapSQL = map[string]string{
	clsSum:       "SELECT SUM(k0), SUM(k3) FROM t",
	clsGroup:     "SELECT g1, SUM(k0), AVG(k3) FROM t GROUP BY g1",
	clsFiltered:  "SELECT g0, SUM(k1), COUNT(*) FROM t WHERE f0 = ? AND id BETWEEN ? AND ? GROUP BY g0",
	clsTopK:      "SELECT id, k0, k3 FROM t WHERE f3 = ? ORDER BY k0 DESC, id LIMIT 10",
	clsJoin:      "SELECT dim.d_g1, SUM(fact.k0) FROM fact JOIN dim ON fact.dimkey = dim.dkey WHERE fact.f0 < ? GROUP BY dim.d_g1",
	clsGroupPart: "SELECT g1, SUM(k0), AVG(k3) FROM tp GROUP BY g1",
	clsProject:   "SELECT id, k0, k1, k2, k3, f0, f1, g0 FROM t WHERE id BETWEEN ? AND ?",
	clsPoint:     "SELECT id, k0, k1, f0, g0 FROM t WHERE id = ?",
}

// olapCycle is one round of the client's loop: every analytic class
// once, then a handful of key lookups on the column table, as a
// dashboard interleaves reports with drill-downs to single records.
var olapCycle = []string{
	clsSum, clsGroup, clsFiltered, clsTopK, clsJoin, clsGroupPart, clsProject,
	clsPoint, clsPoint, clsPoint, clsPoint, clsPoint, clsPoint, clsPoint, clsPoint,
}

var olapScanClasses = []string{clsSum, clsGroup, clsFiltered, clsTopK, clsJoin, clsGroupPart, clsProject}

// olapVerify is how many results of each class the oracle checks.
const olapVerify = 24

// An olapStream generates the parameters of the client's statements from
// the seed.
type olapStream struct {
	rng  *rand.Rand
	rows int64
	i    int
}

func newOLAPStream(seed int64, rows int) *olapStream {
	return &olapStream{rng: rand.New(rand.NewSource(seed*1_000_003 + 77)), rows: int64(rows)}
}

// next returns the class and parameters of the next statement.
func (s *olapStream) next() (string, []value.Value) {
	class := olapCycle[s.i%len(olapCycle)]
	s.i++
	switch class {
	case clsFiltered:
		// A fifth of the key space: zone maps can prune the rest.
		span := s.rows / 5
		lo := s.rng.Int63n(s.rows - span)
		return class, []value.Value{value.NewInt(s.rng.Int63n(10)), value.NewBigint(lo), value.NewBigint(lo + span - 1)}
	case clsTopK:
		return class, []value.Value{value.NewInt(s.rng.Int63n(10))}
	case clsJoin:
		return class, []value.Value{value.NewInt(100 + s.rng.Int63n(400))}
	case clsProject:
		span := s.rows / 6
		lo := s.rng.Int63n(s.rows - span)
		return class, []value.Value{value.NewBigint(lo), value.NewBigint(lo + span - 1)}
	case clsPoint:
		return class, []value.Value{value.NewBigint(s.rng.Int63n(s.rows))}
	}
	return class, nil
}

// An olapAnswer is one reply kept for the oracle.
type olapAnswer struct {
	class  string
	params []value.Value
	rows   [][]value.Value
}

// olapBench is the olap_scan workload: the 30-attribute table in the
// column store, a second copy in the partitioned layout the paper
// advises (hot rows in the row store, cold rows split vertically), and a
// star schema; one closed-loop TCP client, so morsel parallelism has an
// idle core to use.
type olapBench struct {
	cfg      config
	rows     int
	factRows int
	dimRows  int
	spec     *workload.TableSpec
	part     *workload.TableSpec
	fact     *workload.TableSpec
	dim      *workload.TableSpec

	db     *engine.Database
	srv    *server.Server
	conn   *client.Conn
	stmts  map[string]*client.Stmt
	stream *olapStream
	series map[string]*series
	kept   []olapAnswer
	keptN  map[string]int
	stats  runStats
}

func newOLAP(cfg config) bench {
	b := &olapBench{cfg: cfg, rows: 30_000, factRows: 40_000, dimRows: 2000}
	if cfg.smoke {
		b.rows, b.factRows, b.dimRows = 3000, 3000, 100
	}
	b.spec = workload.StandardTable("t")
	b.part = workload.StandardTable("tp")
	b.fact = workload.FactTable("fact", b.dimRows)
	b.dim = workload.DimensionTable("dim")
	return b
}

// advisedLayout is the partitioned layout of the second copy: the newest
// tenth of the keys stay whole tuples in the row store; the cold rest is
// split vertically, the frequently updated attributes row-oriented, the
// analysed ones column-oriented.
func (b *olapBench) advisedLayout() *catalog.PartitionSpec {
	rowCols := append([]int{0}, b.part.OLTPAttrs...)
	colCols := []int{0}
	for c := 1; c < b.part.Schema.NumColumns(); c++ {
		if c != b.part.OLTPAttrs[0] && c != b.part.OLTPAttrs[1] {
			colCols = append(colCols, c)
		}
	}
	return &catalog.PartitionSpec{
		Horizontal: &catalog.HorizontalSpec{
			SplitCol: 0, SplitVal: value.NewBigint(int64(b.rows) * 9 / 10),
			HotStore: catalog.RowStore, ColdStore: catalog.ColumnStore,
		},
		Vertical: &catalog.VerticalSpec{RowCols: rowCols, ColCols: colCols},
	}
}

func (b *olapBench) setup() error {
	b.db = engine.New()
	seed := b.cfg.seed
	if err := loadTable(b.db, b.spec, catalog.ColumnStore, nil, b.rows, seed); err != nil {
		return err
	}
	if err := loadTable(b.db, b.part, catalog.Partitioned, b.advisedLayout(), b.rows, seed); err != nil {
		return err
	}
	if err := loadTable(b.db, b.fact, catalog.ColumnStore, nil, b.factRows, seed+1); err != nil {
		return err
	}
	if err := loadTable(b.db, b.dim, catalog.ColumnStore, nil, b.dimRows, seed+2); err != nil {
		return err
	}
	for _, t := range []string{"t", "tp", "fact", "dim"} {
		if _, err := b.db.CollectStats(t); err != nil {
			return err
		}
	}
	srv, err := server.Serve(b.db, "127.0.0.1:0", server.Config{})
	if err != nil {
		return err
	}
	b.srv = srv
	if b.conn, err = client.Dial(srv.Addr().String(), client.Options{Name: "olap"}); err != nil {
		return err
	}
	ctx := context.Background()
	b.stmts = map[string]*client.Stmt{}
	b.series = map[string]*series{}
	b.keptN = map[string]int{}
	for class, text := range olapSQL {
		if b.stmts[class], err = b.conn.Prepare(ctx, text); err != nil {
			return fmt.Errorf("prepare %s: %w", class, err)
		}
		b.series[class] = b.stats.rec.add(newSeries(class, int(b.cfg.seconds*4000)+1024))
	}
	b.stream = newOLAPStream(seed, b.rows)
	// Warm-up: two cycles, so every plan is cached and every column has
	// been touched.
	for i := 0; i < 2*len(olapCycle); i++ {
		if err := b.step(false); err != nil {
			return err
		}
	}
	return nil
}

// step issues the next statement of the cycle.
func (b *olapBench) step(timed bool) error {
	class, params := b.stream.next()
	t0 := time.Now()
	res, err := b.stmts[class].Query(context.Background(), params...)
	d := time.Since(t0)
	if err != nil {
		return fmt.Errorf("%s: %w", class, err)
	}
	if len(res.Rows) == 0 {
		return fmt.Errorf("%s%v: empty result", class, params)
	}
	if timed {
		b.series[class].observe(d)
	}
	if b.keptN[class] < olapVerify {
		b.keptN[class]++
		b.kept = append(b.kept, olapAnswer{class: class, params: params, rows: res.Rows})
	}
	return nil
}

func (b *olapBench) run(d time.Duration) error {
	start := time.Now()
	deadline := start.Add(d)
	var err error
	for err == nil && time.Now().Before(deadline) {
		err = b.step(true)
	}
	b.stats.wall += time.Since(start)
	if err != nil {
		b.stats.failed++
	}
	return err
}

func (b *olapBench) runStats() *runStats { return &b.stats }

func (b *olapBench) classes() (point, scan []string) { return []string{clsPoint}, olapScanClasses }

func (b *olapBench) memBytesPerRow() (float64, error) { return bytesPerRow(b.db, "t") }

// verify checks the kept replies of every class against a naive fold
// over the generated rows.
func (b *olapBench) verify() error {
	o := &olapOracle{
		rows: genRows(b.spec, b.rows, b.cfg.seed),
		fact: genRows(b.fact, b.factRows, b.cfg.seed+1),
		dim:  genRows(b.dim, b.dimRows, b.cfg.seed+2),
	}
	for _, a := range b.kept {
		if err := matchRows(a.rows, o.answer(a.class, a.params), a.class == clsTopK); err != nil {
			return fmt.Errorf("olap oracle: %s%v: %w", a.class, a.params, err)
		}
	}
	for _, class := range olapCycle {
		if b.keptN[class] == 0 {
			return fmt.Errorf("olap oracle: no %s reply to check", class)
		}
	}
	return nil
}

// olapOracle answers the workload's statements by folding over the
// generated rows, with none of the engine's code.
type olapOracle struct {
	rows, fact, dim [][]value.Value
}

// Column positions in workload.StandardTable: id, k0..k11, f0..f8, g0..g7.
const (
	colK0 = 1
	colF0 = 13
	colG0 = 22
)

type groupAcc struct {
	key   int64
	sum   [2]float64
	count int64
}

func foldGroups(rows [][]value.Value, keep func(r []value.Value) bool, key, a, b int) []*groupAcc {
	groups := map[int64]*groupAcc{}
	for _, r := range rows {
		if keep != nil && !keep(r) {
			continue
		}
		k := r[key].Int()
		g := groups[k]
		if g == nil {
			g = &groupAcc{key: k}
			groups[k] = g
		}
		g.sum[0] += r[a].Double()
		if b >= 0 {
			g.sum[1] += r[b].Double()
		}
		g.count++
	}
	out := make([]*groupAcc, 0, len(groups))
	for _, g := range groups {
		out = append(out, g)
	}
	return out
}

func (o *olapOracle) answer(class string, p []value.Value) [][]value.Value {
	var out [][]value.Value
	switch class {
	case clsSum:
		var s0, s3 float64
		for _, r := range o.rows {
			s0 += r[colK0].Double()
			s3 += r[colK0+3].Double()
		}
		out = [][]value.Value{{value.NewDouble(s0), value.NewDouble(s3)}}
	case clsGroup, clsGroupPart:
		for _, g := range foldGroups(o.rows, nil, colG0+1, colK0, colK0+3) {
			out = append(out, []value.Value{value.NewInt(g.key), value.NewDouble(g.sum[0]), value.NewDouble(g.sum[1] / float64(g.count))})
		}
	case clsFiltered:
		f, lo, hi := p[0].Int(), p[1].Int(), p[2].Int()
		keep := func(r []value.Value) bool { return r[colF0].Int() == f && r[0].Int() >= lo && r[0].Int() <= hi }
		for _, g := range foldGroups(o.rows, keep, colG0, colK0+1, -1) {
			out = append(out, []value.Value{value.NewInt(g.key), value.NewDouble(g.sum[0]), value.NewBigint(g.count)})
		}
	case clsTopK:
		var match [][]value.Value
		for _, r := range o.rows {
			if r[colF0+3].Int() == p[0].Int() {
				match = append(match, r)
			}
		}
		sort.SliceStable(match, func(i, j int) bool {
			if a, b := match[i][colK0].Double(), match[j][colK0].Double(); a != b {
				return a > b
			}
			return match[i][0].Int() < match[j][0].Int()
		})
		for _, r := range match[:min(10, len(match))] {
			out = append(out, []value.Value{r[0], r[colK0], r[colK0+3]})
		}
		return out // ORDER BY: compared in the order returned
	case clsJoin:
		// fact: id, dimkey, k0..k3, f0..f3; dim: dkey, d_g0, d_g1, ...
		g1 := make(map[int64]int64, len(o.dim))
		for _, d := range o.dim {
			g1[d[0].Int()] = d[2].Int()
		}
		sums := map[int64]float64{}
		for _, r := range o.fact {
			if r[6].Int() < p[0].Int() {
				sums[g1[r[1].Int()]] += r[2].Double()
			}
		}
		for k, s := range sums {
			out = append(out, []value.Value{value.NewInt(k), value.NewDouble(s)})
		}
	case clsProject:
		for _, r := range o.rows {
			if id := r[0].Int(); id >= p[0].Int() && id <= p[1].Int() {
				out = append(out, []value.Value{r[0], r[colK0], r[colK0+1], r[colK0+2], r[colK0+3], r[colF0], r[colF0+1], r[colG0]})
			}
		}
	case clsPoint:
		r := o.rows[p[0].Int()]
		out = [][]value.Value{{r[0], r[colK0], r[colK0+1], r[colF0], r[colG0]}}
	}
	sortByFirst(out)
	return out
}

func sortByFirst(rows [][]value.Value) {
	sort.Slice(rows, func(i, j int) bool { return value.Less(rows[i][0], rows[j][0]) })
}

// matchRows compares a reply with the oracle's answer; unless ordered,
// the reply is first sorted by its first column (a key or a group value),
// as the oracle's answer is. Floats are compared at a relative 1e-9, not bit for bit: a
// parallel float SUM associates its additions differently from a serial
// one and may differ in the last place.
func matchRows(got, want [][]value.Value, ordered bool) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, oracle %d", len(got), len(want))
	}
	if !ordered {
		got = append([][]value.Value(nil), got...)
		sortByFirst(got)
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			return fmt.Errorf("row %d: %d columns, oracle %d", i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			g, w := got[i][j], want[i][j]
			if w.Type() == value.Double {
				if diff := math.Abs(g.Float() - w.Double()); diff > 1e-9*math.Max(1, math.Abs(w.Double())) {
					return fmt.Errorf("row %d column %d: %v, oracle %v", i, j, g, w)
				}
			} else if g.IsNull() || g.Int() != w.Int() {
				return fmt.Errorf("row %d column %d: %v, oracle %v", i, j, g, w)
			}
		}
	}
	return nil
}

func (b *olapBench) replay(_ int, tr *tracer, n int) (*walker, error) {
	stream := newOLAPStream(b.cfg.seed+1, b.rows)
	sample := make([]*stmt, n)
	for i := range sample {
		class, params := stream.next()
		sample[i] = &stmt{class: class, text: olapSQL[class], params: params}
	}
	return walkAll(b.db, tr, sample)
}

func (b *olapBench) probes(p *probeSet) error {
	if err := p.clientPing(b.conn); err != nil {
		return err
	}
	p.serverCaches(b.srv)
	p.colstore(b.spec, genRows(b.spec, b.rows, b.cfg.seed))
	return nil
}

func (b *olapBench) close() {
	if b.conn != nil {
		b.conn.Close()
	}
	if b.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		b.srv.Shutdown(ctx) //nolint:errcheck // in-memory engine: nothing to lose
		cancel()
	}
}
