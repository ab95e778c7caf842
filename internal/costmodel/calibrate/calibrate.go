package calibrate

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"hybridstore/internal/agg"
	"hybridstore/internal/catalog"
	"hybridstore/internal/costmodel"
	"hybridstore/internal/engine"
	"hybridstore/internal/expr"
	"hybridstore/internal/query"
	"hybridstore/internal/schema"
	"hybridstore/internal/value"
)

// Config tunes the representative tests used to initialize the
// cost model.
type Config struct {
	// RefRows is the reference table size; other sizes are derived from it.
	RefRows int
	// Reps is how many times each probe query runs (the median is used).
	Reps int
	// Seed makes the synthetic calibration data deterministic.
	Seed int64
}

// DefaultConfig returns the standard calibration setting.
func DefaultConfig() Config {
	return Config{RefRows: 40_000, Reps: 3, Seed: 1}
}

// Calibration column layout (see calibSchema).
const (
	calID   = 0  // BIGINT primary key
	calD    = 1  // DOUBLE, moderate distinct count — the reference aggregate
	calI    = 2  // INTEGER
	calB    = 3  // BIGINT
	calV    = 4  // VARCHAR, 100 distinct
	calDT   = 5  // DATE, 365 distinct
	calG    = 6  // INTEGER, 10 distinct — group-by column
	calS10  = 7  // INTEGER, 10 distinct — selectivity 0.1 via equality
	calS100 = 8  // INTEGER, 100 distinct — selectivity 0.01
	calS1K  = 9  // INTEGER, 1000 distinct — selectivity 0.001
	calS10K = 10 // INTEGER, 10000 distinct — selectivity 0.0001
	calJD   = 11 // INTEGER, 1000 distinct — join key into the dimension
	calU    = 12 // DOUBLE — update target, never aggregated
	// Columns 13..29 are representative filler: real enterprise tables are
	// wide (the paper's experiment table has 30 attributes), and the row
	// store's per-tuple cost grows with tuple width, so base costs must be
	// calibrated at a representative width.
	calFiller     = 13
	calNumColumns = 30
)

func calibSchema(name string) *schema.Table {
	cols := []schema.Column{
		{Name: "id", Type: value.Bigint},
		{Name: "d", Type: value.Double},
		{Name: "i", Type: value.Integer},
		{Name: "b", Type: value.Bigint},
		{Name: "v", Type: value.Varchar},
		{Name: "dt", Type: value.Date},
		{Name: "g", Type: value.Integer},
		{Name: "s10", Type: value.Integer},
		{Name: "s100", Type: value.Integer},
		{Name: "s1k", Type: value.Integer},
		{Name: "s10k", Type: value.Integer},
		{Name: "jd", Type: value.Integer},
		{Name: "u", Type: value.Double},
	}
	for c := calFiller; c < calNumColumns; c++ {
		typ := value.Double
		if c%2 == 0 {
			typ = value.Integer
		}
		cols = append(cols, schema.Column{Name: fmt.Sprintf("x%d", c), Type: typ})
	}
	return schema.MustNew(name, cols, "id")
}

// calibRow generates one deterministic row; dDistinct controls the
// distinct count (and thus compression rate) of the d column.
func calibRow(rng *rand.Rand, id int64, dDistinct int) []value.Value {
	row := []value.Value{
		value.NewBigint(id),
		value.NewDouble(float64(rng.Intn(dDistinct))/7 + 0.25),
		value.NewInt(rng.Int63n(1000)),
		value.NewBigint(rng.Int63n(100000)),
		value.NewVarchar(fmt.Sprintf("v%02d", rng.Intn(100))),
		value.NewDate(rng.Int63n(365)),
		value.NewInt(rng.Int63n(10)),
		value.NewInt(rng.Int63n(10)),
		value.NewInt(rng.Int63n(100)),
		value.NewInt(rng.Int63n(1000)),
		value.NewInt(rng.Int63n(10000)),
		value.NewInt(rng.Int63n(1000)),
		value.NewDouble(float64(rng.Intn(100))),
	}
	for c := calFiller; c < calNumColumns; c++ {
		if c%2 == 0 {
			row = append(row, value.NewInt(rng.Int63n(5000)))
		} else {
			row = append(row, value.NewDouble(float64(rng.Intn(5000))/10))
		}
	}
	return row
}

// calibrator bundles the shared state of one calibration run.
type calibrator struct {
	cfg Config
	db  *engine.Database
	rng *rand.Rand
}

// measure runs a query once untimed — a first execution pays costs no
// later one does — then cfg.Reps times, and returns the median runtime in
// nanoseconds.
func (c *calibrator) measure(q *query.Query) (float64, error) {
	if _, err := c.db.Exec(q); err != nil {
		return 0, err
	}
	times := make([]float64, 0, c.cfg.Reps)
	for i := 0; i < c.cfg.Reps; i++ {
		res, err := c.db.Exec(q)
		if err != nil {
			return 0, err
		}
		times = append(times, float64(res.Duration))
	}
	sort.Float64s(times)
	return times[len(times)/2], nil
}

// loadTable creates and fills a calibration table.
func (c *calibrator) loadTable(name string, store catalog.StoreKind, rows, dDistinct int) error {
	if err := c.db.CreateTable(calibSchema(name), store); err != nil {
		return err
	}
	const batch = 2000
	buf := make([][]value.Value, 0, batch)
	for id := 0; id < rows; id++ {
		buf = append(buf, calibRow(c.rng, int64(id), dDistinct))
		if len(buf) == batch {
			if _, err := c.db.Exec(&query.Query{Kind: query.Insert, Table: name, Rows: buf}); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	if len(buf) > 0 {
		if _, err := c.db.Exec(&query.Query{Kind: query.Insert, Table: name, Rows: buf}); err != nil {
			return err
		}
	}
	// Measure from the merged steady state, as after a bulk load.
	return c.db.Compact(name)
}

// Calibrate initializes a cost model by benchmarking the live engine,
// following the paper's recommendation process ("Initialize cost model",
// Figure 5). It is deterministic given the config seed, up to timing
// noise.
func Calibrate(cfg Config) (*costmodel.Model, error) {
	if cfg.RefRows <= 0 {
		cfg.RefRows = DefaultConfig().RefRows
	}
	if cfg.Reps <= 0 {
		cfg.Reps = DefaultConfig().Reps
	}
	c := &calibrator{cfg: cfg, db: engine.New(), rng: rand.New(rand.NewSource(cfg.Seed))}
	m := &costmodel.Model{
		RefRows:    cfg.RefRows,
		JoinBase:   map[string]map[string]float64{"ROW": {}, "COLUMN": {}},
		JoinGroupC: map[string]map[string]float64{"ROW": {}, "COLUMN": {}},
	}

	// Dimension tables for join calibration (one per store).
	dimSchema := func(name string) *schema.Table {
		return schema.MustNew(name, []schema.Column{
			{Name: "id", Type: value.Integer},
			{Name: "name", Type: value.Varchar},
			{Name: "w", Type: value.Double},
		}, "id")
	}
	for _, d := range []struct {
		name  string
		store catalog.StoreKind
	}{{"dim_rs", catalog.RowStore}, {"dim_cs", catalog.ColumnStore}} {
		if err := c.db.CreateTable(dimSchema(d.name), d.store); err != nil {
			return nil, err
		}
		var rows [][]value.Value
		for i := 0; i < 1000; i++ {
			rows = append(rows, []value.Value{
				value.NewInt(int64(i)),
				value.NewVarchar(fmt.Sprintf("dim%03d", i%50)),
				value.NewDouble(float64(i)),
			})
		}
		if _, err := c.db.Exec(&query.Query{Kind: query.Insert, Table: d.name, Rows: rows}); err != nil {
			return nil, err
		}
	}

	for _, st := range []struct {
		kind   catalog.StoreKind
		prefix string
	}{{catalog.RowStore, "rs"}, {catalog.ColumnStore, "cs"}} {
		params, refCompr, err := c.calibrateStore(st.kind, st.prefix)
		if err != nil {
			return nil, err
		}
		if st.kind == catalog.RowStore {
			m.RS = *params
		} else {
			m.CS = *params
			m.RefCompression = refCompr
		}
	}
	if err := c.calibrateJoins(m); err != nil {
		return nil, err
	}
	return m, nil
}

// calibrateStore fits all costmodel.StoreParams for one store.
func (c *calibrator) calibrateStore(kind catalog.StoreKind, prefix string) (*costmodel.StoreParams, float64, error) {
	ref := c.cfg.RefRows
	// The 2×ref table anchors the f_#rows fit beyond the reference so the
	// linear model captures the out-of-cache growth of larger tables.
	sizes := []int{ref / 4, ref / 2, ref, 2 * ref}
	names := make([]string, len(sizes))
	dDistinct := ref / 4 // moderate compression on the reference column
	for i, n := range sizes {
		names[i] = fmt.Sprintf("%s_n%d", prefix, i)
		if err := c.loadTable(names[i], kind, n, dDistinct); err != nil {
			return nil, 0, err
		}
	}
	refName := names[2] // base costs are defined at ref, not at 2×ref
	if kind == catalog.RowStore {
		// Index the selectivity columns for the indexed-access path.
		for _, col := range []int{calS10, calS100, calS1K, calS10K, calJD} {
			if err := c.db.CreateIndex(refName, col); err != nil {
				return nil, 0, err
			}
		}
	}
	refStats, err := c.db.CollectStats(refName)
	if err != nil {
		return nil, 0, err
	}
	refCompr := refStats.CompressionOf(calD)

	p := &costmodel.StoreParams{
		AggBase:   map[string]float64{},
		DataTypeC: map[string]float64{},
	}

	aggQ := func(table string, f agg.Func, col int, groupBy []int) *query.Query {
		return &query.Query{
			Kind: query.Aggregate, Table: table,
			Aggs:    []agg.Spec{{Func: f, Col: col}},
			GroupBy: groupBy,
		}
	}

	// f_#rows: SUM(d) across sizes.
	var xs, ys []float64
	for i, n := range sizes {
		t, err := c.measure(aggQ(names[i], agg.Sum, calD, nil))
		if err != nil {
			return nil, 0, err
		}
		xs = append(xs, float64(n))
		ys = append(ys, t)
	}
	rowsFit := costmodel.FitLinFn(xs, ys)
	p.RowsF = rowsFit.Normalized(float64(ref))

	// Aggregation base costs at the reference table. The per-query scan
	// intercept is separated from the marginal per-aggregate cost by
	// measuring a one-aggregate and a three-aggregate query.
	t1, err := c.measure(aggQ(refName, agg.Sum, calD, nil))
	if err != nil {
		return nil, 0, err
	}
	t3, err := c.measure(&query.Query{
		Kind: query.Aggregate, Table: refName,
		Aggs: []agg.Spec{{Func: agg.Sum, Col: calD}, {Func: agg.Sum, Col: calD}, {Func: agg.Sum, Col: calD}},
	})
	if err != nil {
		return nil, 0, err
	}
	marginal := (t3 - t1) / 2
	if marginal < 0.05*t1 {
		marginal = 0.05 * t1
	}
	p.AggQueryBase = t1 - marginal
	if p.AggQueryBase < 0 {
		p.AggQueryBase = 0
	}
	p.AggBase[agg.Sum.String()] = marginal
	for _, f := range []agg.Func{agg.Avg, agg.Min, agg.Max} {
		t, err := c.measure(aggQ(refName, f, calD, nil))
		if err != nil {
			return nil, 0, err
		}
		b := t - p.AggQueryBase
		if b < 0.05*t {
			b = 0.05 * t
		}
		p.AggBase[f.String()] = b
	}
	tCount, err := c.measure(&query.Query{
		Kind: query.Aggregate, Table: refName,
		Aggs: []agg.Spec{{Func: agg.Count, Col: -1}},
	})
	if err != nil {
		return nil, 0, err
	}
	bCount := tCount - p.AggQueryBase
	if bCount < 0.02*tCount {
		bCount = 0.02 * tCount
	}
	p.AggBase[agg.Count.String()] = bCount

	// c_dataType: relative marginal cost per aggregated type. Numeric
	// types via SUM; VARCHAR and DATE via MIN (they cannot be summed).
	sumD := p.AggBase[agg.Sum.String()]
	for _, dt := range []struct {
		col int
		typ value.Type
	}{{calD, value.Double}, {calI, value.Integer}, {calB, value.Bigint}} {
		t, err := c.measure(aggQ(refName, agg.Sum, dt.col, nil))
		if err != nil {
			return nil, 0, err
		}
		marg := t - p.AggQueryBase
		if marg < 0.05*t {
			marg = 0.05 * t
		}
		p.DataTypeC[dt.typ.String()] = marg / sumD
	}
	minD, err := c.measure(aggQ(refName, agg.Min, calD, nil))
	if err != nil {
		return nil, 0, err
	}
	for _, dt := range []struct {
		col int
		typ value.Type
	}{{calV, value.Varchar}, {calDT, value.Date}} {
		t, err := c.measure(aggQ(refName, agg.Min, dt.col, nil))
		if err != nil {
			return nil, 0, err
		}
		if minD > 0 {
			p.DataTypeC[dt.typ.String()] = t / minD
		} else {
			p.DataTypeC[dt.typ.String()] = 1
		}
	}

	// c_groupBy: ratio of the grouped to the ungrouped reference query.
	tGrouped, err := c.measure(aggQ(refName, agg.Sum, calD, []int{calG}))
	if err != nil {
		return nil, 0, err
	}
	p.GroupByC = tGrouped / t1

	// f_compression: reference-size tables with varying distinct counts on
	// d. The row store is expected to come out flat; the column store
	// speeds up with compression (narrower codes to unpack, a smaller
	// dictionary to gather floats from).
	var cxs, cys []float64
	cxs = append(cxs, refCompr)
	cys = append(cys, t1)
	for i, dd := range []int{2, 64, 4096, ref} {
		tn := fmt.Sprintf("%s_c%d", prefix, i)
		if err := c.loadTable(tn, kind, ref, dd); err != nil {
			return nil, 0, err
		}
		st, err := c.db.CollectStats(tn)
		if err != nil {
			return nil, 0, err
		}
		t, err := c.measure(aggQ(tn, agg.Sum, calD, nil))
		if err != nil {
			return nil, 0, err
		}
		cxs = append(cxs, st.CompressionOf(calD))
		cys = append(cys, t)
		if err := c.db.DropTable(tn); err != nil {
			return nil, 0, err
		}
	}
	p.CompressionF = costmodel.NormalizePiecewise(costmodel.FitPiecewise(cxs, cys), refCompr)

	// Selections: equality predicates on columns with controlled distinct
	// counts give controlled selectivities.
	selCols := []struct {
		col int
		sel float64
	}{
		{calS10K, 1.0 / 10000},
		{calS1K, 1.0 / 1000},
		{calS100, 1.0 / 100},
		{calS10, 1.0 / 10},
	}
	selQuery := func(col int, k int) *query.Query {
		cols := make([]int, k)
		for i := range cols {
			cols[i] = []int{calID, calD, calI, calB, calV, calDT, calG, calU}[i]
		}
		return &query.Query{
			Kind: query.Select, Table: refName, Cols: cols,
			Pred: &expr.Comparison{Col: col, Op: expr.Eq, Val: value.NewInt(1)},
		}
	}
	var ixs, iys []float64
	for _, sc := range selCols {
		t, err := c.measure(selQuery(sc.col, 2))
		if err != nil {
			return nil, 0, err
		}
		ixs = append(ixs, sc.sel)
		iys = append(iys, t)
	}
	idxFit := costmodel.FitLinFn(ixs, iys)
	p.SelectBase = idxFit.At(0.01) // reference: selectivity 1%, 2 columns
	if p.SelectBase <= 0 {
		p.SelectBase = iys[len(iys)-1]
	}
	p.SelIdxF = costmodel.LinFn{A: idxFit.A / p.SelectBase, B: idxFit.B / p.SelectBase}

	// Scan path: same predicates on an unindexed same-size table (the
	// second-largest sizing table is unindexed even for the row store).
	scanName := refName
	if kind == catalog.RowStore {
		// Build an unindexed copy at reference size.
		scanName = prefix + "_scan"
		if err := c.loadTable(scanName, kind, ref, dDistinct); err != nil {
			return nil, 0, err
		}
	}
	var sxs, sys []float64
	for _, sc := range selCols {
		q := selQuery(sc.col, 2)
		q.Table = scanName
		t, err := c.measure(q)
		if err != nil {
			return nil, 0, err
		}
		sxs = append(sxs, sc.sel)
		sys = append(sys, t)
	}
	scanFit := costmodel.FitLinFn(sxs, sys)
	p.SelScanF = costmodel.LinFn{A: scanFit.A / p.SelectBase, B: scanFit.B / p.SelectBase}
	if kind == catalog.RowStore {
		if err := c.db.DropTable(scanName); err != nil {
			return nil, 0, err
		}
	}

	// f_#selectedColumns at fixed selectivity 0.01.
	var kxs, kys []float64
	for _, k := range []int{1, 2, 4, 8} {
		t, err := c.measure(selQuery(calS100, k))
		if err != nil {
			return nil, 0, err
		}
		kxs = append(kxs, float64(k))
		kys = append(kys, t)
	}
	p.SelColsF = costmodel.FitLinFn(kxs, kys).Normalized(2)

	// Inserts: amortized per-row cost while growing each sizing table by
	// 15% (enough to cross the column store's delta-merge threshold, so
	// the measurement includes amortized merge cost).
	var inxs, inys []float64
	for i, n := range sizes {
		grow := n * 15 / 100
		if grow < 500 {
			grow = 500
		}
		batchRows := make([][]value.Value, 0, 500)
		start := time.Now()
		inserted := 0
		nextID := int64(10_000_000 * (i + 1))
		for inserted < grow {
			batchRows = batchRows[:0]
			for j := 0; j < 500 && inserted+j < grow; j++ {
				batchRows = append(batchRows, calibRow(c.rng, nextID, dDistinct))
				nextID++
			}
			inserted += len(batchRows)
			if _, err := c.db.Exec(&query.Query{Kind: query.Insert, Table: names[i], Rows: batchRows}); err != nil {
				return nil, 0, err
			}
		}
		perRow := float64(time.Since(start)) / float64(grow)
		inxs = append(inxs, float64(n))
		inys = append(inys, perRow)
	}
	insFit := costmodel.FitLinFn(inxs, inys)
	p.InsertBase = insFit.At(float64(ref))
	if p.InsertBase <= 0 {
		p.InsertBase = inys[len(inys)-1]
	}
	p.InsRowsF = insFit.Normalized(float64(ref))

	// Updates on the dedicated u column. Reference: 1 column, selectivity
	// 0.001 (≈ ref/1000 affected rows).
	updQ := func(setCols []int, selCol int) *query.Query {
		set := map[int]value.Value{}
		for _, sc := range setCols {
			n := int64(c.rng.Intn(1000))
			switch sc {
			case calI:
				set[sc] = value.NewInt(n)
			case calB:
				set[sc] = value.NewBigint(n)
			case calDT:
				set[sc] = value.NewDate(n % 365)
			default:
				set[sc] = value.NewDouble(float64(n))
			}
		}
		return &query.Query{
			Kind: query.Update, Table: refName, Set: set,
			Pred: &expr.Comparison{Col: selCol, Op: expr.Eq, Val: value.NewInt(2)},
		}
	}
	// The measured update time contains the cost of locating the rows
	// (which estimateUpdate models separately via the selection functions)
	// plus the application cost. Back the location share out so that
	// UpdateBase is application-only. The calibration predicates hit
	// indexed columns, so the indexed selectivity function applies.
	loc := func(sel float64) float64 {
		return p.SelectBase * p.SelColsF.At(1) * p.SelIdxF.At(sel)
	}
	refAffected := float64(ref) / 1000
	tUpd, err := c.measure(updQ([]int{calU}, calS1K))
	if err != nil {
		return nil, 0, err
	}
	p.UpdateBase = tUpd - loc(1.0/1000)
	if p.UpdateBase < 0.05*tUpd {
		p.UpdateBase = 0.05 * tUpd
	}

	var uxs, uys []float64
	for _, spec := range []struct {
		cols []int
	}{
		{[]int{calU}},
		{[]int{calU, calI}},
		{[]int{calU, calI, calB, calDT}},
	} {
		t, err := c.measure(updQ(spec.cols, calS1K))
		if err != nil {
			return nil, 0, err
		}
		apply := t - loc(1.0/1000)
		if apply < 0.05*t {
			apply = 0.05 * t
		}
		uxs = append(uxs, float64(len(spec.cols)))
		uys = append(uys, apply/p.UpdateBase)
	}
	p.UpdColsF = costmodel.FitLinFn(uxs, uys).Normalized(1)

	var rxs, rys []float64
	for _, sc := range []struct {
		col int
		sel float64
	}{{calS10K, 1.0 / 10000}, {calS1K, 1.0 / 1000}, {calS100, 1.0 / 100}} {
		t, err := c.measure(updQ([]int{calU}, sc.col))
		if err != nil {
			return nil, 0, err
		}
		apply := t - loc(sc.sel)
		if apply < 0.05*t {
			apply = 0.05 * t
		}
		rxs = append(rxs, sc.sel*float64(ref))
		rys = append(rys, apply/p.UpdateBase)
	}
	p.UpdRowsF = costmodel.FitLinFn(rxs, rys).Normalized(refAffected)

	return p, refCompr, nil
}

// calibrateJoins measures the reference join (SUM over the fact table
// joined with a 1000-row dimension) for all four store combinations and
// backs out the base costs.
func (c *calibrator) calibrateJoins(m *costmodel.Model) error {
	ref := c.cfg.RefRows
	for _, combo := range []struct {
		fact, dim catalog.StoreKind
	}{
		{catalog.RowStore, catalog.RowStore},
		{catalog.RowStore, catalog.ColumnStore},
		{catalog.ColumnStore, catalog.RowStore},
		{catalog.ColumnStore, catalog.ColumnStore},
	} {
		factName := "rs_n2"
		if combo.fact == catalog.ColumnStore {
			factName = "cs_n2"
		}
		dimName := "dim_rs"
		if combo.dim == catalog.ColumnStore {
			dimName = "dim_cs"
		}
		q := &query.Query{
			Kind: query.Aggregate, Table: factName,
			Join: &query.Join{Table: dimName, LeftCol: calJD, RightCol: 0},
			Aggs: []agg.Spec{{Func: agg.Sum, Col: calD}},
		}
		t, err := c.measure(q)
		if err != nil {
			return err
		}
		p1 := m.Params(combo.fact)
		p2 := m.Params(combo.dim)
		denom := p1.RowsF.At(float64(ref)) * p2.RowsF.At(1000)
		denom *= p1.CompressionF.At(m.RefCompression) * p2.CompressionF.At(m.RefCompression)
		if denom <= 0 {
			denom = 1
		}
		m.JoinBase[costmodel.StoreKey(combo.fact)][costmodel.StoreKey(combo.dim)] = t / denom

		// Grouping multiplier: the same join grouped by a dimension
		// attribute (combined index: fact width + dim column 1).
		gq := &query.Query{
			Kind: query.Aggregate, Table: factName,
			Join:    &query.Join{Table: dimName, LeftCol: calJD, RightCol: 0},
			Aggs:    []agg.Spec{{Func: agg.Sum, Col: calD}},
			GroupBy: []int{calNumColumns + 1},
		}
		tg, err := c.measure(gq)
		if err != nil {
			return err
		}
		ratio := 1.0
		if t > 0 {
			ratio = tg / t
		}
		if ratio < 1 {
			ratio = 1
		}
		m.JoinGroupC[costmodel.StoreKey(combo.fact)][costmodel.StoreKey(combo.dim)] = ratio
	}
	return nil
}
