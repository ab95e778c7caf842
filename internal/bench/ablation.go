package bench

import (
	"fmt"
	"time"

	"hybridstore/internal/advisor"
	"hybridstore/internal/agg"
	"hybridstore/internal/catalog"
	"hybridstore/internal/colstore"
	"hybridstore/internal/costmodel"
	"hybridstore/internal/engine"
	"hybridstore/internal/query"
	"hybridstore/internal/tpch"
	"hybridstore/internal/value"
	"hybridstore/internal/workload"
)

// Ablations benchmarks the engine's design choices: the column store's
// per-code aggregation fast path, the write-optimized delta, the advisor's
// search strategy, and the cost model's compression adjustment.
func Ablations(cfg Config) (*Result, error) {
	res := &Result{Columns: []string{"ablation", "baseline", "ablated", "effect"}}
	if err := ablateCodeAggregation(cfg, res); err != nil {
		return nil, err
	}
	if err := ablateDelta(cfg, res); err != nil {
		return nil, err
	}
	if err := ablateSearch(cfg, res); err != nil {
		return nil, err
	}
	if err := ablateCompressionAdjustment(cfg, res); err != nil {
		return nil, err
	}
	return res, nil
}

// colstoreTable builds a raw column-store table with a controllable
// distinct count on the aggregated column.
func colstoreTable(n, distinct int, seed int64) *colstore.Table {
	spec := workload.StandardTable("exp")
	t := colstore.New(spec.Schema)
	rows := make([][]value.Value, 0, 4096)
	rng := newRng(seed)
	for id := 0; id < n; id++ {
		row := spec.RowGen(rng, int64(id))
		row[spec.Keyfigures[0]] = value.NewDouble(float64(id % distinct))
		rows = append(rows, row)
		if len(rows) == 4096 {
			if err := t.Insert(rows); err != nil {
				panic(err)
			}
			rows = rows[:0]
		}
	}
	if len(rows) > 0 {
		if err := t.Insert(rows); err != nil {
			panic(err)
		}
	}
	t.Merge()
	return t
}

// ablateCodeAggregation compares the per-code weighted aggregation fast
// path against naive tuple-at-a-time accumulation over the same column
// store.
func ablateCodeAggregation(cfg Config, res *Result) error {
	n := cfg.scaled(200_000)
	t := colstoreTable(n, 64, cfg.Seed)
	spec := workload.StandardTable("exp")
	col := spec.Keyfigures[0]
	aggs := []agg.Spec{{Func: agg.Sum, Col: col}}

	fast := time.Duration(0)
	naive := time.Duration(0)
	var fastSum, naiveSum float64
	for i := 0; i < cfg.Reps; i++ {
		start := time.Now()
		r := t.Aggregate(aggs, nil, nil)
		fast += time.Since(start)
		fastSum = r.Rows()[0][0].Double()

		start = time.Now()
		var acc agg.Acc
		t.Scan(nil, []int{col}, func(rid int, row []value.Value) bool {
			acc.Add(row[col])
			return true
		})
		naive += time.Since(start)
		naiveSum = acc.Final(agg.Sum).Double()
	}
	if fastSum != naiveSum {
		return fmt.Errorf("ablation: per-code aggregation diverged: %v vs %v", fastSum, naiveSum)
	}
	res.AddRow([]string{
		"per-code aggregation",
		fmt.Sprintf("%.2fms", fast.Seconds()*1000/float64(cfg.Reps)),
		fmt.Sprintf("%.2fms (decode per row)", naive.Seconds()*1000/float64(cfg.Reps)),
		fmt.Sprintf("%.1fx", float64(naive)/float64(fast)),
	}, map[string]float64{"codeagg_speedup": float64(naive) / float64(fast)})
	return nil
}

// ablateDelta compares insert throughput with the write-optimized delta
// against merging after every batch (no delta amortization).
func ablateDelta(cfg Config, res *Result) error {
	n := cfg.scaled(40_000)
	spec := workload.StandardTable("exp")
	load := func(noDelta bool) time.Duration {
		t := colstore.New(spec.Schema)
		t.AutoMerge = !noDelta
		rng := newRng(cfg.Seed)
		start := time.Now()
		batch := make([][]value.Value, 0, 512)
		for id := 0; id < n; id++ {
			batch = append(batch, spec.RowGen(rng, int64(id)))
			if len(batch) == 512 {
				if err := t.Insert(batch); err != nil {
					panic(err)
				}
				if noDelta {
					t.Merge()
				}
				batch = batch[:0]
			}
		}
		if len(batch) > 0 {
			if err := t.Insert(batch); err != nil {
				panic(err)
			}
		}
		return time.Since(start)
	}
	withDelta := load(false)
	withoutDelta := load(true)
	res.AddRow([]string{
		"write-optimized delta",
		fmt.Sprintf("%.0fms load", withDelta.Seconds()*1000),
		fmt.Sprintf("%.0fms (merge per batch)", withoutDelta.Seconds()*1000),
		fmt.Sprintf("%.1fx", float64(withoutDelta)/float64(withDelta)),
	}, map[string]float64{"delta_speedup": float64(withoutDelta) / float64(withDelta)})
	return nil
}

// ablateSearch compares exact enumeration with local search on the TPC-H
// placement problem.
func ablateSearch(cfg Config, res *Result) error {
	m, err := cfg.model()
	if err != nil {
		return err
	}
	sf := 0.004 * cfg.Scale
	db := engine.New()
	g, err := tpch.Load(db, sf, cfg.Seed, catalog.ColumnStore)
	if err != nil {
		return err
	}
	for _, t := range tpch.TableNames {
		if _, err := db.CollectStats(t); err != nil {
			return err
		}
	}
	info := advisor.InfoFromCatalog(db.Catalog())
	w := tpch.GenWorkload(g, tpch.WorkloadConfig{Queries: 1000, OLAPFraction: 0.01, Seed: cfg.Seed})

	exact := advisor.New(m)
	start := time.Now()
	exactRec := exact.RecommendTables(w, info, nil)
	exactTime := time.Since(start)

	local := advisor.New(m)
	local.Config.ExactLimit = 0 // force local search
	start = time.Now()
	localRec := local.RecommendTables(w, info, nil)
	localTime := time.Since(start)

	gap := 0.0
	if exactRec.EstimatedCost > 0 {
		gap = (localRec.EstimatedCost - exactRec.EstimatedCost) / exactRec.EstimatedCost
	}
	res.AddRow([]string{
		"placement search",
		fmt.Sprintf("exact %.1fms", exactTime.Seconds()*1000),
		fmt.Sprintf("local %.1fms", localTime.Seconds()*1000),
		fmt.Sprintf("cost gap %.2f%%", gap*100),
	}, map[string]float64{"search_gap": gap})
	return nil
}

// ablateCompressionAdjustment measures the column-store estimation error
// with and without f_compression across tables of different
// compressibility.
func ablateCompressionAdjustment(cfg Config, res *Result) error {
	m, err := cfg.model()
	if err != nil {
		return err
	}
	flat := *m
	flat.CS.CompressionF = costmodel.PiecewiseFn{Xs: []float64{0, 1}, Ys: []float64{1, 1}}

	spec := workload.StandardTable("exp")
	col := spec.Keyfigures[0]
	q := &query.Query{Kind: query.Aggregate, Table: "exp", Aggs: []agg.Spec{{Func: agg.Sum, Col: col}}}
	n := cfg.scaled(150_000)
	var withAdj, withoutAdj, actuals []float64
	for _, distinct := range []int{4, 256, 16384, n} {
		t := colstoreTable(n, distinct, cfg.Seed)
		// Wrap in an engine to reuse stats collection.
		db := engine.New()
		ts := workload.StandardTable("exp")
		if err := db.CreateTable(ts.Schema, catalog.ColumnStore); err != nil {
			return err
		}
		rows := make([][]value.Value, 0, 4096)
		t.Scan(nil, nil, func(rid int, row []value.Value) bool {
			cp := make([]value.Value, len(row))
			copy(cp, row)
			rows = append(rows, cp)
			if len(rows) == 4096 {
				if _, err := db.Exec(&query.Query{Kind: query.Insert, Table: "exp", Rows: rows}); err != nil {
					panic(err)
				}
				rows = rows[:0]
			}
			return true
		})
		if len(rows) > 0 {
			if _, err := db.Exec(&query.Query{Kind: query.Insert, Table: "exp", Rows: rows}); err != nil {
				return err
			}
		}
		if _, err := db.CollectStats("exp"); err != nil {
			return err
		}
		info := advisor.InfoFromCatalog(db.Catalog())
		place := costmodel.Placement{"exp": catalog.ColumnStore}
		act, err := measureQuery(db, q, cfg.Reps)
		if err != nil {
			return err
		}
		withAdj = append(withAdj, m.EstimateQuery(q, info, place))
		withoutAdj = append(withoutAdj, flat.EstimateQuery(q, info, place))
		actuals = append(actuals, float64(act))
	}
	errWith := costmodel.MeanAbsError(withAdj, actuals)
	errWithout := costmodel.MeanAbsError(withoutAdj, actuals)
	res.AddRow([]string{
		"compression adjustment",
		fmt.Sprintf("error %.1f%%", errWith*100),
		fmt.Sprintf("error %.1f%% (constant f_compression)", errWithout*100),
		fmt.Sprintf("%+.1fpp", (errWithout-errWith)*100),
	}, map[string]float64{"compr_err_with": errWith, "compr_err_without": errWithout})
	return nil
}
