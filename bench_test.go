package hybridstore

// One testing.B benchmark per figure of the paper's evaluation plus the
// ablation suite. Each benchmark executes the corresponding experiment of
// internal/bench (the same harness cmd/hsbench drives) and reports the
// headline series as benchmark metrics, printing the full experiment
// table to stdout.
//
// The experiments run at a reduced scale (HSBENCH_SCALE, default 0.25) so
// `go test -bench=.` finishes in minutes; run `cmd/hsbench -scale 1` for
// the full-size tables. The first benchmark calibrates a cost model against this machine; it is cached for the rest
// of the run.

import (
	"fmt"
	"os"
	"strconv"
	"sync"
	"testing"

	"hybridstore/internal/bench"
	"hybridstore/internal/costmodel"
	"hybridstore/internal/costmodel/calibrate"
)

var (
	modelOnce   sync.Once
	sharedModel *costmodel.Model
	modelErr    error
)

func benchScale() float64 {
	if s := os.Getenv("HSBENCH_SCALE"); s != "" {
		if f, err := strconv.ParseFloat(s, 64); err == nil && f > 0 {
			return f
		}
	}
	return 0.25
}

func benchConfig(b *testing.B) bench.Config {
	b.Helper()
	modelOnce.Do(func() {
		sharedModel, modelErr = calibrate.Calibrate(calibrate.Config{
			RefRows: 30_000, Reps: 3, Seed: 2012,
		})
	})
	if modelErr != nil {
		b.Fatalf("calibration failed: %v", modelErr)
	}
	return bench.Config{
		Scale: benchScale(),
		Seed:  2012,
		Reps:  3,
		Model: sharedModel,
		Out:   os.Stdout,
	}
}

// runExperiment executes one paper experiment per benchmark iteration and
// reports the key series as metrics.
func runExperiment(b *testing.B, name string, metrics func(*bench.Result, *testing.B)) {
	cfg := benchConfig(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := bench.Run(name, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && metrics != nil {
			metrics(res, b)
		}
	}
}

// last returns the final point of a series (0 when absent).
func last(r *bench.Result, key string) float64 {
	s := r.Series[key]
	if len(s) == 0 {
		return 0
	}
	return s[len(s)-1]
}

// BenchmarkFig6aDataScale regenerates Figure 6(a): estimation accuracy as
// the data volume grows.
func BenchmarkFig6aDataScale(b *testing.B) {
	runExperiment(b, "fig6a", func(r *bench.Result, b *testing.B) {
		b.ReportMetric(100*costmodel.MeanAbsError(r.Series["rs_est"], r.Series["rs_act"]), "rs_err_%")
		b.ReportMetric(100*costmodel.MeanAbsError(r.Series["cs_est"], r.Series["cs_act"]), "cs_err_%")
	})
}

// BenchmarkFig6bAggregates regenerates Figure 6(b): estimation accuracy as
// the number of aggregates grows.
func BenchmarkFig6bAggregates(b *testing.B) {
	runExperiment(b, "fig6b", func(r *bench.Result, b *testing.B) {
		b.ReportMetric(100*costmodel.MeanAbsError(r.Series["rs_est"], r.Series["rs_act"]), "rs_err_%")
		b.ReportMetric(100*costmodel.MeanAbsError(r.Series["cs_est"], r.Series["cs_act"]), "cs_err_%")
	})
}

// BenchmarkFig7aSingleTable regenerates Figure 7(a): table-level
// recommendation quality on a single table across OLAP fractions.
func BenchmarkFig7aSingleTable(b *testing.B) {
	runExperiment(b, "fig7a", func(r *bench.Result, b *testing.B) {
		b.ReportMetric(last(r, "rs_only")/1e6, "rs@5%_ms")
		b.ReportMetric(last(r, "cs_only")/1e6, "cs@5%_ms")
		b.ReportMetric(last(r, "advisor")/1e6, "advisor@5%_ms")
	})
}

// BenchmarkFig7bJoins regenerates Figure 7(b): recommendation quality for
// star-schema join workloads (dimension pinned to the row store).
func BenchmarkFig7bJoins(b *testing.B) {
	runExperiment(b, "fig7b", func(r *bench.Result, b *testing.B) {
		b.ReportMetric(last(r, "rs_only")/1e6, "rs@5%_ms")
		b.ReportMetric(last(r, "cs_only")/1e6, "cs@5%_ms")
		b.ReportMetric(last(r, "advisor")/1e6, "advisor@5%_ms")
	})
}

// BenchmarkFig8Horizontal regenerates Figure 8: the horizontal
// partitioning sweep with its minimum at the advisor-recommended split.
func BenchmarkFig8Horizontal(b *testing.B) {
	runExperiment(b, "fig8", func(r *bench.Result, b *testing.B) {
		series := r.Series["runtime"]
		if len(series) > 0 {
			best, bestIdx := series[0], 0
			for i, v := range series {
				if v < best {
					best, bestIdx = v, i
				}
			}
			b.ReportMetric(100*r.Series["rs_fraction"][bestIdx], "best_rs_frac_%")
		}
	})
}

// BenchmarkFig9aVerticalOLAP regenerates Figure 9(a): vertical
// partitioning in the OLAP setting.
func BenchmarkFig9aVerticalOLAP(b *testing.B) {
	runExperiment(b, "fig9a", func(r *bench.Result, b *testing.B) {
		b.ReportMetric(last(r, "vertical")/1e6, "vertical@2.5%_ms")
		b.ReportMetric(last(r, "cs_only")/1e6, "cs@2.5%_ms")
	})
}

// BenchmarkFig9bVerticalOLTP regenerates Figure 9(b): vertical
// partitioning in the OLTP setting.
func BenchmarkFig9bVerticalOLTP(b *testing.B) {
	runExperiment(b, "fig9b", func(r *bench.Result, b *testing.B) {
		b.ReportMetric(last(r, "vertical")/1e6, "vertical@2.5%_ms")
		b.ReportMetric(last(r, "rs_only")/1e6, "rs@2.5%_ms")
	})
}

// BenchmarkFig10TPCH regenerates Figure 10: the TPC-H combination and
// comparison of RS-only, CS-only, table-level and partitioned layouts.
func BenchmarkFig10TPCH(b *testing.B) {
	runExperiment(b, "fig10", func(r *bench.Result, b *testing.B) {
		b.ReportMetric(last(r, "rs_only")/1e6, "rs_only_ms")
		b.ReportMetric(last(r, "cs_only")/1e6, "cs_only_ms")
		b.ReportMetric(last(r, "table")/1e6, "table_ms")
		b.ReportMetric(last(r, "partitioned")/1e6, "partitioned_ms")
	})
}

// BenchmarkAblations runs the design-choice ablations:
// per-code aggregation, the write-optimized delta, the placement-search
// strategy and the compression adjustment.
func BenchmarkAblations(b *testing.B) {
	runExperiment(b, "ablation", func(r *bench.Result, b *testing.B) {
		b.ReportMetric(last(r, "codeagg_speedup"), "codeagg_x")
		b.ReportMetric(last(r, "delta_speedup"), "delta_x")
	})
}

// BenchmarkCalibration measures a full cost-model calibration pass (the
// paper's "initialize cost model" step, Figure 5).
func BenchmarkCalibration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m, err := calibrate.Calibrate(calibrate.Config{
			RefRows: 10_000, Reps: 1, Seed: int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Printf("calibrated: RS SUM base %.0fns, CS SUM base %.0fns\n",
				m.RS.AggBase["SUM"], m.CS.AggBase["SUM"])
		}
	}
}
