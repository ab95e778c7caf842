// Package costmodel implements the paper's storage-advisor cost model
// (§3):
//
//	Costs = BaseCosts · QueryAdjustment · DataAdjustment
//
// Base costs are per query type and per store; the adjustments are
// composed from store-specific functions of the query characteristics
// (aggregation functions, grouping, selected columns, selectivity,
// affected rows/columns) and the data characteristics (row count, data
// types, compression rate). Following the paper, the adjustment functions
// are simple — constants, linear functions and piecewise-linear functions
// — and independent of one another, which keeps estimation O(1) per query.
//
// The model is initialized by Calibrate, which runs representative
// micro-benchmarks against the live engine and fits every base cost and
// adjustment function ("based on some representative tests the base costs
// and the adjustment functions are set to reflect the current system's
// hardware settings", §4). DefaultModel ships a deterministic analytic
// profile for tests.
package costmodel

import (
	"encoding/json"
	"fmt"
	"sort"

	"hybridstore/internal/agg"
	"hybridstore/internal/catalog"
	"hybridstore/internal/value"
)

// LinFn is a linear adjustment function f(x) = A·x + B.
type LinFn struct {
	A, B float64
}

// At evaluates the function.
func (f LinFn) At(x float64) float64 { return f.A*x + f.B }

// Normalized returns the function scaled so that f(x0) = 1.
func (f LinFn) Normalized(x0 float64) LinFn {
	d := f.At(x0)
	if d == 0 {
		return LinFn{A: 0, B: 1}
	}
	return LinFn{A: f.A / d, B: f.B / d}
}

// PiecewiseFn is a piecewise-linear adjustment function defined by sorted
// sample points; evaluation interpolates linearly and clamps at the ends.
type PiecewiseFn struct {
	Xs, Ys []float64
}

// At evaluates the function.
func (f PiecewiseFn) At(x float64) float64 {
	n := len(f.Xs)
	if n == 0 {
		return 1
	}
	if x <= f.Xs[0] {
		return f.Ys[0]
	}
	if x >= f.Xs[n-1] {
		return f.Ys[n-1]
	}
	i := sort.SearchFloat64s(f.Xs, x)
	// f.Xs[i-1] < x <= f.Xs[i]
	x0, x1 := f.Xs[i-1], f.Xs[i]
	y0, y1 := f.Ys[i-1], f.Ys[i]
	if x1 == x0 {
		return y1
	}
	return y0 + (y1-y0)*(x-x0)/(x1-x0)
}

// StoreParams holds every base cost and adjustment function for one store.
// All base costs are in nanoseconds at the calibration reference setting
// (RefRows rows, RefCompression compression rate, one aggregate on a
// Double column, no grouping), where every adjustment evaluates to 1.
type StoreParams struct {
	// Aggregation queries. AggQueryBase is the per-query scan cost shared
	// by all aggregates of one query (a calibrated extension of the
	// paper's purely additive formula: engines that compute several
	// aggregates in one pass have a large shared component); AggBase is
	// the marginal cost per aggregate.
	AggQueryBase float64
	AggBase      map[string]float64 // per aggregation function (keyed by name)
	DataTypeC    map[string]float64 // c_dataType, keyed by type name
	GroupByC     float64            // c_groupBy multiplier when grouping present

	RowsF        LinFn       // f_#rows, normalized to 1 at RefRows
	CompressionF PiecewiseFn // f_compression, normalized to 1 at RefCompression

	// Point and range selections.
	SelectBase float64
	SelColsF   LinFn // f_#selectedColumns (constant for the row store)
	SelIdxF    LinFn // f_selectivity when an index is available
	SelScanF   LinFn // f_selectivity without an index (row-store table scan)

	// Inserts.
	InsertBase float64 // per inserted row
	InsRowsF   LinFn   // f_#rows: growth with existing table size

	// Updates.
	UpdateBase float64
	UpdColsF   LinFn // f_#affectedColumns
	UpdRowsF   LinFn // f_#affectedRows
}

// Model is the full two-store cost model plus join base costs for all four
// store combinations.
type Model struct {
	RS, CS StoreParams

	// JoinBase[leftStore][rightStore] is the base cost of a reference join
	// query for that store combination, with left = fact/probe side and
	// right = dimension/build side.
	JoinBase map[string]map[string]float64

	// JoinGroupC[leftStore][rightStore] is the grouping multiplier for
	// join queries (grouping on the dimension side of a join behaves very
	// differently from single-table grouping — dictionary joins resolve
	// build-side groups once per build row).
	JoinGroupC map[string]map[string]float64

	// Calibration reference points.
	RefRows        int
	RefCompression float64
}

// storeKey renders a StoreKind as a JSON-friendly map key.
func storeKey(s catalog.StoreKind) string {
	if s == catalog.RowStore {
		return "ROW"
	}
	return "COLUMN"
}

// params returns the parameter block for a store.
func (m *Model) params(s catalog.StoreKind) *StoreParams {
	if s == catalog.RowStore {
		return &m.RS
	}
	return &m.CS
}

// StoreKey renders a StoreKind as a JSON-friendly map key ("ROW" or
// "COLUMN"); Partitioned placements use the column-store block.
func StoreKey(s catalog.StoreKind) string { return storeKey(s) }

// Params returns the mutable parameter block for a store; the calibrate
// package writes fitted coefficients through it.
func (m *Model) Params(s catalog.StoreKind) *StoreParams { return m.params(s) }

// aggBase returns the base cost for an aggregation function, falling back
// to SUM.
func (p *StoreParams) aggBase(f agg.Func) float64 {
	if c, ok := p.AggBase[f.String()]; ok {
		return c
	}
	return p.AggBase[agg.Sum.String()]
}

// dataTypeC returns c_dataType for a value type (1 when unknown).
func (p *StoreParams) dataTypeC(t value.Type) float64 {
	if c, ok := p.DataTypeC[t.String()]; ok {
		return c
	}
	return 1
}

// MarshalJSON/Unmarshal round-trip the model so offline mode can persist
// the calibrated "system-specific cost model" (paper Figure 4).
func (m *Model) MarshalJSON() ([]byte, error) {
	type alias Model
	return json.Marshal((*alias)(m))
}

// UnmarshalJSON restores a persisted model.
func (m *Model) UnmarshalJSON(data []byte) error {
	type alias Model
	if err := json.Unmarshal(data, (*alias)(m)); err != nil {
		return err
	}
	if m.RefRows <= 0 {
		return fmt.Errorf("costmodel: invalid RefRows %d", m.RefRows)
	}
	return nil
}

// DefaultModel returns a deterministic, machine-independent model whose
// parameters reflect the qualitative asymmetries of the two stores: the
// column store aggregates faster (and faster still on well-compressed
// data), the row store inserts, updates and point-selects faster, and
// cross-store joins pay a layout-conversion premium. Absolute values are
// in nanoseconds for a nominal reference of 100k rows.
func DefaultModel() *Model {
	ref := 100_000
	m := &Model{
		RefRows:        ref,
		RefCompression: 0.6,
		RS: StoreParams{
			AggBase: map[string]float64{
				"SUM": 2.0e6, "AVG": 2.1e6, "MIN": 2.0e6, "MAX": 2.0e6, "COUNT": 1.2e6,
			},
			DataTypeC: map[string]float64{
				"DOUBLE": 1, "INTEGER": 0.95, "BIGINT": 1, "VARCHAR": 1.4, "DATE": 1,
			},
			GroupByC:     1.5,
			RowsF:        LinFn{A: 1.0 / float64(ref), B: 0},
			CompressionF: PiecewiseFn{Xs: []float64{0, 1}, Ys: []float64{1, 1}},
			SelectBase:   1.5e6,
			SelColsF:     LinFn{A: 0, B: 1},
			SelIdxF:      LinFn{A: 1.0, B: 0.002},
			SelScanF:     LinFn{A: 0.15, B: 0.85},
			InsertBase:   900,
			InsRowsF:     LinFn{A: 0.1 / float64(ref), B: 0.9},
			UpdateBase:   2.0e4,
			UpdColsF:     LinFn{A: 0.02, B: 0.98},
			UpdRowsF:     LinFn{A: 0.9e-3, B: 0.1},
		},
		CS: StoreParams{
			AggBase: map[string]float64{
				"SUM": 2.5e5, "AVG": 2.6e5, "MIN": 2.5e5, "MAX": 2.5e5, "COUNT": 1.0e5,
			},
			DataTypeC: map[string]float64{
				"DOUBLE": 1, "INTEGER": 0.95, "BIGINT": 1, "VARCHAR": 1.2, "DATE": 1,
			},
			GroupByC:     1.8,
			RowsF:        LinFn{A: 1.0 / float64(ref), B: 0},
			CompressionF: PiecewiseFn{Xs: []float64{0, 0.6, 0.95}, Ys: []float64{1.6, 1.0, 0.55}},
			SelectBase:   2.2e6,
			SelColsF:     LinFn{A: 0.25, B: 0.75},
			SelIdxF:      LinFn{A: 0.6, B: 0.03},
			SelScanF:     LinFn{A: 0.6, B: 0.03},
			InsertBase:   2600,
			InsRowsF:     LinFn{A: 0.5 / float64(ref), B: 0.5},
			UpdateBase:   7.0e4,
			UpdColsF:     LinFn{A: 0.08, B: 0.92},
			UpdRowsF:     LinFn{A: 0.9e-3, B: 0.1},
		},
		// Join base costs are defined at the calibration reference, i.e.
		// divided by f_#rows of both sides; with a 1000-row dimension
		// (RowsF ≈ 0.01) they land at millisecond-scale estimates for a
		// 100k-row probe side.
		JoinBase: map[string]map[string]float64{
			"ROW": {
				"ROW":    6.0e8,
				"COLUMN": 7.0e8,
			},
			"COLUMN": {
				"ROW":    1.2e8,
				"COLUMN": 1.4e8,
			},
		},
		JoinGroupC: map[string]map[string]float64{
			"ROW":    {"ROW": 1.5, "COLUMN": 1.5},
			"COLUMN": {"ROW": 1.1, "COLUMN": 1.1},
		},
	}
	return m
}
