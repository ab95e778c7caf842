package calibrate

import (
	"encoding/json"
	"slices"
	"testing"

	"hybridstore/internal/costmodel"
)

// Calibration smoke test: run a tiny calibration against the real engine
// and check that the fitted model reproduces the qualitative asymmetries.
func TestCalibrateSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration is slow")
	}
	if raceEnabled {
		t.Skip("race-detector instrumentation distorts the timed store asymmetries")
	}
	// A calibration times each probe once, and it times the row store
	// before the column store, so a scheduler stall on a loaded host can
	// land on one store's sample alone. The store comparisons are made on
	// the median of three calibrations, whose samples interleave the two
	// stores.
	const runs = 3
	var csAgg, rsAgg, rsIns, csIns []float64
	var m *costmodel.Model
	for range runs {
		var err error
		if m, err = Calibrate(Config{RefRows: 8000, Reps: 1, Seed: 7}); err != nil {
			t.Fatal(err)
		}
		// Compare whole single-aggregate queries (shared scan intercept
		// plus the marginal per-aggregate cost).
		csAgg = append(csAgg, m.CS.AggQueryBase+m.CS.AggBase["SUM"])
		rsAgg = append(rsAgg, m.RS.AggQueryBase+m.RS.AggBase["SUM"])
		rsIns, csIns = append(rsIns, m.RS.InsertBase), append(csIns, m.CS.InsertBase)
		for _, p := range []*costmodel.StoreParams{&m.RS, &m.CS} {
			if p.SelectBase <= 0 || p.UpdateBase <= 0 || p.InsertBase <= 0 {
				t.Errorf("non-positive base costs: %+v", p)
			}
			if p.GroupByC <= 0 {
				t.Errorf("group-by multiplier = %v", p.GroupByC)
			}
		}
		for _, s1 := range []string{"ROW", "COLUMN"} {
			for _, s2 := range []string{"ROW", "COLUMN"} {
				if m.JoinBase[s1][s2] <= 0 {
					t.Errorf("join base %s/%s = %v", s1, s2, m.JoinBase[s1][s2])
				}
			}
		}
	}
	median := func(xs []float64) float64 {
		slices.Sort(xs)
		return xs[len(xs)/2]
	}
	if cs, rs := median(csAgg), median(rsAgg); cs >= rs {
		t.Errorf("calibrated CS aggregation should be faster: cs=%v rs=%v", cs, rs)
	}
	if rs, cs := median(rsIns), median(csIns); rs >= cs {
		t.Errorf("calibrated RS inserts should be faster: rs=%v cs=%v", rs, cs)
	}
	// A calibrated model must serialize (offline-mode persistence).
	if _, err := json.Marshal(m); err != nil {
		t.Errorf("marshal calibrated model: %v", err)
	}
}
