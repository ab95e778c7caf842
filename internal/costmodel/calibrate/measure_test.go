package calibrate

import (
	"math/rand"
	"testing"

	"hybridstore/internal/agg"
	"hybridstore/internal/catalog"
	"hybridstore/internal/engine"
	"hybridstore/internal/query"
)

// countObserver counts the statements an engine executed.
type countObserver struct{ n int }

func (o *countObserver) Observe(*query.Query) { o.n++ }
func (o *countObserver) Dropped(string)       {}

// TestMeasureWarmsUp: a probe runs once untimed before its timed runs, so
// its median leaves out what only a first execution pays — at Reps 1 too.
func TestMeasureWarmsUp(t *testing.T) {
	for _, reps := range []int{1, 3} {
		c := &calibrator{cfg: Config{Reps: reps}, db: engine.New(), rng: rand.New(rand.NewSource(1))}
		if err := c.loadTable("warm", catalog.ColumnStore, 100, 10); err != nil {
			t.Fatal(err)
		}
		obs := &countObserver{}
		c.db.SetObserver(obs)
		if _, err := c.measure(&query.Query{Kind: query.Aggregate, Table: "warm", Aggs: []agg.Spec{{Func: agg.Sum, Col: calD}}}); err != nil {
			t.Fatal(err)
		}
		if obs.n != reps+1 {
			t.Errorf("Reps %d: the probe ran %d times, want %d", reps, obs.n, reps+1)
		}
	}
}
