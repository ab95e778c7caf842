package monitor

import (
	"sync"
	"testing"

	"hybridstore/internal/agg"
	"hybridstore/internal/expr"
	"hybridstore/internal/query"
	"hybridstore/internal/value"
)

func TestObserveInsert(t *testing.T) {
	r := NewRecorder()
	r.Observe(&query.Query{
		Kind: query.Insert, Table: "T1",
		Rows: [][]value.Value{{value.NewInt(1)}, {value.NewInt(2)}},
	})
	ts := r.Table("t1")
	if ts == nil || ts.Inserts != 1 || ts.TotalQueries() != 1 {
		t.Fatalf("insert stats = %+v", ts)
	}
	if ts.InsertFraction() != 1 {
		t.Errorf("insert fraction = %v", ts.InsertFraction())
	}
}

func TestObserveUpdate(t *testing.T) {
	r := NewRecorder()
	q := &query.Query{
		Kind: query.Update, Table: "t",
		Set:  map[int]value.Value{2: value.NewInt(1), 3: value.NewInt(2)},
		Pred: &expr.Comparison{Col: 0, Op: expr.Eq, Val: value.NewInt(7)},
	}
	r.Observe(q)
	ts := r.Table("t")
	if ts.Updates != 1 {
		t.Errorf("update counters: %+v", ts)
	}
	if ts.AttrUpdates[2] != 1 || ts.AttrUpdates[3] != 1 {
		t.Errorf("attr updates: %v", ts.AttrUpdates)
	}
}

func TestObserveUpdateRangeTracking(t *testing.T) {
	r := NewRecorder()
	mk := func(lo, hi int64) *query.Query {
		return &query.Query{
			Kind: query.Update, Table: "t",
			Set: map[int]value.Value{1: value.NewInt(0)},
			Pred: &expr.And{Preds: []expr.Predicate{
				&expr.Comparison{Col: 0, Op: expr.Ge, Val: value.NewBigint(lo)},
				&expr.Comparison{Col: 0, Op: expr.Le, Val: value.NewBigint(hi)},
			}},
		}
	}
	r.Observe(mk(900, 950))
	r.Observe(mk(920, 990))
	r.Observe(mk(880, 910))
	ts := r.Table("t")
	if !ts.UpdateRangeSeen || ts.UpdateRangeCol != 0 {
		t.Fatalf("range not tracked: %+v", ts)
	}
	if ts.UpdateRangeLo.Int() != 880 || ts.UpdateRangeHi.Int() != 990 {
		t.Errorf("range = [%v, %v]", ts.UpdateRangeLo, ts.UpdateRangeHi)
	}
	if ts.UpdateRangeCount != 3 {
		t.Errorf("range count = %d", ts.UpdateRangeCount)
	}
}

func TestObserveSelectPointVsRange(t *testing.T) {
	r := NewRecorder()
	r.Observe(&query.Query{
		Kind: query.Select, Table: "t",
		Pred: &expr.Comparison{Col: 0, Op: expr.Eq, Val: value.NewInt(1)},
	})
	r.Observe(&query.Query{
		Kind: query.Select, Table: "t",
		Pred: &expr.Comparison{Col: 0, Op: expr.Gt, Val: value.NewInt(1)},
	})
	r.Observe(&query.Query{Kind: query.Select, Table: "t"})
	ts := r.Table("t")
	if ts.Selects != 3 || ts.TotalQueries() != 3 {
		t.Errorf("selects=%d total=%d, want 3/3", ts.Selects, ts.TotalQueries())
	}
}

func TestObserveAggregate(t *testing.T) {
	r := NewRecorder()
	r.Observe(&query.Query{
		Kind: query.Aggregate, Table: "t",
		Aggs:    []agg.Spec{{Func: agg.Sum, Col: 4}, {Func: agg.Count, Col: -1}},
		GroupBy: []int{1},
		Pred:    &expr.Comparison{Col: 2, Op: expr.Lt, Val: value.NewInt(9)},
	})
	ts := r.Table("t")
	if ts.Aggregations != 1 {
		t.Errorf("aggs = %d", ts.Aggregations)
	}
	if ts.AttrAggs[4] != 1 || ts.AttrGroupBys[1] != 1 || ts.AttrOLAPPreds[2] != 1 {
		t.Errorf("attr counters: aggs=%v gb=%v olap preds=%v", ts.AttrAggs, ts.AttrGroupBys, ts.AttrOLAPPreds)
	}
}

// TestObserveJoins: a join statement counts toward the table it runs
// against, and only that table is recorded.
func TestObserveJoins(t *testing.T) {
	r := NewRecorder()
	r.Observe(&query.Query{
		Kind: query.Aggregate, Table: "Fact",
		Aggs: []agg.Spec{{Func: agg.Sum, Col: 0}},
		Join: &query.Join{Table: "dim"},
	})
	r.Observe(&query.Query{
		Kind: query.Select, Table: "dim",
		Join: &query.Join{Table: "fact"},
	})
	if ts := r.Table("fact"); ts.Aggregations != 1 || ts.TotalQueries() != 1 {
		t.Errorf("fact stats: %+v", ts)
	}
	if ts := r.Table("dim"); ts.Selects != 1 || ts.TotalQueries() != 1 {
		t.Errorf("dim stats: %+v", ts)
	}
	if names := r.Tables(); len(names) != 2 || names[0] != "dim" || names[1] != "fact" {
		t.Errorf("Tables = %v", names)
	}
}

// TestTablesAndReset: Tables lists observed tables sorted and lower-cased,
// and a window resets an epoch by replacing its recorder with a fresh
// one, so a merge over the remaining epochs forgets the rotated-out
// tables.
func TestTablesAndReset(t *testing.T) {
	old, cur := NewRecorder(), NewRecorder()
	old.Observe(&query.Query{Kind: query.Select, Table: "b"})
	old.Observe(&query.Query{Kind: query.Select, Table: "A"})
	cur.Observe(&query.Query{Kind: query.Select, Table: "C"})
	if names := old.Tables(); len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("Tables = %v", names)
	}
	window := func(epochs ...*Recorder) *Recorder {
		merged := NewRecorder()
		for _, ep := range epochs {
			merged.Merge(ep)
		}
		return merged
	}
	if names := window(old, cur).Tables(); len(names) != 3 || names[0] != "a" || names[2] != "c" {
		t.Errorf("window Tables = %v", names)
	}
	old = NewRecorder()
	if len(old.Tables()) != 0 || old.Table("a") != nil {
		t.Error("a fresh recorder should hold no tables")
	}
	merged := window(old, cur)
	if names := merged.Tables(); len(names) != 1 || names[0] != "c" {
		t.Errorf("window Tables after reset = %v", names)
	}
	if merged.Table("A") != nil || merged.Table("c").Selects != 1 {
		t.Errorf("window after reset: a=%+v c=%+v", merged.Table("a"), merged.Table("c"))
	}
}

// TestConcurrentObserveAndRead exercises recorders the way the live
// monitor's epochs use them (run with -race): each recorder has one
// writer, snapshots taken from it are read on other goroutines while the
// writer keeps observing, and the recorders are merged once the writers
// stop. Table returns deep copies, so readers never share the live
// counters.
func TestConcurrentObserveAndRead(t *testing.T) {
	const writers, perWriter = 4, 500
	recs := make([]*Recorder, writers)
	snaps := make(chan *TableStats, writers)
	var readers, wg sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for ts := range snaps {
			sum := 0
			for _, v := range ts.AttrUpdates {
				sum += v
			}
			if sum != ts.Updates {
				t.Errorf("snapshot attr updates %d != updates %d", sum, ts.Updates)
			}
		}
	}()
	for g := 0; g < writers; g++ {
		recs[g] = NewRecorder()
		wg.Add(1)
		go func(r *Recorder, g int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				r.Observe(&query.Query{
					Kind: query.Update, Table: "t",
					Pred: &expr.Comparison{Col: 0, Op: expr.Eq, Val: value.NewInt(int64(i))},
					Set:  map[int]value.Value{1: value.NewInt(int64(g))},
				})
				r.Observe(&query.Query{
					Kind: query.Aggregate, Table: "t",
					Aggs: []agg.Spec{{Func: agg.Sum, Col: 2}},
				})
				if i%50 == 0 {
					snaps <- r.Table("t")
				}
			}
		}(recs[g], g)
	}
	wg.Wait()
	close(snaps)
	readers.Wait()
	merged := NewRecorder()
	for _, r := range recs {
		merged.Merge(r)
	}
	ts := merged.Table("t")
	if ts == nil || ts.Updates != writers*perWriter || ts.Aggregations != writers*perWriter {
		t.Fatalf("final counts: %+v", ts)
	}
	if ts.TotalQueries() != 2*writers*perWriter || ts.AttrUpdates[1] != writers*perWriter {
		t.Errorf("total = %d, attr updates = %v", ts.TotalQueries(), ts.AttrUpdates)
	}
}

func TestObserveDelete(t *testing.T) {
	r := NewRecorder()
	r.Observe(&query.Query{
		Kind: query.Delete, Table: "t",
		Pred: &expr.Comparison{Col: 1, Op: expr.Lt, Val: value.NewInt(0)},
	})
	ts := r.Table("t")
	if ts.Deletes != 1 || ts.TotalQueries() != 1 {
		t.Errorf("delete stats: %+v", ts)
	}
}

func TestTableReturnsSnapshot(t *testing.T) {
	r := NewRecorder()
	r.Observe(&query.Query{
		Kind: query.Update, Table: "t",
		Pred: &expr.Comparison{Col: 0, Op: expr.Eq, Val: value.NewInt(1)},
		Set:  map[int]value.Value{1: value.NewInt(9)},
	})
	snap := r.Table("t")
	snap.Updates = 99
	snap.AttrUpdates[1] = 99
	if ts := r.Table("t"); ts.Updates != 1 || ts.AttrUpdates[1] != 1 {
		t.Error("Table must return a deep copy, not the live record")
	}
}

func TestRecorderMerge(t *testing.T) {
	mk := func(n int) *Recorder {
		r := NewRecorder()
		for i := 0; i < n; i++ {
			r.Observe(&query.Query{
				Kind: query.Update, Table: "t",
				Pred: &expr.Between{Col: 0, Lo: value.NewInt(int64(10 * i)), Hi: value.NewInt(int64(10*i + 5))},
				Set:  map[int]value.Value{1: value.NewInt(1)},
			})
		}
		return r
	}
	a, b := mk(3), mk(2)
	b.Observe(&query.Query{Kind: query.Select, Table: "u"})
	a.Merge(b)
	ts := a.Table("t")
	if ts.Updates != 5 {
		t.Errorf("merged updates = %d", ts.Updates)
	}
	if !ts.UpdateRangeSeen || ts.UpdateRangeCount != 5 {
		t.Errorf("merged range tracking: seen=%v count=%d", ts.UpdateRangeSeen, ts.UpdateRangeCount)
	}
	if hi := ts.UpdateRangeHi.Int(); hi != 25 {
		t.Errorf("merged range hi = %d", hi)
	}
	if u := a.Table("u"); u == nil || u.Selects != 1 {
		t.Errorf("merge missed table u: %+v", u)
	}
	// The merged record is a copy: observing more into b leaves a alone.
	b.Observe(&query.Query{Kind: query.Select, Table: "u"})
	if u := a.Table("u"); u.Selects != 1 {
		t.Errorf("merge aliased b's record: %+v", u)
	}
}
