package advisor

import (
	"fmt"

	"hybridstore/internal/catalog"
	"hybridstore/internal/costmodel"
	"hybridstore/internal/monitor"
)

// RecommendSnapshot is the online entry point: it computes a layout
// recommendation from a live monitor snapshot instead of a parsed
// workload file. The snapshot's retained query sample is the
// representative workload and its merged extended statistics replace the
// offline replay-derived recorder; table statistics come from the
// catalog, which callers should refresh (engine.CollectStats) before
// advising so the cost model sees current row counts.
func (a *Advisor) RecommendSnapshot(snap *monitor.Snapshot, cat *catalog.Catalog, pinned costmodel.Placement) (*Recommendation, error) {
	if snap == nil || snap.Queries.Len() == 0 {
		return nil, fmt.Errorf("advisor: snapshot carries no observed workload")
	}
	info := InfoFromCatalog(cat)
	return a.Recommend(snap.Queries, info, snap.Recorder, pinned), nil
}

// CurrentLayout reads the layout the catalog currently records for the
// snapshot's tables, so online callers can compare a recommendation's
// predicted cost against the cost of staying put (the hysteresis test in
// internal/migrate).
func CurrentLayout(snap *monitor.Snapshot, cat *catalog.Catalog) Layout {
	layout := Layout{Stores: costmodel.Placement{}, Partitions: map[string]*catalog.PartitionSpec{}}
	for _, name := range snap.Recorder.Tables() {
		e := cat.Table(name)
		if e == nil {
			continue
		}
		if e.Partitioning != nil {
			layout.Partitions[name] = e.Partitioning
			// Partitioned tables keep their cold-side store for the
			// table-level placement term.
			if h := e.Partitioning.Horizontal; h != nil {
				layout.Stores[name] = h.ColdStore
			} else {
				layout.Stores[name] = catalog.ColumnStore
			}
			continue
		}
		layout.Stores[name] = e.Store
	}
	return layout
}
