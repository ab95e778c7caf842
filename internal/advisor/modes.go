package advisor

import (
	"hybridstore/internal/catalog"
	"hybridstore/internal/costmodel"
	"hybridstore/internal/query"
)

// OfflineInput is the offline mode's input (paper Figure 4): the database
// schema with basic table statistics (via the catalog) and a recorded or
// expected workload.
type OfflineInput struct {
	Catalog  *catalog.Catalog
	Workload *query.Workload
	// Pinned fixes stores for specific tables.
	Pinned costmodel.Placement
}

// RecommendOffline computes an initial storage-layout recommendation from
// offline inputs. Extended workload statistics are approximated by
// replaying the workload through a recorder.
func (a *Advisor) RecommendOffline(in OfflineInput) *Recommendation {
	info := InfoFromCatalog(in.Catalog)
	return a.Recommend(in.Workload, info, deriveStats(in.Workload), in.Pinned)
}
