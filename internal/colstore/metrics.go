package colstore

import "hybridstore/internal/metrics"

// Cumulative column-store scan metrics: per-block zone-map outcomes,
// folded in once per finished scan (see scanCounts), and delta-vs-main
// row counts folded in once per scan batch stream. Together they show
// how much decode work the zone maps avoid and how much of the read
// traffic the write-optimized delta absorbs. The merge metrics are
// observed once per Table.Merge.
var (
	mBlocksDecoded = metrics.Default().Counter("hs_colstore_blocks_decoded_total",
		"main-fragment blocks the scan kernels had to decode")
	mBlocksZoneSkipped = metrics.Default().Counter("hs_colstore_blocks_zone_skipped_total",
		"main-fragment blocks excluded by zone maps without decoding")
	mBlocksZoneWholesale = metrics.Default().Counter("hs_colstore_blocks_zone_wholesale_total",
		"main-fragment blocks accepted wholesale by zone maps without decoding")
	mScanMainRows = metrics.Default().Counter("hs_colstore_scan_main_rows_total",
		"rows streamed out of compressed main fragments")
	mScanDeltaRows = metrics.Default().Counter("hs_colstore_scan_delta_rows_total",
		"rows streamed out of write-optimized delta fragments")
	mMergeSeconds = metrics.Default().Histogram("hs_colstore_merge_seconds",
		"duration of one delta merge of a column-store table", "seconds")
	mMergeRows = metrics.Default().Counter("hs_colstore_merge_rows_total",
		"rows in the main fragments delta merges produced")
)
