package obs

import (
	"expvar"
	"sync"
)

// The repository's metric families, one var block per instrumented plane.
// Everything lives in the Default registry; families that split by constant
// label (partition, phase) register one series per value so the hot path
// never formats labels. Ordering inside a block is ordering on the
// /metrics page.

// Query plane — updated by internal/shard (the fan-out and its sinks) and
// by coax.Query.Run/Head/Aggregate for single-index and generic execution.
// Queries are counted exactly once, at the layer that owns the whole query:
// shard.Exec, shard.ExecAgg, shard.ExecRows, or the coax package — never in
// core, which shards invoke once per probed shard.
var (
	Queries        = NewCounter("coax_queries_total", "Queries executed (all paths: single, batch, generic).")
	QuerySeconds   = NewHistogram("coax_query_seconds", "End-to-end query latency in seconds.", 1e-6, 10)
	BatchSeconds   = NewHistogram("coax_batch_seconds", "End-to-end batch latency in seconds (one observation per multi-rectangle fan-out).", 1e-6, 10)
	QueryRows      = NewCounter("coax_query_rows_total", "Rows matched by queries, capped at their limit.")
	EarlyStops     = NewCounter("coax_query_early_stops_total", "Queries stopped early by a met limit.")
	QueryCancelled = NewCounter("coax_query_cancelled_total", "Queries stopped by context cancellation.")

	ShardScanSeconds = NewHistogram("coax_shard_scan_seconds", "Per-shard probe latency in seconds.", 1e-7, 10)
	ShardsProbed     = NewCounter("coax_shards_probed_total", "Shard probes issued by fan-outs.")
	ShardsPruned     = NewCounter("coax_shards_pruned_total", "Shards skipped by fan-out range pruning.")

	ScanPagesPrimary   = NewCounter("coax_scan_pages_total", "Index pages touched by scans.", Label{"partition", "primary"})
	ScanPagesOutlier   = NewCounter("coax_scan_pages_total", "Index pages touched by scans.", Label{"partition", "outlier"})
	ScanRowsPrimary    = NewCounter("coax_scan_rows_total", "Rows examined by scans (before residual filtering).", Label{"partition", "primary"})
	ScanRowsOutlier    = NewCounter("coax_scan_rows_total", "Rows examined by scans (before residual filtering).", Label{"partition", "outlier"})
	ScanTombstones     = NewCounter("coax_scan_tombstones_total", "Tombstoned rows skipped by scans.")
	Translations       = NewCounter("coax_translations_total", "Soft-FD constraint translations performed.")
	TranslationsInfeas = NewCounter("coax_translations_infeasible_total", "Translations yielding an empty predictor interval (query answered from the outlier partition alone).")
)

// Batch-kernel plane — updated by the layers that own whole queries. Every
// execution, rows or aggregate, runs the batch scan kernels, so
// core.ObserveProbe folds Probe.Batches for both; the aggregation paths
// additionally count dispatches and selected rows. Both partitions are grid
// files, so the one dispatch series is grid-batch's, pre-registered so the
// hot path never formats labels.
var (
	AggQueries        = NewCounter("coax_agg_queries_total", "Aggregation queries executed through the pushdown path.")
	ScanBatches       = NewCounter("coax_scan_batches_total", "Selection-bitmap batches processed by the scan kernels (row and aggregate queries).")
	BatchRowsSelected = NewCounter("coax_scan_batch_rows_selected_total", "Rows selected by batch kernels' bitmaps (popcount over selection words).")

	KernelGridBatch = NewCounter("coax_kernel_dispatch_total", "Scan-kernel dispatches by kernel name.", Label{"kernel", "grid-batch"})
)

// Mutation plane — updated by internal/core on successful mutations (the
// serving layer counts rejected mutations separately, so validation
// failures are not double-counted here).
var (
	Inserts        = NewCounter("coax_inserts_total", "Rows inserted (engine-level: includes delta-log replay during rebuilds; subtract coax_rebuild_replay_ops for the caller-facing rate).")
	Deletes        = NewCounter("coax_deletes_total", "Rows deleted (engine-level: includes delta-log replay during rebuilds).")
	Updates        = NewCounter("coax_updates_total", "Rows updated.")
	InsertOutliers = NewCounter("coax_insert_outliers_total", "Inserted rows placed in the outlier partition (model miss).")
	Compactions    = NewCounter("coax_compactions_total", "In-place compactions (delta merge + tombstone drop).")
	CompactSeconds = NewHistogram("coax_compact_seconds", "In-place compaction latency in seconds.", 1e-6, 100)
)

// Lifecycle plane — updated by internal/shard's epoch-swap rebuild and by
// the lifecycle compactor's sweeps.
var (
	Rebuilds         = NewCounter("coax_rebuilds_total", "Online epoch-swap shard rebuilds completed.")
	RebuildFailures  = NewCounter("coax_rebuild_failures_total", "Shard rebuilds that failed and kept the old epoch serving.")
	RebuildSeconds   = NewHistogram("coax_rebuild_seconds", "Epoch-swap rebuild duration in seconds (collect + build + replay).", 1e-3, 1000)
	RebuildReplayOps = NewHistogram("coax_rebuild_replay_ops", "Delta-log operations replayed into the new epoch at swap time.", 1, 1e7)
	CompactorSweeps  = NewCounter("coax_compactor_sweeps_total", "Background compactor sweeps completed.")
	CompactorLast    = NewGauge("coax_compactor_last_sweep_timestamp_seconds", "Unix time of the last completed compactor sweep.")
)

// Build plane — updated by the coax.Builder pipeline.
var (
	Builds           = NewCounter("coax_builds_total", "Index builds completed.")
	BuildRows        = NewCounter("coax_build_rows_total", "Rows ingested by index builds.")
	BuildSeconds     = NewHistogram("coax_build_seconds", "End-to-end build duration in seconds.", 1e-3, 10000)
	BuildPhaseSample = NewHistogram("coax_build_phase_seconds", "Per-phase build duration in seconds.", 1e-4, 10000, Label{"phase", "sample"})
	BuildPhaseDetect = NewHistogram("coax_build_phase_seconds", "Per-phase build duration in seconds.", 1e-4, 10000, Label{"phase", "detect"})
	BuildPhasePlace  = NewHistogram("coax_build_phase_seconds", "Per-phase build duration in seconds.", 1e-4, 10000, Label{"phase", "place"})
	BuildPhaseFinish = NewHistogram("coax_build_phase_seconds", "Per-phase build duration in seconds.", 1e-4, 10000, Label{"phase", "finish"})
	BuildReservoir   = NewGauge("coax_build_reservoir_fill_ratio", "Fraction of the sampling reservoir filled by the last build's sample phase.")
	BuildPeakHeap    = NewGauge("coax_build_peak_heap_bytes", "Peak heap (runtime.MemStats.HeapAlloc) sampled during the last build's place phase.")
)

// BuildPhase returns the per-phase build histogram for a Builder phase
// name, or nil for an unknown phase.
func BuildPhase(phase string) *Histogram {
	switch phase {
	case "sample":
		return BuildPhaseSample
	case "detect":
		return BuildPhaseDetect
	case "place":
		return BuildPhasePlace
	case "finish":
		return BuildPhaseFinish
	}
	return nil
}

// Cluster plane — updated by internal/wire (frame accounting on every
// connection) and internal/cluster (router scatter-gather, hedging,
// failover, breaker state, node request serving).
var (
	WireBytesSent  = NewCounter("coax_wire_bytes_sent_total", "Bytes written to cluster wire-protocol connections (including framing).")
	WireBytesRecv  = NewCounter("coax_wire_bytes_recv_total", "Bytes read from cluster wire-protocol connections (including framing).")
	WireFramesSent = NewCounter("coax_wire_frames_sent_total", "Frames written to cluster wire-protocol connections.")
	WireFramesRecv = NewCounter("coax_wire_frames_recv_total", "Frames read from cluster wire-protocol connections.")

	ClusterRPCs         = NewCounter("coax_cluster_rpcs_total", "Node RPCs issued by the router (queries, aggregates, mutations, stats).")
	ClusterRPCErrors    = NewCounter("coax_cluster_rpc_errors_total", "Node RPCs that failed with a transport or protocol error.")
	ClusterRPCSeconds   = NewHistogram("coax_cluster_rpc_seconds", "Per-node RPC latency in seconds, as seen by the router.", 1e-6, 100)
	ClusterHedges       = NewCounter("coax_cluster_hedged_reads_total", "Hedged replica reads launched after the hedge delay elapsed.")
	ClusterHedgeWins    = NewCounter("coax_cluster_hedge_wins_total", "Shards whose first completed scan came from a hedged replica.")
	ClusterFailovers    = NewCounter("coax_cluster_failovers_total", "Shards re-fetched from another replica after a node failure.")
	ClusterBreakerOpen  = NewCounter("coax_cluster_breaker_opens_total", "Per-node circuit breaker transitions into the open state.")
	ClusterShardsProbed = NewCounter("coax_cluster_shards_probed_total", "Global shards the router asked for, one per shard a rectangle's range can match.")
	ClusterShardsPruned = NewCounter("coax_cluster_shards_pruned_total", "Global shards the router skipped because the rectangle's range cannot reach them.")
	ClusterRowsReceived = NewCounter("coax_cluster_rows_received_total", "Rows the router received from nodes, hedged and failed-over attempts included.")

	NodeRequests  = NewCounter("coax_node_requests_total", "Requests served by this process's cluster node listener.")
	NodeShed      = NewCounter("coax_node_shed_total", "Node requests rejected with an overload error.")
	NodeCancelled = NewCounter("coax_node_cancelled_total", "Node requests stopped early by a client cancel frame or dropped connection.")
)

var publishOnce sync.Once

// PublishExpvar publishes the Default registry under the expvar key
// "coax". Safe to call more than once; the expvar variable re-snapshots on
// every read.
func PublishExpvar() {
	publishOnce.Do(func() {
		expvar.Publish("coax", expvar.Func(func() any {
			return Default.Snapshot()
		}))
	})
}
