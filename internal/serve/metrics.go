package serve

import "github.com/coax-index/coax/internal/obs"

// Serving-tier metric families: result cache, request coalescing, and
// admission control. Cache and coalescing counters are process-global
// (multiple caches in one process — tests, the bench's in-process server —
// sum into them; per-instance numbers come from Cache.Stats). The gauges
// are callback-backed and follow the registry's latest-structure-wins
// replacement rule.
var (
	cacheHits        = obs.NewCounter("coax_cache_hits_total", "Result-cache lookups answered from a valid cached entry (includes revalidations).")
	cacheMisses      = obs.NewCounter("coax_cache_misses_total", "Result-cache lookups that had to execute the query (includes stale evictions).")
	cacheRevalidated = obs.NewCounter("coax_cache_revalidations_total", "Result-cache hits served after a shard mutation version moved past their capture with no write inside their rectangle.")
	cacheStaleEvicts = obs.NewCounter("coax_cache_stale_evictions_total", "Cached entries evicted because a write since their capture may have landed inside their rectangle.")
	cacheEvicts      = obs.NewCounter("coax_cache_lru_evictions_total", "Cached entries evicted by LRU capacity pressure.")

	coalescedRequests = obs.NewCounter("coax_coalesced_requests_total", "Requests that shared another identical in-flight query's execution instead of running their own.")

	admInflight      = obs.NewGauge("coax_admission_inflight", "Execution slots currently held by admitted requests.")
	admQueued        = obs.NewGauge("coax_admission_queued", "Requests currently waiting for an execution slot.")
	admShedQueueFull = obs.NewCounter("coax_admission_shed_total", "Requests shed by admission control.", obs.Label{Key: "reason", Value: "queue_full"})
	admShedTimeout   = obs.NewCounter("coax_admission_shed_total", "Requests shed by admission control.", obs.Label{Key: "reason", Value: "timeout"})
	admQueueWait     = obs.NewHistogram("coax_admission_queue_wait_seconds", "Time admitted requests spent waiting for an execution slot.", 1e-6, 60)
)
