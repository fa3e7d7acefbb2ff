// Package serve is the serving-tier hardening layer over the sharded
// engine: a bounded result cache for hot queries that a write evicts only
// when it lands inside the cached rectangle, single-flight coalescing of
// identical in-flight queries, and admission control under overload.
// cmd/coaxserve mounts all three in front of its /query and /batch
// handlers; everything is instrumented through internal/obs so /metrics and
// /stats show hit rates, revalidations, coalescing, and shed traffic.
//
// # Invalidation contract
//
// The cache never revalidates by re-executing a query; it relies on the
// engine's per-shard mutation versions and the row images each shard
// records for its recent writes (shard.Sharded.ShardVersion and Touched).
// Before a query executes, the versions of every shard its rectangle can
// probe (shard.Sharded.ShardSpan) are captured; the computed answer is
// cached together with that capture and its rectangle. A lookup serves the
// entry while every captured version still reads the same. When one moved,
// the lookup asks the shard whether any write since the capture wrote a row
// image — the inserted or deleted row, an update's old and new rows — inside
// the rectangle. If none did, the answer is unchanged bit for bit (see
// shard.WriteRing for why), the capture is refreshed to the current version
// and the entry is served: a revalidation. If one did, or the shard cannot
// tell — a compaction, an epoch-swap rebuild, or more writes than its ring
// holds since the capture — the entry is evicted. Every mutation records its
// version and images before releasing its shard's lock, so a write is
// visible to lookups before it is acknowledged to its caller. Because the
// capture happens before the scan, a write inside the rectangle that lands
// while the query is still running also evicts: the entry is stored already
// stale and is evicted on first touch instead of ever being served. The cost
// of the conservatism is only a lost cache slot, never a stale answer.
package serve

import (
	"encoding/binary"
	"math"

	"github.com/coax-index/coax/internal/index"
	"github.com/coax-index/coax/internal/obs"
)

// Invalidator is the slice of the sharded engine the cache needs: the
// per-shard mutation versions, the shard span a rectangle can probe, and
// whether the writes to a shard since a capture touched a rectangle.
// *shard.Sharded and *cluster.Router implement it.
type Invalidator interface {
	NumShards() int
	ShardVersion(i int) uint64
	ShardSpan(r index.Rect) (lo, hi int)
	// Touched reports shard i's current version and whether an answer to r
	// captured at version since may have changed. It is false only when
	// every write since the capture is known and none wrote a row inside r.
	Touched(i int, since uint64, r index.Rect) (now uint64, touched bool)
}

// Key canonicalizes one rectangle query into a cache/coalescing key: the
// bit patterns of every bound, the row limit, the early-termination flag,
// and a canonical aggregation descriptor (empty for row queries). Two
// requests producing the same key are answerable by the same response
// bytes, so the key is also the single-flight identity. Within one engine
// every rectangle has the same dimensionality, so row keys (fixed length)
// and agg keys (fixed length plus descriptor) can never collide.
func Key(r index.Rect, limit int, early bool, agg string) string {
	b := make([]byte, 0, 16*len(r.Min)+9+len(agg))
	var w [8]byte
	for _, v := range r.Min {
		binary.LittleEndian.PutUint64(w[:], math.Float64bits(v))
		b = append(b, w[:]...)
	}
	for _, v := range r.Max {
		binary.LittleEndian.PutUint64(w[:], math.Float64bits(v))
		b = append(b, w[:]...)
	}
	binary.LittleEndian.PutUint64(w[:], uint64(int64(limit)))
	b = append(b, w[:]...)
	if early {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = append(b, agg...)
	return string(b)
}

// QueryCache composes the result cache with single-flight coalescing over
// one engine. Safe for fully concurrent use.
type QueryCache struct {
	src    Invalidator
	cache  *Cache
	flight flightGroup
}

// NewQueryCache builds a query cache of at most capacity entries over src
// and registers the cache-occupancy gauges (latest registration wins, like
// the index-health gauges).
func NewQueryCache(src Invalidator, capacity int) *QueryCache {
	qc := &QueryCache{src: src, cache: NewCache(src, capacity)}
	obs.NewGaugeFunc("coax_cache_entries", "Entries currently held by the result cache.",
		func() float64 { return float64(qc.cache.Len()) })
	obs.NewGaugeFunc("coax_cache_bytes", "Reply bytes currently held by the result cache.",
		func() float64 { return float64(qc.cache.bytes.Load()) })
	return qc
}

// Do answers one canonicalized query: a valid cached entry is returned
// immediately; otherwise identical concurrent misses coalesce onto one
// compute call whose (shared, read-only) result every caller receives and
// the cache retains. compute's result must therefore never be mutated by
// callers. fromCache reports whether the value was served from the cache
// without running compute. A compute error is returned to every coalesced
// caller and nothing is cached — callers whose own context is still live
// should fall back to computing directly, since the error may belong to
// the leader's request (a disconnected client cancelling the shared scan).
func (qc *QueryCache) Do(key string, r index.Rect, compute func() (any, error)) (v any, fromCache bool, err error) {
	if v, ok := qc.cache.Get(key); ok {
		return v, true, nil
	}
	v, err, shared := qc.flight.Do(key, func() (any, error) {
		// Capture the span's versions BEFORE the scan: a mutation landing
		// mid-scan then mismatches at serve time (see the package comment).
		lo, hi := qc.src.ShardSpan(r)
		vers := make([]uint64, hi-lo+1)
		for i := range vers {
			vers[i] = qc.src.ShardVersion(lo + i)
		}
		val, cerr := compute()
		if cerr != nil {
			return nil, cerr
		}
		qc.cache.Put(key, r, lo, vers, val)
		return val, nil
	})
	if shared {
		coalescedRequests.Inc()
	}
	return v, false, err
}

// Stats snapshots the cache counters for /stats.
func (qc *QueryCache) Stats() CacheStats { return qc.cache.Stats() }
