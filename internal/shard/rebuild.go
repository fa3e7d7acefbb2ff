package shard

import (
	"errors"
	"fmt"
	"time"

	"github.com/coax-index/coax/internal/lifecycle"
	"github.com/coax-index/coax/internal/obs"
)

// Online epoch-swap rebuild. A shard whose drift counters mark it stale is
// rebuilt off the query path: the live rows are collected while queries
// keep running, a fresh COAX (new soft-FD detection, new split, new epoch)
// is built with no locks held, the mutations that landed in the meantime
// are replayed from the shard's delta log, and the new epoch is swapped in
// RCU-style under one write lock. Shards rebuild independently, so only
// the rebuilding shard ever blocks — never during the expensive
// detection/build step. The collect step is bounded by a memory copy of
// the shard's rows; the swap step holds the write lock for the delta-log
// replay, so its cost is proportional to the mutations that landed during
// the rebuild (a write-heavy shard pays a longer pause at swap time).

// ErrRebuildInProgress is returned by RebuildShard when the shard is
// already mid-rebuild.
var ErrRebuildInProgress = errors.New("shard: rebuild already in progress")

// RebuildShard rebuilds shard i online and swaps the new epoch in. Queries
// proceed throughout; the shard's mutations block only while live rows are
// collected and while the delta log is replayed into the new epoch just
// before the swap. Concurrent rebuilds of the same shard are rejected with
// ErrRebuildInProgress; different shards may rebuild concurrently.
func (s *Sharded) RebuildShard(i int) error {
	if i < 0 || i >= len(s.shards) {
		return fmt.Errorf("shard: ordinal %d out of range [0,%d)", i, len(s.shards))
	}
	slot := s.shards[i]
	if !slot.rebuilding.CompareAndSwap(false, true) {
		return ErrRebuildInProgress
	}
	defer slot.rebuilding.Store(false)

	track := obs.On()
	var rebuildStart time.Time
	if track {
		rebuildStart = time.Now()
	}

	// Phase 1 — install the delta log and collect the live rows under one
	// read lock. Holding it excludes every mutator for the whole critical
	// section, so no mutation can slip between the log's creation and the
	// collection cut: every mutation from here on is both applied to the
	// old epoch and recorded for replay. Writing slot.delta under a read
	// lock is race-free because mutators only touch it write-locked.
	slot.mu.RLock()
	slot.delta = lifecycle.NewDeltaLog(s.dims)
	old := slot.idx
	live := old.LiveRows()
	slot.mu.RUnlock()

	// Phase 2 — build the replacement epoch with no locks held: soft-FD
	// detection and index construction run entirely off the query path.
	next, err := old.RebuildFrom(live)
	if err != nil {
		slot.mu.Lock()
		slot.delta = nil
		slot.mu.Unlock()
		if track {
			obs.RebuildFailures.Inc()
		}
		return err
	}

	// Phase 3 — catch up and swap under one write lock. Replay failure
	// aborts the swap and keeps the old epoch serving (the delta was also
	// applied to it, so nothing is lost).
	slot.mu.Lock()
	defer slot.mu.Unlock()
	replayOps := slot.delta.Len()
	err = slot.delta.Replay(next.Insert, next.Delete)
	slot.delta = nil
	if err != nil {
		if track {
			obs.RebuildFailures.Inc()
		}
		return fmt.Errorf("shard %d: %w", i, err)
	}
	slot.idx = next
	slot.writes.Reset()
	if track {
		obs.Rebuilds.Inc()
		obs.RebuildSeconds.Observe(time.Since(rebuildStart).Seconds())
		obs.RebuildReplayOps.Observe(float64(replayOps))
	}
	return nil
}

// StaleShards lists the shards currently stale under th, in ascending
// order. Shards mid-rebuild are skipped — their staleness is already being
// fixed.
func (s *Sharded) StaleShards(th lifecycle.Thresholds) []int {
	var out []int
	for i, slot := range s.shards {
		if slot.rebuilding.Load() {
			continue
		}
		slot.mu.RLock()
		st := slot.idx.LifecycleStats()
		slot.mu.RUnlock()
		if stale, _ := st.Stale(th); stale {
			out = append(out, i)
		}
	}
	return out
}

// RebuildStale rebuilds every shard stale under th, returning the ordinals
// rebuilt and the first error encountered (remaining stale shards are
// still attempted).
func (s *Sharded) RebuildStale(th lifecycle.Thresholds) (rebuilt []int, err error) {
	for _, i := range s.StaleShards(th) {
		if rerr := s.RebuildShard(i); rerr != nil {
			if err == nil {
				err = rerr
			}
			continue
		}
		rebuilt = append(rebuilt, i)
	}
	return rebuilt, err
}

// RebuildAll force-rebuilds every shard regardless of staleness (the
// /compact?force=true path), returning the ordinals rebuilt and the first
// error.
func (s *Sharded) RebuildAll() (rebuilt []int, err error) {
	for i := range s.shards {
		if rerr := s.RebuildShard(i); rerr != nil {
			if err == nil {
				err = rerr
			}
			continue
		}
		rebuilt = append(rebuilt, i)
	}
	return rebuilt, err
}

// Compact merges every shard's delta pages and drops its tombstones in
// place (no re-detection, no epoch change) — the cheap maintenance step
// between full rebuilds.
func (s *Sharded) Compact() {
	for _, slot := range s.shards {
		slot.mu.Lock()
		slot.idx.Compact()
		slot.writes.Reset()
		slot.mu.Unlock()
	}
}

// Epochs reports each shard's rebuild epoch — cheaper than a full
// per-shard stats pass when that is all a caller needs.
func (s *Sharded) Epochs() []uint64 {
	out := make([]uint64, len(s.shards))
	for i, slot := range s.shards {
		slot.mu.RLock()
		out[i] = slot.idx.Epoch()
		slot.mu.RUnlock()
	}
	return out
}

// ShardLifecycleStats reports each shard's lifecycle health snapshot.
func (s *Sharded) ShardLifecycleStats() []lifecycle.Stats {
	out := make([]lifecycle.Stats, len(s.shards))
	for i, slot := range s.shards {
		slot.mu.RLock()
		out[i] = slot.idx.LifecycleStats()
		slot.mu.RUnlock()
		out[i].Rebuilding = slot.rebuilding.Load()
	}
	return out
}

// LifecycleStats aggregates the per-shard snapshots into one engine-wide
// view (counts and epochs sum, ratios recompute, drift merges by column
// pair).
func (s *Sharded) LifecycleStats() lifecycle.Stats {
	return lifecycle.Merge(s.ShardLifecycleStats())
}

var _ lifecycle.Rebuildable = (*Sharded)(nil)
