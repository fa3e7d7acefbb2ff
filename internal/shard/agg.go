package shard

import (
	"sync/atomic"
	"time"

	"github.com/coax-index/coax/internal/core"
	"github.com/coax-index/coax/internal/index"
	"github.com/coax-index/coax/internal/obs"
)

// ExecAgg fans the aggregation described by aspec across the shards r can
// match and returns the merged state — the fan-out's aggregate sink. Each
// probe folds its shard's rows into a private index.AggState through the
// shard's batch kernels (core.ExecAgg), so no rows cross goroutines at all:
// the merge boundary carries one partial aggregate per shard. Partials are
// merged in shard order, making the floating-point result deterministic run
// to run for a fixed shard layout. spec.Ctx cancels the fan-out within
// about one page of work per worker (Limit and Stable are ignored —
// aggregates consume every matching row). A non-nil rep is filled with the
// fan-out report, including the kernels dispatched. The boolean reports
// whether every shard ran to completion; false (cancellation) leaves a
// partial fold in the returned state.
func (s *Sharded) ExecAgg(r index.Rect, spec index.Spec, aspec index.AggSpec, rep *Report) (*index.AggState, bool) {
	// Queries are counted exactly once, here.
	track := obs.On()
	var start time.Time
	if track {
		start = time.Now()
		obs.Queries.Inc()
		obs.AggQueries.Inc()
	}

	f := s.plan([]index.Rect{r}, spec)
	parts := make([]*index.AggState, len(f.probes))
	var incomplete atomic.Bool
	s.fanOut(f, rep, sink{scan: func(pi int, idx *core.COAX, crep *core.ProbeReport) func() {
		parts[pi] = index.NewAggState(aspec)
		if !idx.ExecAgg(r, index.Spec{Abort: f.stop.Load}, parts[pi], crep) {
			incomplete.Store(true)
		}
		if track {
			core.ObserveAggKernels(crep)
		}
		return nil
	}})
	total := index.NewAggState(aspec)
	for _, st := range parts {
		total.Merge(st)
	}

	cancelled := spec.Done()
	if track {
		obs.QuerySeconds.Observe(time.Since(start).Seconds())
		if cancelled {
			obs.QueryCancelled.Inc()
		}
	}
	return total, !cancelled && !incomplete.Load()
}
