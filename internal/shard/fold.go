package shard

import (
	"slices"
	"sync/atomic"
	"time"

	"github.com/coax-index/coax/internal/core"
	"github.com/coax-index/coax/internal/index"
	"github.com/coax-index/coax/internal/obs"
)

// ExecAgg fans the aggregation described by aspec across the shards r can
// match and returns the merged state: each probe folds its shard into a
// private index.AggState, and the partials merge in shard order, so the
// floating-point result is deterministic run to run for a fixed shard
// layout. spec.Ctx and spec.Abort stop the fan-out within about one page of
// work per worker (Limit is ignored — aggregates consume every matching
// row). A non-nil rep is filled with the fan-out report, including
// the kernels dispatched. The boolean reports whether every shard ran to
// completion; false leaves a partial fold in the returned state.
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
	complete := s.fanOut(f, rep, func(pi int, idx *core.COAX, crep *core.ProbeReport) bool {
		parts[pi] = index.NewAggState(aspec)
		ok := idx.ExecAgg(r, index.Spec{Abort: f.aborted}, parts[pi], crep)
		if track {
			core.ObserveAggKernels(crep)
		}
		return ok
	})
	total := index.NewAggState(aspec)
	for _, st := range parts {
		total.Merge(st)
	}

	if track {
		obs.QuerySeconds.Observe(time.Since(start).Seconds())
		if spec.Done() {
			obs.QueryCancelled.Inc()
		}
	}
	return total, complete
}

// ExecRows answers a batch of rectangles as row replies in one fan-out:
// query qi's state holds its exact match count — capped at keep.Limit when
// positive — and its first keep.Keep matching rows (every row when
// negative) in shard order, then scan order — the same rows for the same
// index, whatever the worker timing. keep gives every query's Keep and
// Limit; its Count and Rows must be empty. Each probe folds its shard into
// a private index.RowsState, which copies a row only while fewer than Keep
// are held and counts the rest off the selection bitmap, so no match
// crosses the merge only to be dropped. A limited query stops each probe
// once the probes before it in merge order hold Limit rows between them,
// which leaves its answer unchanged. spec.Ctx and spec.Abort stop the
// fan-out within about one page of work per worker; spec.Limit is ignored
// (keep.Limit caps the count). Kept rows are private copies. A non-nil rep is
// filled with the fan-out report. The boolean reports whether every query
// ran to completion: false when the fan-out was stopped or a query reached
// its Limit.
func (s *Sharded) ExecRows(rs []index.Rect, spec index.Spec, keep index.RowsState, rep *Report) ([]index.RowsState, bool) {
	f, parts, complete := s.foldRows(rs, spec, keep, rep)
	size := make([]int, len(rs))
	for pi, p := range f.probes {
		size[p.qi] += len(parts[pi].Rows)
	}
	out := make([]index.RowsState, len(rs))
	for qi := range out {
		out[qi] = keep
		// Capped in rows, not values: Keep and Limit may be any int, and
		// either times dims can overflow.
		rows := size[qi] / s.dims
		if keep.Keep >= 0 {
			rows = min(rows, keep.Keep)
		}
		if keep.Limit > 0 {
			rows = min(rows, keep.Limit)
		}
		size[qi] = rows * s.dims
	}
	for pi, p := range f.probes {
		// The first probe holding rows hands its storage over; the rest
		// are appended into it, grown at most once to the query's total —
		// often not at all, into the spare capacity it already has.
		st := &out[p.qi]
		st.Merge(&parts[pi])
		st.Rows = slices.Grow(st.Rows, size[p.qi]-len(st.Rows))
	}
	return out, complete
}

// foldRows is ExecRows up to the merge: the fan-out, the query metrics, and
// the per-probe states, indexed like f.probes — in (query, shard) order.
func (s *Sharded) foldRows(rs []index.Rect, spec index.Spec, keep index.RowsState, rep *Report) (*fanout, []index.RowsState, bool) {
	// Queries are counted exactly once, here: one per rectangle, and one
	// latency per call — a query's, or a batch's.
	track := obs.On()
	var start time.Time
	if track {
		start = time.Now()
		obs.Queries.Add(int64(len(rs)))
	}

	f := s.plan(rs, spec)
	parts := make([]index.RowsState, len(f.probes))
	limit := int64(max(keep.Limit, 0))
	var done []atomic.Int64 // limited: 1 + the rows each completed probe counts
	if limit > 0 {
		done = make([]atomic.Int64, len(f.probes))
	}
	complete := s.fanOut(f, rep, func(pi int, idx *core.COAX, crep *core.ProbeReport) bool {
		// Folded into its own state and published once: workers share
		// parts' cache lines.
		qi, st := f.probes[pi].qi, keep
		defer func() { parts[pi] = st }()
		if done == nil {
			return idx.ExecAgg(rs[qi], index.Spec{Abort: f.aborted}, &st, crep)
		}
		// A limited query keeps its first Limit rows in merge order, so a
		// probe may stop once the completed probes before it count that many:
		// none of its rows could be merged, and the answer stays the same.
		covered := func() bool {
			var n int64
			for j := pi - 1; j >= 0 && f.probes[j].qi == qi; j-- {
				if c := done[j].Load(); c > 0 {
					n += c - 1
				}
			}
			return n >= limit
		}
		ok := idx.ExecAgg(rs[qi], index.Spec{Abort: func() bool { return f.aborted() || covered() }}, &st, crep)
		done[pi].Store(st.Count + 1)
		return ok
	})
	counts := make([]int64, len(rs))
	for pi, p := range f.probes {
		counts[p.qi] += parts[pi].Count
	}
	var rows, limited int64
	for _, n := range counts {
		if limit > 0 && n >= limit {
			n = limit
			limited++
			complete = false
		}
		rows += n
	}
	if track {
		if len(rs) == 1 {
			obs.QuerySeconds.Observe(time.Since(start).Seconds())
		} else {
			obs.BatchSeconds.Observe(time.Since(start).Seconds())
		}
		obs.QueryRows.Add(rows)
		if spec.Done() {
			obs.QueryCancelled.Inc()
		} else {
			obs.EarlyStops.Add(limited)
		}
	}
	return f, parts, complete
}

// BatchVisitor receives one matching row per call together with the batch
// position of the query it matched. The row slice is a stable copy (see the
// package comment on visitor ownership).
type BatchVisitor func(qi int, row []float64)

// BatchQuery answers a batch of rectangles in one fan-out: it is ExecRows
// keeping every row, then a visit of each probe's rows in (query, shard)
// order on the calling goroutine — the merged order, with no merge copy. No
// lock is held by then, so the visitor may mutate the index. Every query of
// the batch is answered exactly, including duplicates and empty rectangles.
func (s *Sharded) BatchQuery(rs []index.Rect, visit BatchVisitor) {
	f, parts, _ := s.foldRows(rs, index.Spec{}, index.RowsState{Keep: -1}, nil)
	for pi := range parts {
		st := &parts[pi]
		for i := 0; i < st.Held(); i++ {
			visit(f.probes[pi].qi, st.Row(i))
		}
	}
}
