package shard

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/coax-index/coax/internal/core"
	"github.com/coax-index/coax/internal/index"
	"github.com/coax-index/coax/internal/obs"
)

// Query execution for the sharded engine: one fan-out (fanOut) with two
// sinks on it. Exec streams rows to the caller while the fan-out is still
// running, so a satisfied limit, a false-returning yield, or a cancelled
// context stops every worker promptly — the price of streaming is delivery
// order: rows arrive in whatever order the shards produce them. The fold
// sink (fold.go) gives each probe a private fold state and merges the states
// in (query, shard) order once every probe has finished: ExecAgg folds
// aggregates, ExecRows folds row replies (an exact count and the first rows),
// and BatchQuery visits the rows of a fold that keeps them all.

// scanChunkRows is how many rows a worker accumulates before handing a
// chunk to the merge loop; limited scans shrink it to the limit so the
// first satisfying rows are delivered (and the fan-out stopped) as early as
// possible.
const scanChunkRows = 128

// Report describes one v2 fan-out: how many shards the rectangle pruned
// versus probed, plus the aggregated per-shard execution report
// (translations are recorded once — every shard shares the same learned
// models, so they translate identically).
type Report struct {
	ShardsProbed int
	ShardsPruned int
	Core         core.ProbeReport
}

// Columns returns the column names of the underlying table (empty when the
// build table carried none).
func (s *Sharded) Columns() []string {
	slot := s.shards[0]
	slot.mu.RLock()
	defer slot.mu.RUnlock()
	return slot.idx.Columns()
}

// Scan implements index.Interface over Exec.
func (s *Sharded) Scan(r index.Rect, yield index.Yield, probe *index.Probe) bool {
	var rep *Report
	if probe != nil {
		rep = &Report{}
	}
	complete := s.Exec(r, index.Spec{}, yield, rep)
	if probe != nil {
		probe.Add(rep.Core.Primary)
		probe.Add(rep.Core.Outlier)
	}
	return complete
}

// probe is one (query, shard) unit of a fan-out.
type probe struct{ qi, si int }

// fanout is one fan-out in flight.
type fanout struct {
	spec index.Spec
	// probes lists every (query, shard) pair the rectangles can match,
	// query-major — the order sinks merge in; pruned counts the pairs
	// range routing (or an empty rectangle) ruled out.
	probes []probe
	pruned int
	// inline: a pool of one worker is the caller — the probes run on the
	// calling goroutine, with no goroutine to start and no hand-off to pay
	// for. It is most queries that constrain the range column.
	inline bool
	// stop is the shared stop flag: every scan polls it once per page as
	// its abort hook, a done context raises it, and a sink may raise it (a
	// declined yield, a met limit) to stop every other worker.
	stop atomic.Bool
}

// aborted is a fold probe's abort hook: the shared stop flag, or the
// caller's own hook (a cluster node's per-request cancel flag).
func (f *fanout) aborted() bool {
	return f.stop.Load() || f.spec.Abort != nil && f.spec.Abort()
}

// plan lists the probes of a batch; empty rectangles match no shard.
func (s *Sharded) plan(rs []index.Rect, spec index.Spec) *fanout {
	f := &fanout{spec: spec, probes: make([]probe, 0, len(rs))}
	for qi, r := range rs {
		if r.Empty() {
			continue
		}
		lo, hi := s.shardRange(r)
		for si := lo; si <= hi; si++ {
			f.probes = append(f.probes, probe{qi, si})
		}
	}
	f.pruned = len(rs)*len(s.shards) - len(f.probes)
	f.inline = min(s.workers, len(f.probes)) == 1
	return f
}

// sink is what one kind of query does with a fan-out's probes.
type sink struct {
	// scan runs probe pi against its shard under the shard's read lock, so
	// it must not block, passing rep to the engine. The function it
	// returns, if any, runs once the lock is released — the place for
	// sends that may wait on the consumer.
	scan func(pi int, idx *core.COAX, rep *core.ProbeReport) (unlocked func())
	// gather, if set, runs on the calling goroutine while the workers run;
	// finished, if set, is called by the last worker once every probe is
	// done, so a gather ranging over a channel can have it closed. Neither
	// runs for an inline fan-out: its unlocked hooks are already on the
	// calling goroutine.
	gather   func()
	finished func()
}

// fanOut is the one fan-out behind Exec and the fold sink: it runs
// every probe of f through k.scan on a bounded worker pool, stops them all
// when the context is done, times each probe (coax_shard_scan_seconds, and
// one trace span when the spec carries a trace), and once every worker has
// finished merges the per-probe reports into rep and the scan metrics.
// This layer owns whole queries, so it is where their page/row/translation
// counters are fed — core runs once per probe and must not count.
func (s *Sharded) fanOut(f *fanout, rep *Report, k sink) {
	track := obs.On()
	if rep != nil {
		rep.ShardsProbed, rep.ShardsPruned = len(f.probes), f.pruned
	}
	if track {
		obs.ShardsProbed.Add(int64(len(f.probes)))
		obs.ShardsPruned.Add(int64(f.pruned))
	}
	if len(f.probes) == 0 {
		return
	}
	if ctx := f.spec.Ctx; ctx != nil {
		// AfterFunc runs on its own goroutine even for a context that is
		// already done; that case must not scan anything first.
		f.stop.Store(ctx.Err() != nil)
		unwatch := context.AfterFunc(ctx, func() { f.stop.Store(true) })
		defer unwatch()
	}
	// With instrumentation on, per-probe reports exist even when the caller
	// asked for none, so the counters are fed from the same ProbeReport
	// plumbing EXPLAIN uses.
	var reps []core.ProbeReport
	if rep != nil || track || f.spec.Trace != nil {
		reps = make([]core.ProbeReport, len(f.probes))
	}

	// A batch executes shard-major (counting sort by shard): consecutive
	// probes hit the same shard's pages, keeping large batches
	// cache-resident per shard. Merge order is unaffected — sinks index
	// their results by probe.
	order := make([]int, len(f.probes))
	starts := make([]int, len(s.shards)+1)
	for _, p := range f.probes {
		starts[p.si+1]++
	}
	for si := 1; si <= len(s.shards); si++ {
		starts[si] += starts[si-1]
	}
	for pi, p := range f.probes {
		order[starts[p.si]] = pi
		starts[p.si]++
	}

	if f.inline {
		for _, pi := range order {
			s.runProbe(f, pi, reps, track, k.scan)
		}
	} else {
		workers := min(s.workers, len(f.probes))
		var next, live atomic.Int32
		live.Store(int32(workers))
		done := make(chan struct{})
		for w := 0; w < workers; w++ {
			go func() {
				for i := int(next.Add(1)) - 1; i < len(order); i = int(next.Add(1)) - 1 {
					s.runProbe(f, order[i], reps, track, k.scan)
				}
				if live.Add(-1) == 0 {
					if k.finished != nil {
						k.finished()
					}
					close(done)
				}
			}()
		}
		if k.gather != nil {
			k.gather()
		}
		<-done
	}

	for i := range reps {
		if rep != nil {
			rep.Core.Add(&reps[i])
		}
		if track {
			core.ObserveProbe(&reps[i])
		}
	}
}

// runProbe is one probe of a fan-out: the query side's one read-lock site.
func (s *Sharded) runProbe(f *fanout, pi int, reps []core.ProbeReport, track bool, scan func(int, *core.COAX, *core.ProbeReport) func()) {
	si := f.probes[pi].si
	var crep *core.ProbeReport
	if reps != nil {
		crep = &reps[pi]
	}
	var start time.Time
	if track || f.spec.Trace != nil {
		start = time.Now()
	}
	slot := s.shards[si]
	slot.mu.RLock()
	unlocked := scan(pi, slot.idx, crep)
	slot.mu.RUnlock()
	if track || f.spec.Trace != nil {
		elapsed := time.Since(start)
		if track {
			obs.ShardScanSeconds.Observe(elapsed.Seconds())
		}
		if f.spec.Trace != nil { // reports exist whenever a trace does
			f.spec.Trace.AddSpan(fmt.Sprintf("shard-%02d", si), elapsed,
				crep.Primary.Pages+crep.Outlier.Pages,
				crep.Primary.Scanned+crep.Outlier.Scanned)
		}
	}
	if unlocked != nil {
		unlocked()
	}
}

// Exec fans r across the shards it can match: rows are delivered to yield
// on the calling goroutine as workers produce them, yield's return value
// stops the whole fan-out, spec.Ctx cancels it within about one page
// (chunk) of work, and spec.Limit lets each worker stop its shard after
// that many local matches (any Limit matching rows satisfy the caller, so a
// shard that alone found enough need not keep scanning). Rows handed to
// yield are always stable copies — the merge-boundary copy makes
// spec.Stable free here. The yield must not mutate this index (Insert /
// Delete / Update / rebuilds) from inside the call: probes hold shard read
// locks while it runs, so a reentrant write deadlocks; Query/BatchQuery,
// which buffer every row before visiting, are the surface for that
// pattern. A non-nil rep is filled with the fan-out report. Exec reports
// whether the scan ran to completion (false: stopped early by yield or
// cancellation).
//
// Workers copy matching rows into chunks at the merge boundary and hand
// them to the calling goroutine over a channel; the caller yields rows as
// chunks arrive and raises the stop flag — observed by every worker before
// each row — as soon as the yield declines, the limit hint is met, or the
// context is done. Two rules keep it deadlock-free: the caller always
// drains the channel to completion, so workers never block on a departed
// consumer; and a worker never does a blocking send while holding its
// shard's read lock — chunks that cannot be sent immediately accumulate
// locally and are flushed after the probe releases the lock, so a stalled
// consumer delays delivery, not the lock. An inline fan-out (one probe, or
// one worker) has no channel: each probe's chunks accumulate under its
// lock and are yielded once it is released.
func (s *Sharded) Exec(r index.Rect, spec index.Spec, yield index.Yield, rep *Report) bool {
	// Queries are counted exactly once, here.
	track := obs.On()
	var start time.Time
	var delivered int64
	if track {
		start = time.Now()
		obs.Queries.Inc()
		inner := yield
		yield = func(row []float64) bool {
			delivered++
			return inner(row)
		}
	}

	f := s.plan([]index.Rect{r}, spec)
	chunkRows := scanChunkRows
	if spec.Limit > 0 && spec.Limit < chunkRows {
		chunkRows = spec.Limit
	}
	chunkLen := chunkRows * s.dims
	complete := true
	// deliver yields one chunk's rows; it runs on the calling goroutine.
	// The context is checked once per chunk — the "about one page"
	// cancellation granularity — while the stop flag (set by the context, a
	// declined yield, or a met limit) is checked per row.
	deliver := func(buf []float64) {
		if spec.Done() {
			f.stop.Store(true)
		}
		for off := 0; off+s.dims <= len(buf); off += s.dims {
			if f.stop.Load() {
				break // stopping: discard the rest of the chunk
			}
			// Full-capacity sub-slices keep a retaining caller from
			// reaching neighbouring rows through append.
			if !yield(buf[off : off+s.dims : off+s.dims]) {
				f.stop.Store(true)
				complete = false
				break
			}
		}
	}
	var out chan []float64
	if !f.inline {
		out = make(chan []float64, min(s.workers, len(f.probes)))
	}
	s.fanOut(f, rep, sink{
		scan: func(_ int, idx *core.COAX, crep *core.ProbeReport) func() {
			var pending [][]float64
			flush := func(buf []float64) {
				select {
				case out <- buf: // never ready on the nil channel of an inline fan-out
				default:
					pending = append(pending, buf)
				}
			}
			buf := make([]float64, 0, chunkLen)
			produced := 0
			idx.Exec(r, index.Spec{Abort: f.stop.Load}, func(row []float64) bool {
				if f.stop.Load() {
					return false
				}
				buf = append(buf, row...) // the merge-boundary copy
				produced++
				if len(buf) >= chunkLen {
					flush(buf)
					buf = make([]float64, 0, chunkLen)
				}
				// Any spec.Limit matching rows satisfy the caller, so
				// this shard alone has produced enough: stop it.
				return spec.Limit <= 0 || produced < spec.Limit
			}, crep)
			if len(buf) > 0 {
				flush(buf)
			}
			if pending == nil {
				return nil
			}
			// With the lock released, hand over what the non-blocking
			// sends could not: straight to the yield when this already is
			// the calling goroutine, else by sends that always terminate,
			// because the caller drains until close. A raised stop flag
			// means the caller discards everything anyway — skip it.
			return func() {
				for _, p := range pending {
					if f.stop.Load() {
						break
					}
					if f.inline {
						deliver(p)
					} else {
						out <- p
					}
				}
			}
		},
		finished: func() { close(out) },
		gather: func() {
			for buf := range out {
				deliver(buf)
			}
		},
	})
	// Any cancellation makes the result incomplete.
	cancelled := spec.Done()
	if cancelled {
		complete = false
	}
	if track {
		obs.QuerySeconds.Observe(time.Since(start).Seconds())
		obs.QueryRows.Add(delivered)
		switch {
		case cancelled:
			obs.QueryCancelled.Inc()
		case !complete:
			obs.EarlyStops.Inc()
		}
	}
	return complete
}
