package shard

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"github.com/coax-index/coax/internal/core"
	"github.com/coax-index/coax/internal/index"
	"github.com/coax-index/coax/internal/obs"
)

// Query execution for the sharded engine: one fan-out (fanOut) that folds
// every (query, shard) probe into a private state under the shard's read
// lock. ExecAgg folds aggregates and ExecRows row replies (an exact count
// and the first rows), merging the states in (query, shard) order once every
// probe is done; Exec and BatchQuery visit, in that order, the rows of a fold
// that keeps them all. So no answer depends on worker timing.

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
	// query-major — the order states merge in; pruned counts the pairs
	// range routing (or an empty rectangle) ruled out.
	probes []probe
	pruned int
	// workers is the pool size, at most one per probe. A pool of one worker
	// is the caller: the probes run on the calling goroutine, with no
	// goroutine to start and no hand-off to pay for — every query on a
	// one-shard index, and most that constrain the range column.
	workers int
	// stop is the shared stop flag: every scan polls it once per page as
	// its abort hook, and a done context raises it.
	stop atomic.Bool
	// panicked is the first panic a worker recovered from a probe.
	panicked atomic.Pointer[probePanic]
}

// aborted is a probe's abort hook: the shared stop flag, or the caller's
// own hook (a cluster node's per-request cancel flag).
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
		lo, hi := s.ranges.Span(r)
		for si := lo; si <= hi; si++ {
			f.probes = append(f.probes, probe{qi, si})
		}
	}
	f.pruned = len(rs)*len(s.shards) - len(f.probes)
	f.workers = min(int(s.workers.Load()), len(f.probes))
	return f
}

// fanOut is the one fan-out behind every query: on a bounded worker pool it
// runs scan for every probe of f — scan folds probe pi's shard into that
// probe's private state under the shard's read lock, so it must not block,
// passing rep to the engine and f.aborted as its abort hook, and reports
// whether the probe ran to completion. It stops every probe when the
// context is done, times each probe (coax_shard_scan_seconds, and one trace
// span when the spec carries a trace), and once every worker is done
// merges the per-probe reports into rep and the scan metrics. This layer
// owns whole queries, so it is where their page/row/translation counters
// are fed — core runs once per probe and must not count. fanOut reports
// whether every probe ran to completion and neither the context nor
// spec.Abort stopped the fan-out. A probe that panics on a worker stops
// the others; once every worker is done the panic is raised again on the
// caller as a *probePanic naming the shard (a probe on the caller panics
// there directly), and no shard lock stays held.
func (s *Sharded) fanOut(f *fanout, rep *Report, scan func(pi int, idx *core.COAX, rep *core.ProbeReport) bool) bool {
	track := obs.On()
	if rep != nil {
		rep.ShardsProbed, rep.ShardsPruned = len(f.probes), f.pruned
	}
	if track {
		obs.ShardsProbed.Add(int64(len(f.probes)))
		obs.ShardsPruned.Add(int64(f.pruned))
	}
	if len(f.probes) == 0 {
		return !f.spec.Done()
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
	// cache-resident per shard. Merge order is unaffected — states are
	// indexed by probe — and a single rectangle's probes run in merge order.
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

	var incomplete atomic.Bool
	run := func(pi int) {
		if !s.runProbe(f, pi, reps, track, scan) {
			incomplete.Store(true)
		}
	}
	if f.workers == 1 {
		for _, pi := range order {
			run(pi)
		}
	} else {
		var next atomic.Int32
		var wg sync.WaitGroup
		for range f.workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				pi := -1
				defer func() {
					if v := recover(); v != nil {
						f.panicked.CompareAndSwap(nil, &probePanic{shard: f.probes[pi].si, value: v, stack: debug.Stack()})
						f.stop.Store(true)
					}
				}()
				for i := int(next.Add(1)) - 1; i < len(order); i = int(next.Add(1)) - 1 {
					pi = order[i]
					run(pi)
				}
			}()
		}
		wg.Wait()
		if p := f.panicked.Load(); p != nil {
			panic(p)
		}
	}

	for i := range reps {
		if rep != nil {
			rep.Core.Add(&reps[i])
		}
		if track {
			core.ObserveProbe(&reps[i])
		}
	}
	return !f.spec.Done() && !incomplete.Load()
}

// runProbe is one probe of a fan-out: the query side's one read-lock site.
func (s *Sharded) runProbe(f *fanout, pi int, reps []core.ProbeReport, track bool, scan func(int, *core.COAX, *core.ProbeReport) bool) bool {
	si := f.probes[pi].si
	var crep *core.ProbeReport
	if reps != nil {
		crep = &reps[pi]
	}
	var start time.Time
	if track || f.spec.Trace != nil {
		start = time.Now()
	}
	var complete bool
	s.WithShard(si, func(idx *core.COAX) error { // releases the read lock if scan panics
		complete = scan(pi, idx, crep)
		return nil
	})
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
	return complete
}

// probePanic is a panic recovered on a fan-out worker, raised again on the
// fan-out's caller once every worker is done: it names the shard whose
// probe panicked and carries the worker's stack, which the raise loses.
type probePanic struct {
	shard int
	value any
	stack []byte
}

func (p *probePanic) Error() string {
	return fmt.Sprintf("shard %d: probe panicked: %v\n\n%s", p.shard, p.value, p.stack)
}

// Exec fans r across the shards it can match as a row fold, then yields the
// matching rows on the calling goroutine in ExecRows' order — shard order,
// then scan order — so the same index yields the same rows in the same
// order. It is ExecRows keeping every match, or with spec.Limit the first
// Limit of them, a limited probe also stopping once the probes before it
// hold Limit rows; the probes' rows are yielded in place, with no merge copy.
// Memory: every match (or the first Limit) is held before the first yield,
// so a full-table rectangle buffers the whole table.
//
// Every probe's read lock is released before the first yield, so the yield
// may mutate the index; the rows it is handed are those of the index as of
// the call. A false return from yield, a met Limit or a done spec.Ctx stops
// the delivery; the context is checked before each row, and a done context
// also stops the probes still folding. Rows are stable copies with capped
// slices, valid after the call. A non-nil rep is filled with the fan-out
// report. Exec reports whether the scan ran to completion (false: stopped
// early by yield, Limit or cancellation).
func (s *Sharded) Exec(r index.Rect, spec index.Spec, yield index.Yield, rep *Report) bool {
	_, parts, complete := s.foldRows([]index.Rect{r}, spec, index.RowsState{Keep: -1, Limit: spec.Limit}, rep)
	left := spec.Limit // rows the limit still admits; never reaches 0 when ≤ 0
	for pi := range parts {
		st := &parts[pi]
		for i := range st.Held() {
			if left--; spec.Done() || !yield(st.Row(i)) || left == 0 {
				return false
			}
		}
	}
	return complete
}
