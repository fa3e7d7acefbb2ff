package coax

// Query API v2: a composable, name-based query surface over *Index and
// *ShardedIndex. A Query is built from predicates on named (or positional)
// columns, optionally bounded by Limit, cancelled through a context, and
// executed with Run, Collect, Head, Count, or Explain. Every execution is a
// fold on one skeleton (Query.fold): Head copies the rows it returns and
// counts the rest, Count and Explain are Head keeping none, Collect is Head
// keeping all, and Run hands each folded row to its visitor. Internally it
// compiles to the same index.Rect plan the legacy Query(Rect, Visitor) call
// uses, so both surfaces answer identically; the v2 path additionally
// supports early termination (a satisfied Limit or a false-returning
// visitor stops the scan, across every shard of a sharded index), context
// cancellation, a uniform row-ownership rule (Stable), and EXPLAIN reports.

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"github.com/coax-index/coax/internal/core"
	"github.com/coax-index/coax/internal/index"
	"github.com/coax-index/coax/internal/obs"
	"github.com/coax-index/coax/internal/shard"
)

// Yield is the v2 visitor: it receives one matching row per call and
// reports whether the scan should continue — returning false stops it,
// including every worker of a sharded fan-out. Unless the query was built
// with Stable(), the row slice is only valid for the duration of the call.
type Yield = index.Yield

// Predicate is one constraint on a single column, built with Between, Eq,
// AtLeast, or AtMost.
type Predicate struct {
	lo, hi float64
	err    error
}

// Between constrains a column to [lo, hi], inclusive on both bounds.
func Between(lo, hi float64) Predicate {
	switch {
	case math.IsNaN(lo) || math.IsNaN(hi):
		return Predicate{err: fmt.Errorf("Between(%g, %g): NaN bound", lo, hi)}
	case lo > hi:
		return Predicate{err: fmt.Errorf("Between(%g, %g): inverted bounds", lo, hi)}
	}
	return Predicate{lo: lo, hi: hi}
}

// Eq constrains a column to exactly v.
func Eq(v float64) Predicate {
	if math.IsNaN(v) {
		return Predicate{err: fmt.Errorf("Eq(%g): NaN bound", v)}
	}
	return Predicate{lo: v, hi: v}
}

// AtLeast constrains a column to [v, +∞).
func AtLeast(v float64) Predicate {
	if math.IsNaN(v) {
		return Predicate{err: fmt.Errorf("AtLeast(%g): NaN bound", v)}
	}
	return Predicate{lo: v, hi: math.Inf(1)}
}

// AtMost constrains a column to (-∞, v].
func AtMost(v float64) Predicate {
	if math.IsNaN(v) {
		return Predicate{err: fmt.Errorf("AtMost(%g): NaN bound", v)}
	}
	return Predicate{lo: math.Inf(-1), hi: v}
}

// pred is one predicate bound to a column by name or position.
type pred struct {
	name string // resolved at compile time; "" when positional
	dim  int    // -1 when named
	p    Predicate
}

// Query is a composable description of a range scan. Build one with
// NewQuery (or FromRect), refine it with the chainable With/Where methods,
// and execute it with Run, Collect, Head, Count, or Explain. A Query value is
// not safe for concurrent mutation but may be executed any number of
// times, concurrently, once built.
type Query struct {
	rect    *Rect // optional base rectangle (FromRect)
	preds   []pred
	limit   int
	ctx     context.Context
	stable  bool
	explain bool
	group   *colRef // aggregation grouping (agg.go); nil when ungrouped
}

// NewQuery returns an empty query matching every row.
func NewQuery() *Query { return &Query{} }

// FromRect returns a query over an explicit rectangle — the bridge from
// the legacy plan representation; Where predicates intersect with it.
func FromRect(r Rect) *Query {
	cl := r.Clone()
	return &Query{rect: &cl}
}

// clone returns a private copy so the execution helpers can set options
// without mutating the caller's builder.
func (q *Query) clone() *Query {
	cp := *q
	cp.preds = append([]pred(nil), q.preds...)
	return &cp
}

// Where adds a predicate on the named column. The name is resolved against
// the index's column names at execution time; constraining the same column
// twice intersects the predicates.
func (q *Query) Where(col string, p Predicate) *Query {
	q.preds = append(q.preds, pred{name: col, dim: -1, p: p})
	return q
}

// WhereDim adds a predicate on the column at position dim — for tables
// built without column names.
func (q *Query) WhereDim(dim int, p Predicate) *Query {
	q.preds = append(q.preds, pred{dim: dim, p: p})
	return q
}

// Limit caps the number of rows delivered; the scan stops — across every
// shard — once k rows have been yielded. k ≤ 0 removes the cap.
func (q *Query) Limit(k int) *Query {
	q.limit = k
	return q
}

// WithContext attaches a cancellation context: when it is done, the scan
// (including a sharded fan-out already in flight) stops within about one
// page of work, and the execution call returns the context's error.
func (q *Query) WithContext(ctx context.Context) *Query {
	q.ctx = ctx
	return q
}

// Stable requires every row handed to the visitor to be a private copy
// that stays valid after the call returns. This is the one ownership rule
// both *Index and *ShardedIndex honor identically; without it, rows are
// only valid for the duration of the visitor call, whichever index
// answers.
func (q *Query) Stable() *Query {
	q.stable = true
	return q
}

// WithExplain makes execution fill Result.Explain with the query's
// execution report.
func (q *Query) WithExplain() *Query {
	q.explain = true
	return q
}

// columnsOf reports the column names an index carries, or nil.
func columnsOf(idx Querier) []string {
	if c, ok := idx.(interface{ Columns() []string }); ok {
		return c.Columns()
	}
	return nil
}

// Compile resolves the query against idx into the rectangle plan the
// engine probes. It fails on an invalid predicate, an unknown column name,
// or a positional predicate out of range.
func (q *Query) Compile(idx Querier) (Rect, error) {
	dims := idx.Dims()
	var r Rect
	if q.rect != nil {
		if q.rect.Dims() != dims {
			return r, fmt.Errorf("coax: query rectangle has %d dims, index has %d", q.rect.Dims(), dims)
		}
		if err := q.rect.Validate(); err != nil {
			return r, err
		}
		r = q.rect.Clone()
	} else {
		r = FullRect(dims)
	}
	var cols []string
	for _, pr := range q.preds {
		label := pr.name
		if label == "" {
			label = fmt.Sprintf("column %d", pr.dim)
		}
		if pr.p.err != nil {
			return r, fmt.Errorf("coax: predicate on %s: %w", label, pr.p.err)
		}
		d := pr.dim
		if pr.name != "" {
			if cols == nil {
				cols = columnsOf(idx)
			}
			d = -1
			for i, c := range cols {
				if c == pr.name {
					d = i
					break
				}
			}
			if d < 0 {
				if len(cols) == 0 {
					return r, fmt.Errorf("coax: index has no column names; use WhereDim for %q", pr.name)
				}
				return r, fmt.Errorf("coax: unknown column %q (have %s)", pr.name, strings.Join(cols, ", "))
			}
		}
		if d < 0 || d >= dims {
			return r, fmt.Errorf("coax: %s out of range [0,%d)", label, dims)
		}
		// Intersect with any earlier constraint on the same column; the
		// result may be empty, which legitimately matches nothing.
		if pr.p.lo > r.Min[d] {
			r.Min[d] = pr.p.lo
		}
		if pr.p.hi < r.Max[d] {
			r.Max[d] = pr.p.hi
		}
	}
	return r, nil
}

// Result summarises one query execution.
type Result struct {
	// Rows is the number of rows delivered to the visitor.
	Rows int
	// Complete reports whether the scan visited every matching row; false
	// when a Limit, a false-returning visitor, or a cancelled context
	// stopped it early.
	Complete bool
	// Explain is the execution report, non-nil when the query was built
	// with WithExplain.
	Explain *Explain
}

// Run compiles and executes the query, invoking visit for every matching
// row until the Limit is reached, visit returns false, or the context is
// cancelled — whichever comes first. On cancellation it returns the
// context's error alongside the partial result. Rows arrive in Head's
// order — on a sharded index shard order, then scan order — so the same
// query on the same index visits the same rows in the same order.
//
// On a sharded index each shard's matches are folded under its read lock
// and visited once it is released, one shard at a time in shard order, by
// the fan-out worker that folded them: visit is never called concurrently,
// but with more than one worker it may run on a goroutine other than the
// caller's, and Run holds at most one shard's matches per worker. The
// visitor must not mutate the index being scanned — shards not yet folded
// may or may not see the change: collect first, then mutate.
func (q *Query) Run(idx Querier, visit Yield) (Result, error) {
	r, err := q.Compile(idx)
	if err != nil {
		return Result{}, err
	}
	var res Result
	limited := false
	yield := func(row []float64) bool {
		res.Rows++
		if !visit(row) {
			return false
		}
		limited = q.limit > 0 && res.Rows >= q.limit
		return !limited
	}
	// A sharded fold hands out stable copies already; any other engine walks
	// its batches through the yield, copying each row when asked to.
	walk := yield
	if q.stable {
		walk = func(row []float64) bool { return yield(append([]float64(nil), row...)) }
	}
	res.Complete, res.Explain, _, err = q.fold(idx, r, yieldFold(walk),
		func(ix *ShardedIndex, spec index.Spec, rep *shard.Report) bool {
			spec.Limit = q.limit
			return ix.Exec(r, spec, yield, rep)
		},
		func(start time.Time, complete bool, crep *core.ProbeReport) {
			q.observe(start, Result{Rows: res.Rows, Complete: complete}, crep)
		})
	if exp := res.Explain; exp != nil {
		exp.RowsEmitted = res.Rows
		exp.Limited = limited
	}
	return res, err
}

// yieldFold is Run's fold state on an unsharded engine: each batch's
// selected rows walk through the yield — what core's Exec hands its plan.
type yieldFold Yield

func (y yieldFold) FoldBatch(b *index.Batch) bool { return b.Each(Yield(y)) }
func (y yieldFold) FoldRow(row []float64) bool    { return y(row) }

// observe records one finished non-sharded execution in the query-plane
// metrics. crep may be nil (generic path: no probe report exists).
func (q *Query) observe(start time.Time, res Result, crep *core.ProbeReport) {
	obs.Queries.Inc()
	obs.QuerySeconds.Observe(time.Since(start).Seconds())
	obs.QueryRows.Add(int64(res.Rows))
	switch {
	case q.ctx != nil && q.ctx.Err() != nil:
		obs.QueryCancelled.Inc()
	case !res.Complete:
		obs.EarlyStops.Inc()
	}
	core.ObserveProbe(crep)
}

// runGeneric executes the plan against a plain Querier that offers only
// the legacy visitor. A declining yield and the context are still honored
// at the visitor boundary, but the underlying scan cannot be aborted, so
// early termination saves no work here.
func runGeneric(idx Querier, r Rect, spec index.Spec, yield Yield) bool {
	stopped := false
	idx.Query(r, func(row []float64) {
		stopped = stopped || spec.Done() || !yield(row)
	})
	return !stopped
}

// Count executes the query and returns the number of matching rows —
// capped at the Limit when one is set. It is Head keeping no rows: the
// engines count matches off their selection bitmaps and copy nothing.
func (q *Query) Count(idx Querier) (int, error) {
	res, err := q.Head(idx, 0)
	if res == nil {
		return 0, err
	}
	return res.Count, err
}

// HeadResult is the outcome of Head: how many rows match, and the first of
// them.
type HeadResult struct {
	// Count is the exact number of matching rows — capped at the Limit when
	// one is set.
	Count int
	// Rows holds the first k matching rows (fewer when fewer match): stable
	// private copies, in shard order, then scan order — the same rows for
	// the same index, whatever the timing of a sharded fan-out.
	Rows [][]float64
	// Complete reports whether the scan visited every matching row; false
	// when the Limit or a cancelled context stopped it.
	Complete bool
	// Explain is the execution report, non-nil when the query was built
	// with WithExplain. RowsEmitted is the rows counted.
	Explain *Explain
}

// Head compiles and executes the query as a fold: it returns the exact
// number of matching rows and the first k of them (every row when k is
// negative). It is the shape of a paged reply, and it costs what the page
// costs: the engines copy a row only while fewer than k are held and count
// the rest of the matches off their selection bitmaps, so rows that would be
// dropped are never materialized. A Limit stops the scan once that many rows
// match, capping the count exactly as in Count; the context cancels the scan
// as in Run, returning its error alongside the partial result.
func (q *Query) Head(idx Querier, k int) (*HeadResult, error) {
	r, err := q.Compile(idx)
	if err != nil {
		return nil, err
	}
	// Any Limit matches satisfy the query; k of them are returned.
	st := index.RowsState{Keep: k, Limit: q.limit}
	res := &HeadResult{}
	res.Complete, res.Explain, _, err = q.fold(idx, r, &st,
		func(ix *ShardedIndex, spec index.Spec, rep *shard.Report) bool {
			states, complete := ix.ExecRows([]Rect{r}, spec, st, rep)
			st = states[0]
			return complete
		},
		func(start time.Time, complete bool, crep *core.ProbeReport) {
			q.observe(start, Result{Rows: int(st.Count), Complete: complete}, crep)
		})
	res.Count = int(st.Count)
	res.Rows = make([][]float64, st.Held())
	for i := range res.Rows {
		res.Rows[i] = st.Row(i)
	}
	if exp := res.Explain; exp != nil {
		exp.RowsEmitted = res.Count
		exp.Limited = q.limit > 0 && res.Count >= q.limit
	}
	return res, err
}

// fold is the skeleton every execution shares — Run, Head and Aggregate: it
// executes the compiled rectangle r against idx as a fold into st. A
// sharded index runs sharded, whose fan-out folds every shard into a
// private state, hands the states to st (or to Run's visitor) in shard
// order and counts the query itself; a single index folds st through its
// batch kernels, and any other Querier folds its visitor's rows one at a
// time — correct, but without kernel pushdown or early abort — and both are
// counted through observe. It returns whether the fold ran to completion,
// the execution report when the query asked for one, the engine's report
// when one was taken (nil on the generic path), and the context's error
// when it was cancelled.
func (q *Query) fold(idx Querier, r Rect, st interface {
	FoldBatch(*index.Batch) bool
	FoldRow([]float64) bool
}, sharded func(*ShardedIndex, index.Spec, *shard.Report) bool,
	observe func(start time.Time, complete bool, crep *core.ProbeReport)) (bool, *Explain, *core.ProbeReport, error) {
	var exp *Explain
	if q.explain {
		exp = newExplain(idx, r)
	}
	spec := index.Spec{Ctx: q.ctx}
	track := obs.On()
	start := time.Now()

	var complete bool
	var crep *core.ProbeReport
	switch ix := idx.(type) {
	case *ShardedIndex:
		var rep *shard.Report
		if exp != nil {
			rep = &shard.Report{}
			// A trace turns the EXPLAIN's shard totals into a per-shard
			// breakdown: each fan-out worker records one timed span.
			spec.Trace = obs.NewTrace()
		}
		complete = sharded(ix, spec, rep)
		if exp != nil {
			exp.fromShard(rep)
			exp.fromTrace(spec.Trace)
			crep = &rep.Core
		}
	case *Index:
		if exp != nil || track {
			crep = &core.ProbeReport{}
		}
		complete = ix.ExecAgg(r, spec, st, crep)
		if exp != nil {
			exp.fromCore(crep)
		}
		if track {
			observe(start, complete, crep)
		}
	default:
		complete = runGeneric(idx, r, spec, st.FoldRow)
		if track {
			observe(start, complete, nil)
		}
	}
	if exp != nil {
		exp.Elapsed = time.Since(start)
		exp.Complete = complete
	}
	if q.ctx != nil && q.ctx.Err() != nil {
		if exp != nil {
			exp.Cancelled = true
			exp.Complete = false
		}
		return false, exp, crep, q.ctx.Err()
	}
	return complete, exp, crep, nil
}

// Collect executes the query and returns the matching rows, capped at the
// Limit when one is set: Head keeping every row. Returned rows are always
// stable private copies in Head's order, whichever index answers.
func (q *Query) Collect(idx Querier) ([][]float64, error) {
	res, err := q.Head(idx, -1)
	if res == nil {
		return nil, err
	}
	return res.Rows, err
}

// Explain executes the query as Head keeping no row and returns its
// execution report — the EXPLAIN ANALYZE of the builder. The scan honors
// Limit and the context exactly as Run does, so the report describes the
// work a real execution performs, without copying a row.
func (q *Query) Explain(idx Querier) (*Explain, error) {
	qq := q.clone()
	qq.explain = true
	res, err := qq.Head(idx, 0)
	if res == nil {
		return nil, err
	}
	return res.Explain, err
}
