package coax

// Query API: a composable, name-based query surface over an *Index. A Query
// is built from predicates on named (or positional) columns, optionally
// bounded by Limit, cancelled through a context, and executed with Run,
// Collect, Head, Count, Aggregate or Explain. Every execution is a fold on
// one skeleton (Query.fold) over the index's fan-out, which counts the
// query: Head copies the rows it returns and counts the rest, Count and
// Explain are Head keeping none, Collect is Head keeping all, Run hands each
// folded row to its visitor on the calling goroutine, and Aggregate folds an
// aggregate. A satisfied Limit stops the scan across every shard, a context
// cancels it, and EXPLAIN reports it. Every row it hands out is a stable
// copy.

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

// Yield is Run's visitor: it receives one matching row per call and reports
// whether to go on — returning false stops the delivery. The row is a stable
// copy, valid after the call.
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
	explain bool
	group   *colRef // aggregation grouping (agg.go); nil when ungrouped
}

// NewQuery returns an empty query matching every row.
func NewQuery() *Query { return &Query{} }

// FromRect returns a query over an explicit rectangle; Where predicates
// intersect with it.
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
// shard — once the first k rows in shard order have matched. k ≤ 0 removes
// the cap.
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

// WithExplain makes execution fill Result.Explain with the query's
// execution report.
func (q *Query) WithExplain() *Query {
	q.explain = true
	return q
}

// Compile resolves the query against idx into the rectangle plan the
// engine probes. It fails on an invalid predicate, an unknown column name,
// or a positional predicate out of range.
func (q *Query) Compile(idx *Index) (Rect, error) {
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
				cols = idx.Columns()
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
// order — shard order, then scan order — so the same query on the same
// index visits the same rows in the same order.
//
// Like Collect, Run folds every match of the rectangle (or its first Limit)
// before the first visit, then calls visit on the calling goroutine with no
// shard lock held. The visitor may therefore mutate the index; it is shown
// the rows as of the call. A false return stops the delivery, not probes
// already folding; the Limit also stops the probes that cannot reach the
// first Limit rows.
func (q *Query) Run(idx *Index, visit Yield) (Result, error) {
	r, err := q.Compile(idx)
	if err != nil {
		return Result{}, err
	}
	var res Result
	limited := false
	res.Complete, res.Explain, _, err = q.fold(idx, r, func(spec index.Spec, rep *shard.Report) bool {
		spec.Limit = q.limit
		return idx.Exec(r, spec, func(row []float64) bool {
			res.Rows++
			if !visit(row) {
				return false
			}
			limited = q.limit > 0 && res.Rows >= q.limit
			return !limited
		}, rep)
	})
	if exp := res.Explain; exp != nil {
		exp.RowsEmitted = res.Rows
		exp.Limited = limited
	}
	return res, err
}

// Count executes the query and returns the number of matching rows —
// capped at the Limit when one is set. It is Head keeping no rows: the
// engines count matches off their selection bitmaps and copy nothing.
func (q *Query) Count(idx *Index) (int, error) {
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
	// the same index, whatever the timing of the fan-out.
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
func (q *Query) Head(idx *Index, k int) (*HeadResult, error) {
	r, err := q.Compile(idx)
	if err != nil {
		return nil, err
	}
	// Any Limit matches satisfy the query; k of them are returned.
	st := index.RowsState{Keep: k, Limit: q.limit}
	res := &HeadResult{}
	res.Complete, res.Explain, _, err = q.fold(idx, r, func(spec index.Spec, rep *shard.Report) bool {
		states, complete := idx.ExecRows([]Rect{r}, spec, st, rep)
		st = states[0]
		return complete
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
// runs exec, which fans the compiled rectangle r across idx's shards as a
// fold, each probe into a private state taken in shard order, and counts
// the query itself. It returns whether the fold ran to completion, the
// execution report and the engine's report when the query asked for one,
// and the context's error when it was cancelled.
func (q *Query) fold(idx *Index, r Rect, exec func(index.Spec, *shard.Report) bool) (bool, *Explain, *core.ProbeReport, error) {
	spec := index.Spec{Ctx: q.ctx}
	var exp *Explain
	var rep *shard.Report
	if q.explain {
		exp = newExplain(idx, r)
		rep = &shard.Report{}
		// A trace turns the EXPLAIN's shard totals into a per-shard
		// breakdown: each fan-out worker records one timed span.
		spec.Trace = obs.NewTrace()
	}
	start := time.Now()
	complete := exec(spec, rep)
	var crep *core.ProbeReport
	if exp != nil {
		exp.fromShard(rep)
		exp.fromTrace(spec.Trace)
		exp.Elapsed = time.Since(start)
		exp.Complete = complete
		crep = &rep.Core
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
// Limit when one is set: Head keeping every row. Returned rows are stable
// private copies in Head's order.
func (q *Query) Collect(idx *Index) ([][]float64, error) {
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
func (q *Query) Explain(idx *Index) (*Explain, error) {
	qq := q.clone()
	qq.explain = true
	res, err := qq.Head(idx, 0)
	if res == nil {
		return nil, err
	}
	return res.Explain, err
}
