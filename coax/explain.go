package coax

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"github.com/coax-index/coax/internal/obs"
	"github.com/coax-index/coax/internal/shard"
)

// Explain is the execution report of one query — the paper's mechanism
// made observable. It shows whether (and how) constraints on dependent
// attributes were translated through the learned soft-FD models into
// predictor intervals, how the work split between the reduced-
// dimensionality primary index and the outlier index, how many shards a
// fan-out pruned versus probed, and what stopped the scan. All float
// bounds are pointers so the report marshals to JSON cleanly: nil means
// unbounded (±∞).
type Explain struct {
	// Columns names the index's columns (empty for unnamed tables).
	Columns []string `json:"columns,omitempty"`
	// Min/Max is the compiled query rectangle, one entry per dimension;
	// nil bounds are unconstrained.
	Min []*float64 `json:"min"`
	Max []*float64 `json:"max"`

	// Translations holds one entry per dependent column the query
	// constrains — the application of the paper's Eq. 2.
	Translations []TranslationStep `json:"translations,omitempty"`
	// PrimaryFeasible is false when translation proved no inlier can
	// match, letting the engine skip the primary probe entirely.
	PrimaryFeasible bool `json:"primary_feasible"`

	// PrimaryProbed/OutlierProbed report whether the rectangle overlapped
	// each partition's bounding box (false: that probe was pruned).
	PrimaryProbed bool `json:"primary_probed"`
	OutlierProbed bool `json:"outlier_probed"`
	// Primary and Outlier are the page/row counters of each partition.
	Primary ProbeStats `json:"primary"`
	Outlier ProbeStats `json:"outlier"`

	// ShardsProbed/ShardsPruned describe the fan-out: the shards the
	// rectangle probed and those range routing ruled out (a one-shard index
	// probes its one shard).
	ShardsProbed int `json:"shards_probed"`
	ShardsPruned int `json:"shards_pruned"`
	// Shards breaks the fan-out down per probed shard — one timed span per
	// probe, sorted by shard ordinal.
	Shards []ShardSpan `json:"shards,omitempty"`

	// Agg describes an aggregation execution: the op, the scan kernels
	// that answered each partition, and the shape of the batches it folded
	// (count, rows per batch, bitmap selectivity). Nil for row queries,
	// whose batches are reported per partition in Primary and Outlier.
	Agg *AggExplain `json:"agg,omitempty"`

	// RowsEmitted counts rows delivered to the caller's visitor — for
	// Head and Count, the rows counted.
	RowsEmitted int `json:"rows_emitted"`
	// Limited/Cancelled/Complete report what ended the scan: a satisfied
	// Limit, a cancelled context, or exhaustion.
	Limited   bool `json:"limited"`
	Cancelled bool `json:"cancelled"`
	Complete  bool `json:"complete"`
	// Elapsed is the wall time of the execution, in nanoseconds on the
	// wire.
	Elapsed time.Duration `json:"elapsed_ns"`
}

// ProbeStats counts the work of one partition's scan.
type ProbeStats struct {
	// Pages is the number of storage units visited (grid pages, tree
	// nodes).
	Pages int64 `json:"pages"`
	// RowsScanned is the number of candidate rows examined.
	RowsScanned int64 `json:"rows_scanned"`
	// RowsMatched is the number of rows that satisfied the query.
	RowsMatched int64 `json:"rows_matched"`
	// TombstonesFiltered is the number of deleted rows skipped at the
	// visitor boundary.
	TombstonesFiltered int64 `json:"tombstones_filtered"`
	// Batches is the number of selection-bitmap batches the partition's
	// scan kernel handed to the query's consumer — rows and aggregates run
	// the same kernel, so a row query reports them too.
	Batches int64 `json:"batches,omitempty"`
	// ColumnTests is the number of column range tests the scan kernel
	// evaluated: each window's rows times the columns its selection tested.
	// A grid page skips the columns its cell proves — the sort column and
	// every grid axis the cell lies inside — so this runs below
	// RowsScanned × constrained columns.
	ColumnTests int64 `json:"column_tests,omitempty"`
}

// AggExplain is the aggregation-pushdown section of an EXPLAIN: which
// kernel answered each partition and how the batch path shaped up.
type AggExplain struct {
	// Op, Column, and GroupBy describe the aggregate computed (Column is
	// empty for COUNT, GroupBy for ungrouped aggregates).
	Op      string `json:"op"`
	Column  string `json:"column,omitempty"`
	GroupBy string `json:"group_by,omitempty"`
	// PrimaryKernel/OutlierKernel name the scan kernel that answered each
	// partition ("grid-batch": both are grid files); empty when that
	// partition was pruned.
	PrimaryKernel string `json:"primary_kernel,omitempty"`
	OutlierKernel string `json:"outlier_kernel,omitempty"`
	// Batches is the total selection-bitmap batches processed;
	// RowsPerBatch the mean candidate rows per batch; Selectivity the
	// fraction of scanned rows the bitmaps selected.
	Batches      int64   `json:"batches"`
	RowsPerBatch float64 `json:"rows_per_batch"`
	Selectivity  float64 `json:"selectivity"`
	// Groups counts the distinct group keys of a GroupBy result.
	Groups int `json:"groups,omitempty"`
}

// ShardSpan is the timed record of one shard probe inside a fan-out.
type ShardSpan struct {
	// Shard names the probe ("shard-03").
	Shard string `json:"shard"`
	// Elapsed is the probe's wall time (lock acquisition through scan
	// completion), in nanoseconds on the wire.
	Elapsed time.Duration `json:"elapsed_ns"`
	// Pages and RowsScanned count that shard's share of the work.
	Pages       int64 `json:"pages"`
	RowsScanned int64 `json:"rows_scanned"`
}

// TranslationStep records one dependent-constraint translation: the query
// interval on the dependent column mapped through its learned model into
// an interval on the predictor column.
type TranslationStep struct {
	// Dependent and Predictor identify the columns, by name when the index
	// has names, otherwise as "col<ordinal>".
	Dependent string `json:"dependent"`
	Predictor string `json:"predictor"`
	// DependentMin/Max is the query's constraint on the dependent column.
	DependentMin *float64 `json:"dependent_min"`
	DependentMax *float64 `json:"dependent_max"`
	// PredictorMin/Max is the derived predictor interval the primary probe
	// was routed with.
	PredictorMin *float64 `json:"predictor_min"`
	PredictorMax *float64 `json:"predictor_max"`
	// Feasible is false when the translation proved no inlier can match.
	Feasible bool `json:"feasible"`
}

// finitePtr returns v boxed, or nil when v is infinite — the JSON-safe
// encoding of an unbounded constraint.
func finitePtr(v float64) *float64 {
	if math.IsInf(v, 0) {
		return nil
	}
	cp := v
	return &cp
}

func newExplain(idx *Index, r Rect) *Explain {
	e := &Explain{Columns: idx.Columns()}
	allEmpty := true
	for _, c := range e.Columns {
		if c != "" {
			allEmpty = false
			break
		}
	}
	if allEmpty {
		e.Columns = nil
	}
	e.Min = make([]*float64, r.Dims())
	e.Max = make([]*float64, r.Dims())
	for d := range r.Min {
		e.Min[d] = finitePtr(r.Min[d])
		e.Max[d] = finitePtr(r.Max[d])
	}
	return e
}

// colName names column d for the report.
func (e *Explain) colName(d int) string {
	if d >= 0 && d < len(e.Columns) && e.Columns[d] != "" {
		return e.Columns[d]
	}
	return fmt.Sprintf("col%d", d)
}

func (e *Explain) fromShard(sr *shard.Report) {
	rep := &sr.Core
	e.ShardsProbed = sr.ShardsProbed
	e.ShardsPruned = sr.ShardsPruned
	e.PrimaryFeasible = rep.PrimaryFeasible
	e.PrimaryProbed = rep.PrimaryProbed
	e.OutlierProbed = rep.OutlierProbed
	e.Primary = ProbeStats{
		Pages:              rep.Primary.Pages,
		RowsScanned:        rep.Primary.Scanned,
		RowsMatched:        rep.Primary.Matched,
		TombstonesFiltered: rep.Primary.Tombstones,
		Batches:            rep.Primary.Batches,
		ColumnTests:        rep.Primary.ColumnTests,
	}
	e.Outlier = ProbeStats{
		Pages:              rep.Outlier.Pages,
		RowsScanned:        rep.Outlier.Scanned,
		RowsMatched:        rep.Outlier.Matched,
		TombstonesFiltered: rep.Outlier.Tombstones,
		Batches:            rep.Outlier.Batches,
		ColumnTests:        rep.Outlier.ColumnTests,
	}
	e.Translations = make([]TranslationStep, 0, len(rep.Translations))
	for _, tr := range rep.Translations {
		e.Translations = append(e.Translations, TranslationStep{
			Dependent:    e.colName(tr.Dependent),
			Predictor:    e.colName(tr.Predictor),
			DependentMin: finitePtr(tr.DepMin),
			DependentMax: finitePtr(tr.DepMax),
			PredictorMin: finitePtr(tr.PredMin),
			PredictorMax: finitePtr(tr.PredMax),
			Feasible:     tr.Feasible,
		})
	}
}

// fromTrace folds the fan-out's per-shard spans into the report, sorted by
// shard name (spans arrive in completion order, which is not stable).
func (e *Explain) fromTrace(t *obs.Trace) {
	spans := t.Spans()
	if len(spans) == 0 {
		return
	}
	e.Shards = make([]ShardSpan, 0, len(spans))
	for _, sp := range spans {
		e.Shards = append(e.Shards, ShardSpan{
			Shard:       sp.Name,
			Elapsed:     sp.Elapsed,
			Pages:       sp.Pages,
			RowsScanned: sp.Rows,
		})
	}
	sort.Slice(e.Shards, func(i, j int) bool { return e.Shards[i].Shard < e.Shards[j].Shard })
}

// String renders the report for terminals (coaxstore explain).
func (e *Explain) String() string {
	var b strings.Builder
	bound := func(v *float64) string {
		if v == nil {
			return "_"
		}
		return fmt.Sprintf("%g", *v)
	}
	fmt.Fprintf(&b, "query:")
	for d := range e.Min {
		fmt.Fprintf(&b, " %s∈[%s,%s]", e.colName(d), bound(e.Min[d]), bound(e.Max[d]))
	}
	b.WriteByte('\n')
	for _, tr := range e.Translations {
		fmt.Fprintf(&b, "translated: %s∈[%s,%s] → %s∈[%s,%s] via learned model (feasible=%v)\n",
			tr.Dependent, bound(tr.DependentMin), bound(tr.DependentMax),
			tr.Predictor, bound(tr.PredictorMin), bound(tr.PredictorMax), tr.Feasible)
	}
	if e.ShardsProbed+e.ShardsPruned > 0 {
		fmt.Fprintf(&b, "shards: %d probed, %d pruned\n", e.ShardsProbed, e.ShardsPruned)
	}
	for _, sp := range e.Shards {
		fmt.Fprintf(&b, "  %s: %d pages, %d rows scanned, %v\n",
			sp.Shard, sp.Pages, sp.RowsScanned, sp.Elapsed.Round(time.Microsecond))
	}
	part := func(label string, probed bool, p ProbeStats) {
		if !probed {
			if !e.Complete {
				fmt.Fprintf(&b, "%s: not probed (scan stopped early or pruned)\n", label)
			} else {
				fmt.Fprintf(&b, "%s: pruned\n", label)
			}
			return
		}
		fmt.Fprintf(&b, "%s: %d pages in %d batches, %d rows scanned, %d matched, %d tombstones filtered\n",
			label, p.Pages, p.Batches, p.RowsScanned, p.RowsMatched, p.TombstonesFiltered)
	}
	if !e.PrimaryFeasible {
		fmt.Fprintf(&b, "primary: skipped (translation infeasible)\n")
	} else {
		part("primary", e.PrimaryProbed, e.Primary)
	}
	part("outlier", e.OutlierProbed, e.Outlier)
	if a := e.Agg; a != nil {
		fmt.Fprintf(&b, "aggregate: %s", a.Op)
		if a.Column != "" {
			fmt.Fprintf(&b, "(%s)", a.Column)
		}
		if a.GroupBy != "" {
			fmt.Fprintf(&b, " group by %s (%d groups)", a.GroupBy, a.Groups)
		}
		kernels := a.PrimaryKernel
		if a.OutlierKernel != "" && a.OutlierKernel != kernels {
			if kernels != "" {
				kernels += "+"
			}
			kernels += a.OutlierKernel
		}
		if kernels != "" {
			fmt.Fprintf(&b, " via %s", kernels)
		}
		fmt.Fprintf(&b, ": %d batches, %.1f rows/batch, selectivity %.4f\n",
			a.Batches, a.RowsPerBatch, a.Selectivity)
	}
	status := "complete"
	switch {
	case e.Cancelled:
		status = "cancelled"
	case e.Limited:
		status = "limit reached"
	case !e.Complete:
		status = "stopped early"
	}
	fmt.Fprintf(&b, "result: %d rows emitted, %s, %v", e.RowsEmitted, status, e.Elapsed.Round(time.Microsecond))
	return b.String()
}
