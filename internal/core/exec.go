package core

import (
	"math"

	"github.com/coax-index/coax/internal/index"
	"github.com/coax-index/coax/internal/obs"
)

// Query execution. The paper's query procedure is one plan (run): translate
// each constrained dependent attribute into a predictor interval, probe the
// reduced-dimension primary grid, probe the outlier index. Both partitions
// are scanned in batches; what differs between queries is the consumer —
// Exec walks each batch's selected rows through a yield (Batch.Each),
// ExecAgg folds the selection bitmap into a fold state: an aggregate, or a
// row reply that copies its first rows and counts the rest. Scan adapts Exec
// to index.Interface.

// Translation records one application of the paper's Eq. 2 during query
// planning: the constraint on a dependent column mapped through its learned
// model ψ̂ and margins into an interval on the predictor column.
type Translation struct {
	// Dependent and Predictor are the column ordinals of the soft FD.
	Dependent int
	Predictor int
	// DepMin/DepMax is the query's original constraint on the dependent.
	DepMin, DepMax float64
	// PredMin/PredMax is the derived predictor interval — the x-range that
	// can map into the dependent band under ψ̂ ± ε (before intersection
	// with any native predictor constraint).
	PredMin, PredMax float64
	// Feasible is false when the inversion proved no inlier can satisfy
	// the dependent constraint.
	Feasible bool
}

// ProbeReport is the execution report of one COAX probe — the per-index
// half of an EXPLAIN.
type ProbeReport struct {
	// Translations holds one entry per dependent column the query
	// constrains, in column order.
	Translations []Translation
	// PrimaryFeasible is false when translation proved no inlier can match
	// (the primary probe was skipped entirely).
	PrimaryFeasible bool
	// PrimaryProbed/OutlierProbed report whether the query rectangle
	// overlapped each partition's bounding box; a false value means that
	// partition's probe was pruned without touching a page.
	PrimaryProbed bool
	OutlierProbed bool
	// Primary and Outlier hold the page/row counters of each partition's
	// scan.
	Primary index.Probe
	Outlier index.Probe
	// PrimaryKernel and OutlierKernel name the batch kernel that scanned
	// each partition ("grid-batch"); empty when the partition was pruned.
	PrimaryKernel string
	OutlierKernel string
}

// Add accumulates o's counters and probe flags into p; translations are
// kept from the receiver (they are rectangle-level and identical for every
// index sharing the same learned models, as the shards of one table do).
func (p *ProbeReport) Add(o *ProbeReport) {
	if len(p.Translations) == 0 {
		p.Translations = o.Translations
		p.PrimaryFeasible = o.PrimaryFeasible
	}
	p.PrimaryProbed = p.PrimaryProbed || o.PrimaryProbed
	p.OutlierProbed = p.OutlierProbed || o.OutlierProbed
	p.Primary.Add(o.Primary)
	p.Outlier.Add(o.Outlier)
	if p.PrimaryKernel == "" {
		p.PrimaryKernel = o.PrimaryKernel
	}
	if p.OutlierKernel == "" {
		p.OutlierKernel = o.OutlierKernel
	}
}

// ObserveProbe folds one finished probe's report into the package-level
// scan metrics. It lives here — not in obs — because obs must stay
// import-free of the engine packages; the layer that owns a complete query
// (the shard fan-out) calls it once per underlying ProbeReport. Callers gate
// on obs.On().
func ObserveProbe(rep *ProbeReport) {
	if rep == nil {
		return
	}
	obs.ScanPagesPrimary.Add(rep.Primary.Pages)
	obs.ScanPagesOutlier.Add(rep.Outlier.Pages)
	obs.ScanRowsPrimary.Add(rep.Primary.Scanned)
	obs.ScanRowsOutlier.Add(rep.Outlier.Scanned)
	obs.ScanTombstones.Add(rep.Primary.Tombstones + rep.Outlier.Tombstones)
	obs.ScanBatches.Add(rep.Primary.Batches + rep.Outlier.Batches)
	obs.Translations.Add(int64(len(rep.Translations)))
	for _, tr := range rep.Translations {
		if !tr.Feasible {
			obs.TranslationsInfeas.Inc()
		}
	}
}

// Scan implements index.Interface over Exec.
func (c *COAX) Scan(r index.Rect, yield index.Yield, probe *index.Probe) bool {
	var rep *ProbeReport
	if probe != nil {
		rep = &ProbeReport{}
	}
	complete := c.Exec(r, index.Spec{}, yield, rep)
	if probe != nil {
		probe.Add(rep.Primary)
		probe.Add(rep.Outlier)
	}
	return complete
}

// Exec answers r row by row: yield's return value stops the scan, spec.Ctx
// and spec.Abort cancel it within about one page, and a non-nil rep is
// filled with the execution report (translations applied, partitions probed
// or pruned, pages/rows scanned, tombstones filtered, batches run). Rows
// alias index internals and are valid only during the call. It reports
// whether the scan ran to completion.
func (c *COAX) Exec(r index.Rect, spec index.Spec, yield index.Yield, rep *ProbeReport) bool {
	return c.run(r, spec, rep, func(b *index.Batch) bool { return b.Each(yield) })
}

// ExecAgg answers r by folding every batch into st straight off its
// selection bitmap, with no visitor callback per row: st is an
// *index.AggState, or an *index.RowsState for a row reply. Ctx, Abort and
// rep behave as in Exec (Limit is ignored: the fold decides what it keeps). It reports whether the scan ran to completion (false: it was
// aborted or st declined a batch, and st holds a partial fold).
func (c *COAX) ExecAgg(r index.Rect, spec index.Spec, st interface{ FoldBatch(*index.Batch) bool }, rep *ProbeReport) bool {
	return c.run(r, spec, rep, st.FoldBatch)
}

// run is the one plan every execution takes: prune each partition by its
// bounding box, translate the rectangle (Eq. 2), scan the primary grid with
// routed ∩ r, scan the outlier index with r, handing consume every batch.
//
// The primary is scanned with the intersection because routed widens the
// dependent columns to ±∞ and tightens the predictors: routed ∩ r restores
// the dependent constraints while keeping the tightened predictor intervals,
// so membership in it is exactly "matched the routed rectangle and the
// original". Grid routing and the sort-dimension span only read grid and
// sort dimensions, which translation never loosens, so the cells walked and
// spans scanned are those of the routed rectangle.
func (c *COAX) run(r index.Rect, spec index.Spec, rep *ProbeReport, consume index.BatchYield) bool {
	// Cancellation reaches the scans through the probes' per-page abort
	// hook — a consumer-side check alone would never fire on a scan whose
	// pages match nothing.
	abort := spec.Abort
	if spec.Ctx != nil {
		ctx, prev := spec.Ctx, abort
		abort = func() bool {
			return (prev != nil && prev()) || ctx.Err() != nil
		}
	}

	// Translation is rectangle-level planning: with a report requested it
	// runs even for a pruned probe, so an EXPLAIN always shows the derived
	// predictor intervals; without one a pruned probe skips the work.
	pruned := c.primary == nil || r.Empty() || !r.Overlaps(c.primaryBounds)
	if !pruned || rep != nil {
		routed, feasible := c.translate(r, rep)
		if !pruned && feasible {
			var slot *index.Probe
			if rep != nil {
				rep.PrimaryProbed, rep.PrimaryKernel = true, c.primary.BatchKernel()
				slot = &rep.Primary
			}
			if !c.primary.ScanBatch(routed.Intersect(r), consume, partitionProbe(slot, abort)) {
				return false
			}
		}
	}
	if abort != nil && abort() {
		return false
	}
	if c.outliers == nil || r.Empty() || !r.Overlaps(c.outlierBounds) {
		return true
	}
	var slot *index.Probe
	if rep != nil {
		rep.OutlierProbed, rep.OutlierKernel = true, c.outliers.BatchKernel()
		slot = &rep.Outlier
	}
	return c.outliers.ScanBatch(r, consume, partitionProbe(slot, abort))
}

// partitionProbe returns the probe to hand a partition's scan: the
// report's counter block when a report is wanted, a throwaway otherwise —
// a probe must exist whenever an abort hook needs carrying.
func partitionProbe(slot *index.Probe, abort func() bool) *index.Probe {
	if slot != nil {
		slot.Abort = abort
		return slot
	}
	if abort != nil {
		return &index.Probe{Abort: abort}
	}
	return nil
}

// ObserveAggKernels folds one finished aggregation's kernel usage into the
// batch-kernel metrics: a dispatch count per partition kernel and the
// bitmap-selected row total. Callers gate on obs.On(); like ObserveProbe it
// is called once per underlying ProbeReport by the layer owning the whole
// query.
func ObserveAggKernels(rep *ProbeReport) {
	if rep == nil {
		return
	}
	if rep.PrimaryKernel != "" {
		obs.KernelGridBatch.Inc()
		obs.BatchRowsSelected.Add(rep.Primary.Matched)
	}
	if rep.OutlierKernel != "" {
		obs.KernelGridBatch.Inc()
		obs.BatchRowsSelected.Add(rep.Outlier.Matched)
	}
}

// translate implements Translate, optionally recording one Translation per
// constrained dependent column into rep. With rep == nil it returns on the
// first infeasible constraint exactly as the legacy path did; with a report
// it keeps going so the EXPLAIN shows every derived interval.
func (c *COAX) translate(r index.Rect, rep *ProbeReport) (routed index.Rect, feasible bool) {
	routed = r.Clone()
	feasible = true
	for d, pm := range c.depends {
		if pm == nil {
			continue
		}
		ql, qh := r.Min[d], r.Max[d]
		if math.IsInf(ql, -1) && math.IsInf(qh, 1) {
			continue // unconstrained dependent: nothing to translate
		}
		// Inliers satisfy ψ̂(x) − εLB ≤ d ≤ ψ̂(x) + εUB, so a match requires
		// ψ̂(x) ∈ [ql − εUB, qh + εLB]. InvertBand solves that for x under
		// either a linear or a spline model.
		xLo, xHi, ok := pm.InvertBand(ql-pm.EpsUB, qh+pm.EpsLB)
		if rep != nil {
			rep.Translations = append(rep.Translations, Translation{
				Dependent: d,
				Predictor: pm.X,
				DepMin:    ql,
				DepMax:    qh,
				PredMin:   xLo,
				PredMax:   xHi,
				Feasible:  ok,
			})
		}
		if !ok {
			feasible = false
			if rep == nil {
				return routed, false
			}
			continue
		}
		if xLo > routed.Min[pm.X] {
			routed.Min[pm.X] = xLo
		}
		if xHi < routed.Max[pm.X] {
			routed.Max[pm.X] = xHi
		}
		// Dependent constraints do not route the grid probe.
		routed.Min[d] = math.Inf(-1)
		routed.Max[d] = math.Inf(1)
		if routed.Min[pm.X] > routed.Max[pm.X] {
			feasible = false
			if rep == nil {
				return routed, false
			}
		}
	}
	if rep != nil {
		rep.PrimaryFeasible = feasible
	}
	return routed, feasible
}
