package rtree

import "github.com/coax-index/coax/internal/index"

// Batch-at-a-time scanning for the R-tree. Leaf entries are scattered
// across small nodes, so unlike the grid file there is no contiguous page
// to bitmap in place; instead the descent gathers candidate rows into a
// reusable row-major slab and the rectangle is evaluated per column over
// the slab once it fills — the copies cost one memmove per candidate but
// remove the per-row interface call and Contains re-check, which dominate
// on the outlier path. Probe counters match Scan exactly: one page per node
// visited, every leaf entry scanned, matches counted via the bitmap.

// BatchKernel implements index.Kernel.
func (rt *RTree) BatchKernel() string { return "rtree-batch" }

var _ index.ScanBatcher = (*RTree)(nil)

// rtGather is the scratch of one ScanBatch: the prepared rectangle, the
// slab candidate rows accumulate in, and the Batch handed to the yield.
type rtGather struct {
	rect  index.RectSel
	batch index.Batch
	sel   [index.BatchRows / 64]uint64
}

// emit evaluates and yields the gathered batch, then resets the gather.
// It reports whether the scan should continue.
func (g *rtGather) emit(yield index.BatchYield, probe *index.Probe) bool {
	b := &g.batch
	if b.Rows == 0 {
		return true
	}
	b.Sel = g.sel[:index.BatchWords(b.Rows)]
	tests := g.rect.Select(b)
	if probe != nil {
		probe.Matched += int64(b.Selected())
		probe.Batches++
		probe.ColumnTests += int64(tests)
	}
	more := yield(b)
	b.Page, b.Rows = b.Page[:0], 0
	return more
}

// ScanBatch implements index.ScanBatcher: it visits exactly the rows
// Scan(r, ...) yields, with identical pages/rows-scanned/matched counters,
// plus Probe.Batches. The recursion unwinds as soon as yield declines a
// batch or the probe's abort hook fires.
func (rt *RTree) ScanBatch(r index.Rect, yield index.BatchYield, probe *index.Probe) bool {
	if r.Empty() || rt.n == 0 {
		return true
	}
	g := &rtGather{}
	g.rect.Prepare(r)
	g.batch.Dims, g.batch.RowStep, g.batch.ColStep = rt.dims, rt.dims, 1
	g.batch.Page = make([]float64, 0, index.BatchRows*rt.dims)
	complete := rt.search(rt.root, r, probe, func(nd *node) bool {
		b := &g.batch
		for i := range nd.entries {
			b.Page = append(b.Page, nd.entries[i].min...)
			if b.Rows++; b.Rows == index.BatchRows && !g.emit(yield, probe) {
				return false
			}
		}
		return true
	})
	return complete && g.emit(yield, probe) // flush the final partial batch
}
