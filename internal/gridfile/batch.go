package gridfile

import (
	"math/bits"

	"github.com/coax-index/coax/internal/index"
)

// The cell walk — the one traversal of a grid file. ScanBatch runs an
// odometer over the rectangle's cell sub-lattice, binary-searches each
// page's sort-dimension span, cuts the span into windows of at most
// index.BatchRows rows, computes each window's selection bitmap with
// per-column range loops, masks it against the tombstone bitmap, and hands
// the batch to the caller. Scan is its row consumer (Batch.Each).

// BatchKernel implements index.Kernel.
func (g *GridFile) BatchKernel() string { return "grid-batch" }

var _ index.ScanBatcher = (*GridFile)(nil)

// batchScratch is everything one ScanBatch derives or reuses across pages:
// the prepared rectangle and its sort-dimension window, the Batch handed to
// the yield with its selection words, the tombstone window, the odometer,
// and — for a store-backed grid file — the buffer its pages decode into.
// One allocation per scan, never shared, so nothing is allocated or
// re-derived per page and the grid file stays safe for concurrent readers.
type batchScratch struct {
	rect     index.RectSel
	min, max float64
	batch    index.Batch
	sel      [index.BatchRows / 64]uint64
	dead     [index.BatchRows / 64]uint64
	page     []float64
}

// ScanBatch implements index.ScanBatcher: it hands yield every row of the
// grid file inside r, as set bits of one batch per page window, and counts
// pages, rows scanned, matches, tombstones and batches into probe. The scan
// stops — skipping every remaining page — as soon as yield returns false
// or the probe's abort hook fires.
func (g *GridFile) ScanBatch(r index.Rect, yield index.BatchYield, probe *index.Probe) bool {
	if r.Empty() {
		return true
	}
	s := &batchScratch{}
	s.rect.Prepare(r)
	s.min, s.max = g.queryWindow(r)
	s.batch.Dims = g.dims

	nd := len(g.cfg.GridDims)
	odo := make([]int, 3*nd)
	lo, hi, idx := odo[:nd], odo[nd:2*nd], odo[2*nd:]
	for i, d := range g.cfg.GridDims {
		lo[i] = g.locate(i, r.Min[d])
		hi[i] = g.locate(i, r.Max[d])
	}

	// Odometer over the cell sub-lattice [lo, hi].
	copy(idx, lo)
	for {
		if probe.Aborted() {
			return false // cancelled: stop even if no cell ever matches
		}
		c := 0
		for i := range idx {
			c += idx[i] * g.strides[i]
		}
		if span, first, ok := g.mainSpan(c, s.min, s.max, &s.page); ok {
			if !g.emit(span, int(g.offsets[c])+first, yield, probe, s) {
				return false
			}
		}
		if g.inserted > 0 {
			if page := g.overflow[c]; page != nil && len(page.data) > 0 {
				from, to := g.sortSpan(page.data, s.min, s.max)
				// Overflow pages hold no tombstones (deletes there are
				// in place), so there is no slot to mask against.
				if !g.emit(page.data[from*g.dims:to*g.dims], -1, yield, probe, s) {
					return false
				}
			}
		}

		i := nd - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] <= hi[i] {
				break
			}
			idx[i] = lo[i]
		}
		if i < 0 {
			return true
		}
	}
}

// emit hands yield one page's span in windows of at most index.BatchRows
// rows. slot is the global tombstone slot of the span's first row, or
// negative for a span no tombstone can cover. It reports false as soon as
// yield stops the scan.
func (g *GridFile) emit(span []float64, slot int, yield index.BatchYield, probe *index.Probe, s *batchScratch) bool {
	dims := g.dims
	rows := len(span) / dims
	if probe != nil {
		probe.Pages++
		probe.Scanned += int64(rows)
	}
	b := &s.batch
	for at := 0; at < rows; at += index.BatchRows {
		n := min(rows-at, index.BatchRows)
		words := index.BatchWords(n)
		b.Page, b.Rows, b.Sel = span[at*dims:(at+n)*dims], n, s.sel[:words]
		s.rect.Select(b.Page, dims, n, b.Sel)
		if slot >= 0 && g.deadCount > 0 {
			// Every tombstone in the window counts as filtered, selected
			// or not; then the dead bits are cleared from the selection.
			dead := g.deadWindow(slot+at, n, s.dead[:words])
			if probe != nil {
				probe.Tombstones += int64(dead)
			}
			if dead > 0 {
				for w := range b.Sel {
					b.Sel[w] &^= s.dead[w]
				}
			}
		}
		if probe != nil {
			probe.Matched += int64(b.Selected())
			probe.Batches++
		}
		if !yield(b) {
			return false
		}
	}
	return true
}

// deadWindow extracts n bits of the tombstone bitmap starting at global
// slot start into out (one word per 64 slots, tail bits zeroed) and
// returns the number of set bits. The bitmap may be shorter than the slot
// range — missing words read as zero, exactly as isDead treats them.
func (g *GridFile) deadWindow(start, n int, out []uint64) int {
	base := start >> 6
	off := uint(start) & 63
	count := 0
	for w := range out {
		var word uint64
		k := base + w
		if k < len(g.dead) {
			word = g.dead[k] >> off
			if off != 0 && k+1 < len(g.dead) {
				word |= g.dead[k+1] << (64 - off)
			}
		}
		rem := n - w<<6
		if rem < 64 {
			word &= 1<<uint(rem) - 1
		}
		out[w] = word
		count += bits.OnesCount64(word)
	}
	return count
}
