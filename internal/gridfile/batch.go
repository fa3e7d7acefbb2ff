package gridfile

import (
	"math/bits"

	"github.com/coax-index/coax/internal/index"
)

// Batch-at-a-time scanning (the vectorized sibling of Scan in gridfile.go).
// The cell walk is identical — same odometer over the rectangle's cell
// sub-lattice, same binary-searched sort-dimension span per page, same
// probe counter semantics — but instead of yielding rows one at a time
// through an interface call, each span is cut into windows of at most
// index.BatchRows rows whose selection bitmap is computed by per-column
// range loops and masked against the tombstone bitmap before the batch is
// handed to the caller.

// BatchKernel implements index.Kernel.
func (g *GridFile) BatchKernel() string { return "grid-batch" }

var _ index.ScanBatcher = (*GridFile)(nil)

// batchScratch is the per-call scratch of one ScanBatch: the selection
// words, the tombstone window, and — for a store-backed grid file — the
// buffer its pages decode into. Allocated once per scan, never shared — the
// grid file stays safe for concurrent readers.
type batchScratch struct {
	sel  []uint64
	dead []uint64
	page []float64
}

// ScanBatch implements index.ScanBatcher. It visits exactly the rows
// Scan(r, ...) yields and accumulates identical probe counters (pages,
// rows scanned, matches, tombstones), plus one Probe.Batches increment per
// batch handed to yield. The scan stops — skipping every remaining page —
// as soon as yield returns false or the probe's abort hook fires.
func (g *GridFile) ScanBatch(r index.Rect, yield index.BatchYield, probe *index.Probe) bool {
	if r.Empty() {
		return true
	}
	scratch := &batchScratch{sel: make([]uint64, index.BatchWords(index.BatchRows))}
	if g.deadCount > 0 {
		scratch.dead = make([]uint64, index.BatchWords(index.BatchRows))
	}

	nd := len(g.cfg.GridDims)
	lo := make([]int, nd)
	hi := make([]int, nd)
	for i, d := range g.cfg.GridDims {
		lo[i] = g.locate(i, r.Min[d])
		hi[i] = g.locate(i, r.Max[d])
	}

	// Odometer over the cell sub-lattice [lo, hi] — the same walk as Scan.
	idx := make([]int, nd)
	copy(idx, lo)
	for {
		if probe.Aborted() {
			return false // cancelled: stop even if no cell ever matches
		}
		c := 0
		for i := range idx {
			c += idx[i] * g.strides[i]
		}
		if !g.batchCell(c, r, yield, probe, scratch) {
			return false
		}
		if g.inserted > 0 {
			if !g.batchOverflow(c, r, yield, probe, scratch) {
				return false
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

// batchCell is scanCell's batch counterpart: the same span and the same
// counters, with selection and tombstone filtering done word-wise.
func (g *GridFile) batchCell(c int, r index.Rect, yield index.BatchYield, probe *index.Probe, scratch *batchScratch) bool {
	min, max := g.queryWindow(r)
	span, first, ok := g.mainSpan(c, min, max, &scratch.page)
	if !ok {
		return true
	}
	dims := g.dims
	rows := len(span) / dims
	if probe != nil {
		probe.Pages++
		probe.Scanned += int64(rows)
	}
	base := int(g.offsets[c]) + first // global slot of the span's first row
	for s := 0; s < rows; s += index.BatchRows {
		n := rows - s
		if n > index.BatchRows {
			n = index.BatchRows
		}
		words := index.BatchWords(n)
		b := index.Batch{
			Page: span[s*dims : (s+n)*dims],
			Dims: dims,
			Rows: n,
			Sel:  scratch.sel[:words],
		}
		index.SelectRect(b.Page, dims, n, r, b.Sel)
		if g.deadCount > 0 {
			// The row path counts every tombstone in the span — matching or
			// not — before the rectangle check, so count the whole window's
			// dead bits, then clear them from the selection.
			dead := g.deadWindow(base+s, n, scratch.dead[:words])
			if probe != nil {
				probe.Tombstones += int64(dead)
			}
			if dead > 0 {
				for w := range b.Sel {
					b.Sel[w] &^= scratch.dead[w]
				}
			}
		}
		if probe != nil {
			probe.Matched += int64(b.Selected())
			probe.Batches++
		}
		if !yield(&b) {
			return false
		}
	}
	return true
}

// batchOverflow is scanOverflow's batch counterpart. Overflow pages hold
// no tombstones (deletes there are in-place), so no masking is needed.
func (g *GridFile) batchOverflow(c int, r index.Rect, yield index.BatchYield, probe *index.Probe, scratch *batchScratch) bool {
	page := g.overflow[c]
	if page == nil || len(page.data) == 0 {
		return true
	}
	dims := g.dims
	lo, hi := g.querySpan(page.data, r)
	if probe != nil {
		probe.Pages++
		probe.Scanned += int64(hi - lo)
	}
	for s := lo; s < hi; s += index.BatchRows {
		n := hi - s
		if n > index.BatchRows {
			n = index.BatchRows
		}
		b := index.Batch{
			Page: page.data[s*dims : (s+n)*dims],
			Dims: dims,
			Rows: n,
			Sel:  scratch.sel[:index.BatchWords(n)],
		}
		index.SelectRect(b.Page, dims, n, r, b.Sel)
		if probe != nil {
			probe.Matched += int64(b.Selected())
			probe.Batches++
		}
		if !yield(&b) {
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
