package gridfile

import (
	"math"
	"math/bits"
	"slices"
	"sync"

	"github.com/coax-index/coax/internal/index"
)

// The cell walk — the one traversal of a grid file. ScanBatch runs an
// odometer over the rectangle's cell sub-lattice, binary-searches each
// page's sort-dimension span, cuts the span into windows of at most
// index.BatchRows rows, computes each window's selection bitmap with
// per-column range loops, masks it against the tombstone bitmap, and hands
// the batch to the caller. Scan is its row consumer (Batch.Each). Windows
// are read in place in their page's layout: a resident main page is
// column-major, so each column a window's kernels test or its folds read
// is one contiguous run; overflow pages are row-major. A window of a
// compressed mapped page carries the page's column source, so the kernels
// test its columns on their packed codes and the folds unpack only the
// columns, and the rows, they read.
//
// A page is tested only on the columns its cell does not prove. The span
// proves the sort column: a page is sorted on it and holds finite values
// only (every build and insert refuses the rest), so the binary search
// returns exactly the rows inside the rectangle's window. A cell proves a
// grid axis when it lies inside the rectangle on it — see inside — and the
// walk re-prepares the selection only when that set of axes changes.

// BatchKernel implements index.Kernel.
func (g *GridFile) BatchKernel() string { return "grid-batch" }

var _ index.ScanBatcher = (*GridFile)(nil)

// batchScratch is everything one ScanBatch derives or reuses across pages:
// the odometer's axes, the selection prepared for the current cell and the
// rectangle's sort-dimension window, the Batch handed to the yield with its
// selection words (and the row its Row gathers into), the tombstone window,
// and — for a store-backed grid file — the buffer its pages decode into and
// the store's column source. A scan takes one from scratchPool and puts it
// back when it returns, so nothing is allocated per page, a steady stream
// of scans allocates none, and no two scans share one: the grid file stays
// safe for concurrent readers.
type batchScratch struct {
	axes     []axisWalk
	rect     index.RectSel
	min, max float64
	batch    index.Batch
	sel      [index.BatchRows / 64]uint64
	dead     [index.BatchRows / 64]uint64
	page     Scratch
}

// scratchPool holds the scratch of finished scans.
var scratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// maxPooledVals is the most page values a pooled scratch keeps (64 kB): a
// scan that read a larger page gives its buffer, and the column source
// over it, back to the collector instead.
const maxPooledVals = 64 << 10 / 8

// release returns s to scratchPool, holding no page of the scan.
func (s *batchScratch) release() {
	s.batch.Page, s.batch.Sel, s.batch.Cols = nil, nil, nil
	if cap(s.page.Vals) > maxPooledVals {
		s.page = Scratch{}
	}
	scratchPool.Put(s)
}

// axisWalk is the odometer's state on one grid axis: the rectangle's slot
// range [lo, hi], the current slot, and whether that slot lies inside the
// rectangle on the axis.
type axisWalk struct {
	lo, hi, at int
	inside     bool
}

// ScanBatch implements index.ScanBatcher: it hands yield every row of the
// grid file inside r, as set bits of one batch per page window, and counts
// pages, rows scanned, matches, tombstones, batches and column tests into
// probe. The scan stops — skipping every remaining page — as soon as yield
// returns false or the probe's abort hook fires.
func (g *GridFile) ScanBatch(r index.Rect, yield index.BatchYield, probe *index.Probe) bool {
	if r.Empty() {
		return true
	}
	s := scratchPool.Get().(*batchScratch)
	defer s.release()
	s.min, s.max = g.queryWindow(r)
	s.batch.Dims = g.dims

	axes := slices.Grow(s.axes[:0], len(g.cfg.GridDims))[:len(g.cfg.GridDims)]
	s.axes = axes
	for i, d := range g.cfg.GridDims {
		lo, hi := g.locate(i, r.Min[d]), g.locate(i, r.Max[d])
		axes[i] = axisWalk{lo: lo, hi: hi, at: lo, inside: g.inside(i, lo, r)}
	}
	// proved reports whether the current cell's pages need no test on
	// column d.
	proved := func(d int) bool {
		if d == g.cfg.SortDim {
			return true
		}
		for i, gd := range g.cfg.GridDims {
			if gd == d {
				return axes[i].inside
			}
		}
		return false
	}
	s.rect.PrepareOpen(r, proved)

	// Odometer over the cell sub-lattice [lo, hi].
	for {
		if probe.Aborted() {
			return false // cancelled: stop even if no cell ever matches
		}
		c := 0
		for i := range axes {
			c += axes[i].at * g.strides[i]
		}
		if span, first, ok := g.mainSpan(c, s.min, s.max, &s.page); ok {
			if !g.emit(span, int(g.offsets[c])+first, yield, probe, s) {
				return false
			}
		}
		if g.inserted > 0 {
			if page := g.overflow[c]; page != nil && len(page.data) > 0 {
				rows := RowMajor(page.data, g.dims)
				from, to := g.sortSpan(rows, s.min, s.max)
				// Overflow pages hold no tombstones (deletes there are
				// in place), so there is no slot to mask against.
				if !g.emit(rows.Slice(from, to, g.dims), -1, yield, probe, s) {
					return false
				}
			}
		}

		// Advance, re-deciding what the cell proves on every axis whose
		// slot moved.
		i, changed := len(axes)-1, false
		for ; i >= 0; i-- {
			a := &axes[i]
			wrapped := a.at == a.hi
			if wrapped {
				a.at = a.lo
			} else {
				a.at++
			}
			if in := g.inside(i, a.at, r); in != a.inside {
				a.inside, changed = in, true
			}
			if !wrapped {
				break
			}
		}
		if i < 0 {
			return true
		}
		if changed {
			s.rect.PrepareOpen(r, proved)
		}
	}
}

// inside reports whether every value slot s of grid axis i can hold lies
// inside r on that axis's column. Slot maps v to slot s when
// b[s] ≤ v < b[s+1], so s lies inside when r.Min ≤ b[s] and b[s+1] ≤ r.Max
// — except that Slot also clamps values below b[0] into slot 0 and values
// from the last boundary up into the last slot, so slot 0 needs r.Min = −∞
// as well, and the last slot r.Max = +∞.
func (g *GridFile) inside(i, s int, r index.Rect) bool {
	b, d := g.bounds[i], g.cfg.GridDims[i]
	lo, hi := r.Min[d], r.Max[d]
	if s == 0 && !math.IsInf(lo, -1) || s == len(b)-2 && !math.IsInf(hi, 1) {
		return false
	}
	return lo <= b[s] && b[s+1] <= hi
}

// emit hands yield one page's span in windows of at most index.BatchRows
// rows, each read in place through the span's steps. slot is the global
// tombstone slot of the span's first row, or negative for a span no
// tombstone can cover. It reports false as soon as yield stops the scan.
func (g *GridFile) emit(span Span, slot int, yield index.BatchYield, probe *index.Probe, s *batchScratch) bool {
	rows := span.Rows
	if probe != nil {
		probe.Pages++
		probe.Scanned += int64(rows)
	}
	b := &s.batch
	b.RowStep, b.ColStep, b.Cols = span.RowStep, span.ColStep, span.Cols
	for at := 0; at < rows; at += index.BatchRows {
		n := min(rows-at, index.BatchRows)
		words := index.BatchWords(n)
		b.Page, b.Rows, b.Sel, b.ColsRow = span.Data[at*span.RowStep:], n, s.sel[:words], at
		tests := s.rect.Select(b)
		if probe != nil {
			probe.ColumnTests += int64(tests)
		}
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
