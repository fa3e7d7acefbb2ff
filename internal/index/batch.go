package index

import (
	"math"
	"math/bits"
)

// Batch-at-a-time scanning: the one traversal a storage engine owns.
// ScanBatch evaluates the rectangle as tight per-column loops over a page's
// rows and hands the caller one selection bitmap per batch. What differs
// between queries is the consumer: aggregations fold straight off the
// bitmap (COUNT is a popcount; SUM/MIN/MAX walk only the set bits), and row
// queries walk its set bits through Batch.Each.

// BatchRows is the maximum number of rows in one Batch: large enough to
// amortize per-batch bookkeeping, small enough that a batch's selection
// words and the column values it touches stay cache-resident.
const BatchRows = 1024

// BatchWords returns the number of 64-bit selection words covering rows.
func BatchWords(rows int) int { return (rows + 63) >> 6 }

// Batch is one unit of a batch scan: a window of candidate rows in their
// native row-major page layout plus the selection bitmap the kernel
// computed over them. Bit i of Sel set means row i satisfies the query
// rectangle (and is not tombstoned). Tail bits past Rows are always zero,
// so popcounts over Sel need no edge handling.
//
// Ownership follows the row-scan rule: the Batch itself, Page and Sel are
// scratch of the scan that is refilled after the yield returns, so
// consumers must copy anything they retain.
type Batch struct {
	// Page is the row-major window: Rows*Dims values, row i occupying
	// Page[i*Dims : (i+1)*Dims].
	Page []float64
	// Dims is the row stride.
	Dims int
	// Rows is the number of candidate rows in the window.
	Rows int
	// Sel is the selection bitmap, BatchWords(Rows) words long.
	Sel []uint64
}

// BatchYield receives one batch per call and reports whether the scan
// should continue, mirroring Yield's contract at batch granularity.
type BatchYield func(b *Batch) bool

// ScanBatcher is the batch-at-a-time contract of the storage engines.
// ScanBatch visits exactly the rows Scan(r, ...) yields — as set bits
// instead of callbacks — and accumulates the same probe counters (pages,
// rows scanned, matches, tombstones) plus Probe.Batches. It reports whether
// the scan ran to completion (false: the yield or the probe's abort hook
// stopped it).
type ScanBatcher interface {
	ScanBatch(r Rect, yield BatchYield, probe *Probe) bool
}

// Kernel is implemented by indexes that name their vectorized scan kernel
// for EXPLAIN output and the per-kernel dispatch metrics.
type Kernel interface {
	BatchKernel() string
}

// Selected returns the number of set bits in the batch's selection bitmap.
func (b *Batch) Selected() int {
	n := 0
	for _, w := range b.Sel {
		n += bits.OnesCount64(w)
	}
	return n
}

// Row returns row i of the window (aliasing the page).
func (b *Batch) Row(i int) []float64 {
	return b.Page[i*b.Dims : (i+1)*b.Dims : (i+1)*b.Dims]
}

// Each drives a row-at-a-time yield off the selection bitmap — how a row
// query consumes a batch scan. It reports whether every selected row was
// delivered (false: yield stopped it).
func (b *Batch) Each(yield Yield) bool {
	for w, word := range b.Sel {
		base := w << 6
		for word != 0 {
			i := base + bits.TrailingZeros64(word)
			word &= word - 1
			if !yield(b.Row(i)) {
				return false
			}
		}
	}
	return true
}

// colRange is one constrained dimension of a rectangle.
type colRange struct {
	col    int
	lo, hi float64
}

// RectSel is a rectangle prepared for selection over many windows: its
// constrained columns and their bounds, derived once so that a scan pays
// nothing per page for the dimensions the query leaves open. A scan whose
// page already proves some columns — the grid file's cell walk proves the
// sort column its span is cut on and every grid axis the page's cell lies
// inside — prepares the rest with PrepareOpen and tests only those. The
// zero value is ready for Prepare.
type RectSel struct {
	n    int         // constrained dimensions
	buf  [8]colRange // the first of them: the usual rectangle allocates nothing
	rest []colRange  // any beyond
}

// Prepare resets s to select r.
func (s *RectSel) Prepare(r Rect) { s.PrepareOpen(r, nil) }

// PrepareOpen resets s to select r with every column open reports true for
// left unconstrained, as if r were ±∞ there: the caller has proved that
// every row it will select over lies inside r on those columns. A nil open
// opens nothing.
func (s *RectSel) PrepareOpen(r Rect, open func(col int) bool) {
	s.n, s.rest = 0, s.rest[:0]
	for d := range r.Min {
		lo, hi := r.Min[d], r.Max[d]
		if math.IsInf(lo, -1) && math.IsInf(hi, 1) || open != nil && open(d) {
			continue // unconstrained or proved: every row passes
		}
		if s.n < len(s.buf) {
			s.buf[s.n] = colRange{d, lo, hi}
		} else {
			s.rest = append(s.rest, colRange{d, lo, hi})
		}
		s.n++
	}
}

// Columns reports how many columns Select tests: the per-row cost of a
// window, which Probe.ColumnTests counts.
func (s *RectSel) Columns() int { return s.n }

// Select computes the selection bitmap of the prepared rectangle over a
// row-major window: bit i of sel is set iff the rectangle contains row i.
// Each constrained dimension is evaluated as one tight loop over its
// column (stride dims), producing 64-bit match words that are
// AND-intersected across dimensions. sel must hold BatchWords(rows) words;
// tail bits are left zero. The per-value test is the exact negation of
// Contains' rejection test, so NaN handling matches the row path
// bit-for-bit.
func (s *RectSel) Select(page []float64, dims, rows int, sel []uint64) {
	words := BatchWords(rows)
	if s.n == 0 {
		// No constrained dimension: all rows selected.
		for w := 0; w < words; w++ {
			sel[w] = ^uint64(0)
		}
		if tail := rows & 63; tail != 0 {
			sel[words-1] = (1 << uint(tail)) - 1
		}
		return
	}
	for i := 0; i < s.n; i++ {
		var c colRange
		if i < len(s.buf) {
			c = s.buf[i]
		} else {
			c = s.rest[i-len(s.buf)]
		}
		if i == 0 {
			rangeBitsInit(page, dims, c.col, rows, c.lo, c.hi, sel[:words])
		} else {
			rangeBitsAnd(page, dims, c.col, rows, c.lo, c.hi, sel[:words])
		}
	}
}

// SelectRect is the one-shot form of RectSel: Prepare(r) then Select. Scans
// prepare once and select per page; this is for callers with one window.
func SelectRect(page []float64, dims, rows int, r Rect, sel []uint64) {
	var s RectSel
	s.Prepare(r)
	s.Select(page, dims, rows, sel)
}

// rangeBitsInit writes the match words of one column range test:
// bit i set iff !(v < lo || v > hi) for v = page[i*dims+col].
func rangeBitsInit(page []float64, dims, col, rows int, lo, hi float64, out []uint64) {
	off := col
	for w := range out {
		n := rows - w<<6
		if n > 64 {
			n = 64
		}
		var bits uint64
		for i := 0; i < n; i++ {
			v := page[off]
			off += dims
			if !(v < lo || v > hi) {
				bits |= 1 << uint(i)
			}
		}
		out[w] = bits
	}
}

// rangeBitsAnd intersects one column's match words into out, skipping
// 64-row blocks already dead — the common case on selective queries.
func rangeBitsAnd(page []float64, dims, col, rows int, lo, hi float64, out []uint64) {
	for w := range out {
		have := out[w]
		if have == 0 {
			continue
		}
		n := rows - w<<6
		if n > 64 {
			n = 64
		}
		off := w<<6*dims + col
		var bits uint64
		for i := 0; i < n; i++ {
			v := page[off]
			off += dims
			if !(v < lo || v > hi) {
				bits |= 1 << uint(i)
			}
		}
		out[w] = have & bits
	}
}
