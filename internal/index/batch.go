package index

import (
	"math"
	"math/bits"
	"slices"
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

// Batch is one unit of a batch scan: a window of candidate rows, read in
// place in their page's layout, plus the selection bitmap the kernel
// computed over them. Bit i of Sel set means row i satisfies the query
// rectangle (and is not tombstoned). Tail bits past Rows are always zero,
// so popcounts over Sel need no edge handling.
//
// The layout is two steps: value (i, k) — row i, column k — sits at
// Page[i*RowStep + k*ColStep]. A row-major window (overflow pages, R-tree
// and full-scan slabs, raw mapped pages) has steps (Dims, 1); a window of a
// column-major grid-file page of m rows has steps (1, m), so every column
// the kernels test or the folds read is one contiguous run.
//
// Ownership follows the row-scan rule: the Batch itself, Page and Sel are
// scratch of the scan that is refilled after the yield returns, so
// consumers must copy anything they retain.
type Batch struct {
	// Page holds the window's values at the offsets the steps give.
	Page []float64
	// Dims is the row width.
	Dims int
	// Rows is the number of candidate rows in the window.
	Rows int
	// RowStep and ColStep place value (i, k) at Page[i*RowStep + k*ColStep].
	RowStep, ColStep int
	// Sel is the selection bitmap, BatchWords(Rows) words long.
	Sel []uint64

	// Row gathers a row of a column-major window here: in the fixed array
	// when it fits, so a scan's Batch carries its own row and gathering
	// allocates nothing, else in wide, allocated once per Batch.
	narrow [16]float64
	wide   []float64
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

// Row returns row i of the window. A window whose columns are adjacent
// (ColStep 1: row-major, or a one-row page) hands out a slice of the page;
// any other is gathered into scratch the Batch owns, so the row is valid
// only until the next Row or until the yield that received the batch
// returns. Either way it is capped at its own length.
func (b *Batch) Row(i int) []float64 {
	at := i * b.RowStep
	if b.ColStep == 1 {
		return b.Page[at : at+b.Dims : at+b.Dims]
	}
	row := b.narrow[:]
	if b.Dims > len(row) {
		if cap(b.wide) < b.Dims {
			b.wide = make([]float64, b.Dims)
		}
		row = b.wide
	}
	row = row[:b.Dims:b.Dims]
	for k := range row {
		row[k] = b.Page[at]
		at += b.ColStep
	}
	return row
}

// appendRow appends row i's values to dst — how a RowsState gathers
// straight into the rows it holds, with no stop in Row's scratch.
func (b *Batch) appendRow(dst []float64, i int) []float64 {
	at := i * b.RowStep
	if b.ColStep == 1 {
		return append(dst, b.Page[at:at+b.Dims]...)
	}
	n := len(dst)
	dst = slices.Grow(dst, b.Dims)[:n+b.Dims]
	for k := n; k < len(dst); k++ {
		dst[k] = b.Page[at]
		at += b.ColStep
	}
	return dst
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

// Select computes b.Sel, the selection bitmap of the prepared rectangle
// over b's window: bit i is set iff the rectangle contains row i. Each
// constrained dimension is evaluated as one tight loop over its column —
// one contiguous run in a column-major window, stride RowStep otherwise —
// producing 64-bit match words that are AND-intersected across
// dimensions. b.Sel must hold BatchWords(b.Rows) words; tail bits are left
// zero. The per-value test is the exact negation of Contains' rejection
// test, so NaN handling matches the row path bit-for-bit.
func (s *RectSel) Select(b *Batch) {
	rows, sel := b.Rows, b.Sel[:BatchWords(b.Rows)]
	if s.n == 0 {
		// No constrained dimension: all rows selected.
		for w := range sel {
			sel[w] = ^uint64(0)
		}
		if tail := rows & 63; tail != 0 {
			sel[len(sel)-1] = (1 << uint(tail)) - 1
		}
		return
	}
	for i := 0; i < s.n && rows > 0; i++ {
		var c colRange
		if i < len(s.buf) {
			c = s.buf[i]
		} else {
			c = s.rest[i-len(s.buf)]
		}
		col := b.Page[c.col*b.ColStep:]
		if i == 0 {
			rangeBitsInit(col, b.RowStep, rows, c.lo, c.hi, sel)
		} else {
			rangeBitsAnd(col, b.RowStep, rows, c.lo, c.hi, sel)
		}
	}
}

// SelectRect is the one-shot form of RectSel over a row-major window of
// rows rows, dims values each: Prepare(r) then Select. Scans prepare once
// and select per page; this is for callers with one window.
func SelectRect(page []float64, dims, rows int, r Rect, sel []uint64) {
	var s RectSel
	s.Prepare(r)
	s.Select(&Batch{Page: page, Dims: dims, Rows: rows, RowStep: dims, ColStep: 1, Sel: sel})
}

// rangeBitsInit writes the match words of one column range test over a
// column whose row i sits at col[i*step]: bit i set iff !(v < lo || v > hi).
func rangeBitsInit(col []float64, step, rows int, lo, hi float64, out []uint64) {
	off := 0
	for w := range out {
		n := min(rows-w<<6, 64)
		var bits uint64
		for i := 0; i < n; i++ {
			v := col[off]
			off += step
			if !(v < lo || v > hi) {
				bits |= 1 << uint(i)
			}
		}
		out[w] = bits
	}
}

// rangeBitsAnd intersects one column's match words into out, skipping
// 64-row blocks already dead — the common case on selective queries.
func rangeBitsAnd(col []float64, step, rows int, lo, hi float64, out []uint64) {
	for w, have := range out {
		if have == 0 {
			continue
		}
		n := min(rows-w<<6, 64)
		off := w << 6 * step
		var bits uint64
		for i := 0; i < n; i++ {
			v := col[off]
			off += step
			if !(v < lo || v > hi) {
				bits |= 1 << uint(i)
			}
		}
		out[w] = have & bits
	}
}
