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
// A window may arrive with some values not yet in place: a compressed
// mapped page unpacks its sort column on every read and any other column
// only where a consumer reads it (late materialisation). Such a batch
// carries the page's column source in Cols, and whoever reads a column off
// Page pulls the rows it reads first. Select leaves each column it tests
// to the source, which compares its packed codes and unpacks nothing, the
// folds pull the columns they read over the selected rows (a row fold only
// up to the last row it keeps), and Row and Each pull every column. A nil
// Cols — every resident and row-major window — means every value is in
// place, and costs its readers one nil check.
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
	// Cols, when non-nil, supplies the values Page does not hold yet; see
	// Pull. ColsRow is the window's first row in Cols' numbering.
	Cols    Columns
	ColsRow int

	// Row gathers a row of a column-major window here: in the fixed array
	// when it fits, so a scan's Batch carries its own row and gathering
	// allocates nothing, else in wide, allocated once per Batch.
	narrow [16]float64
	wide   []float64
}

// Columns is a page's column source. Its rows are numbered from the page
// span it came with; a batch translates through ColsRow.
type Columns interface {
	// Pull puts column k of rows [lo, hi) in place in the page the
	// batches read, at the offsets their steps give, unpacking only what
	// no earlier Pull has.
	Pull(k, lo, hi int)
	// Select is one column's range test over the window of rows rows
	// starting at row at: it writes into sel the match words of
	// !(v < lo || v > hi) on column k — or, with and set, intersects them
	// into sel, testing only the 64-row blocks still live — exactly as
	// RangeBits would over the column's values, without needing them in
	// place. It returns the number of values it tested: rows when it ran a
	// kernel, 0 when the page proved the answer without one.
	Select(k int, lo, hi float64, at, rows int, sel []uint64, and bool) int
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

// Pull puts column k of the selected rows in place — from the first to the
// last — if the batch has a column source: what a consumer that reads the
// column at the selected rows calls first.
func (b *Batch) Pull(k int) {
	if b.Cols != nil {
		if lo, hi := SelRange(b.Sel); lo < hi {
			b.Cols.Pull(k, b.ColsRow+lo, b.ColsRow+hi)
		}
	}
}

// pullRows puts every column of window rows [lo, hi) in place; the caller
// has checked that b.Cols is set.
func (b *Batch) pullRows(lo, hi int) {
	if lo < hi {
		for k := 0; k < b.Dims; k++ {
			b.Cols.Pull(k, b.ColsRow+lo, b.ColsRow+hi)
		}
	}
}

// SelRange returns the rows [lo, hi) from the first selected row of sel to
// just past the last, or lo == hi when none is selected.
func SelRange(sel []uint64) (lo, hi int) {
	first := -1
	for w, word := range sel {
		if word != 0 {
			first = w
			break
		}
	}
	if first < 0 {
		return 0, 0
	}
	last := len(sel) - 1
	for sel[last] == 0 {
		last--
	}
	return first<<6 + bits.TrailingZeros64(sel[first]), last<<6 + 64 - bits.LeadingZeros64(sel[last])
}

// through returns the row just past the n-th selected row of b (n ≥ 1), or
// b.Rows when fewer than n are selected.
func (b *Batch) through(n int) int {
	for w, word := range b.Sel {
		if c := bits.OnesCount64(word); n > c {
			n -= c
			continue
		}
		for ; n > 1; n-- {
			word &= word - 1
		}
		return w<<6 + bits.TrailingZeros64(word) + 1
	}
	return b.Rows
}

// Row returns row i of the window, pulling whatever of it is not in place.
// A window whose columns are adjacent (ColStep 1: row-major, or a one-row
// page) hands out a slice of the page; any other is gathered into scratch
// the Batch owns, so the row is valid only until the next Row or until the
// yield that received the batch returns. Either way it is capped at its
// own length.
func (b *Batch) Row(i int) []float64 {
	if b.Cols != nil {
		b.pullRows(i, i+1)
	}
	return b.row(i)
}

// row is Row over values already in place.
func (b *Batch) row(i int) []float64 {
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

// appendRow appends row i's values, already in place, to dst — how a
// RowsState gathers straight into the rows it holds, with no stop in Row's
// scratch.
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
// query consumes a batch scan. It pulls every column over the selected
// rows first, and reports whether every selected row was delivered (false:
// yield stopped it).
func (b *Batch) Each(yield Yield) bool {
	if b.Cols != nil {
		b.pullRows(SelRange(b.Sel))
	}
	for w, word := range b.Sel {
		base := w << 6
		for word != 0 {
			i := base + bits.TrailingZeros64(word)
			word &= word - 1
			if !yield(b.row(i)) {
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

// Select computes b.Sel, the selection bitmap of the prepared rectangle
// over b's window: bit i is set iff the rectangle contains row i. Each
// constrained dimension is evaluated as one tight loop over its column —
// one contiguous run in a column-major window, stride RowStep otherwise —
// producing 64-bit match words that are AND-intersected across
// dimensions. b.Sel must hold BatchWords(b.Rows) words; tail bits are left
// zero. The per-value test is the exact negation of Contains' rejection
// test, so NaN handling matches the row path bit-for-bit.
//
// A batch with a column source has the source test each column instead
// (Columns.Select): the first over the whole window, every later one only
// over the 64-row blocks still live, and none once no row is. It returns
// the number of values tested — the window's rows for each column a
// kernel ran on — which Probe.ColumnTests counts.
func (s *RectSel) Select(b *Batch) int {
	rows, sel := b.Rows, b.Sel[:BatchWords(b.Rows)]
	if s.n == 0 {
		SelectAll(sel, rows) // no constrained dimension
		return 0
	}
	tests := 0
	for i := 0; i < s.n && rows > 0; i++ {
		var c colRange
		if i < len(s.buf) {
			c = s.buf[i]
		} else {
			c = s.rest[i-len(s.buf)]
		}
		if b.Cols == nil {
			RangeBits(b.Page[c.col*b.ColStep:], b.RowStep, rows, c.lo, c.hi, sel, i > 0)
			tests += rows
			continue
		}
		if i > 0 {
			if lo, hi := SelRange(sel); lo == hi {
				break // no row left to test
			}
		}
		tests += b.Cols.Select(c.col, c.lo, c.hi, b.ColsRow, rows, sel, i > 0)
	}
	return tests
}

// SelectAll sets the bits of rows rows in sel, BatchWords(rows) words long,
// leaving its tail bits zero.
func SelectAll(sel []uint64, rows int) {
	for w := range sel {
		sel[w] = ^uint64(0)
	}
	if tail := rows & 63; tail != 0 {
		sel[len(sel)-1] = (1 << uint(tail)) - 1
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

// RangeBits is the float kernel of one column range test over rows rows of
// a column whose row i sits at col[i*step]: it writes the match words of
// !(v < lo || v > hi) into sel, or with and set intersects them into sel.
func RangeBits(col []float64, step, rows int, lo, hi float64, sel []uint64, and bool) {
	if and {
		rangeBitsAnd(col, step, rows, lo, hi, sel)
	} else {
		rangeBitsInit(col, step, rows, lo, hi, sel)
	}
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
