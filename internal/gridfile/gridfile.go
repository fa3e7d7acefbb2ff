// Package gridfile implements the modified Grid File of the paper's §6: an
// in-memory multidimensional grid whose cell boundaries are placed on
// per-dimension quantiles (or uniformly, for the full-grid baseline), whose
// cells store their rows in contiguous row-store pages, and which may keep
// the rows inside every cell sorted on one additional dimension so that
// dimension needs no grid lines (Flood-style, reducing an n-dimensional
// index to n−1 grid dimensions).
package gridfile

import (
	"fmt"
	"math"
	"sort"

	"github.com/coax-index/coax/internal/dataset"
	"github.com/coax-index/coax/internal/index"
	"github.com/coax-index/coax/internal/stats"
)

// BoundsMode selects how grid lines are placed along each grid dimension.
type BoundsMode int

const (
	// Quantile places boundaries on equal-count quantiles of the data
	// (the paper's choice for COAX and Column Files).
	Quantile BoundsMode = iota
	// Uniform places boundaries at equal spacing between min and max
	// (the full-grid baseline).
	Uniform
)

// Config controls a grid file build.
type Config struct {
	// GridDims lists the columns that receive grid lines. May be empty, in
	// which case the structure degenerates to a single (optionally sorted)
	// page.
	GridDims []int
	// SortDim is the column on which rows are sorted inside each cell, or
	// -1 to disable in-cell sorting. Must not also appear in GridDims.
	SortDim int
	// CellsPerDim is the most cells any grid dimension may have (the paper
	// uses the same number of grid lines for each attribute). Each axis
	// takes its own count from its boundary vector: Quantile placement
	// gives a column whose values number d ≤ CellsPerDim exactly d cells,
	// one per value (see SampleBounds), and every other column CellsPerDim.
	CellsPerDim int
	// Mode selects quantile or uniform boundary placement.
	Mode BoundsMode
	// Label overrides the Name() reported to the benchmark harness.
	Label string
}

// GridFile is the built index. It copies rows out of the source table into
// per-cell contiguous pages; the source table is not retained.
type GridFile struct {
	cfg     Config
	dims    int
	n       int
	bounds  [][]float64 // per grid dim: 2 to CellsPerDim+1 ascending boundaries
	strides []int       // row-major strides over the cell lattice
	data    []float64   // all rows, grouped by cell, row-major
	offsets []int64     // per cell: starting row within data; len = cells+1

	// store, when non-nil, supplies main-page rows instead of data — the
	// hook a memory-mapped snapshot uses to decode compressed cell pages on
	// read (see internal/mmapsnap). Every main-page read goes through
	// mainSpan, so a store-backed grid file answers queries identically to
	// a resident one.
	store PageStore

	// Insert support (see insert.go): per-cell delta pages merged back by
	// Compact.
	overflow map[int]*overflowPage
	inserted int

	// Delete support (see insert.go): a tombstone bitmap over the main
	// pages' row slots. Queries skip dead slots at the visitor boundary;
	// Compact physically drops them. Overflow-page rows are removed in
	// place instead (the pages are small and mutable), so the bitmap only
	// ever covers len(data)/dims slots.
	dead      []uint64
	deadCount int
}

var _ index.Interface = (*GridFile)(nil)

// Build constructs a grid file over every row of t: the streaming build with
// the table as its own sample, so its boundaries are exact quantiles (or the
// exact uniform spacing) of the data. Every value must be finite.
func Build(t *dataset.Table, cfg Config) (*GridFile, error) {
	if err := cfg.check(t.Dims()); err != nil {
		return nil, err
	}
	if t.Len() == 0 {
		return nil, errEmpty
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("gridfile: %w", err)
	}
	bounds := make([][]float64, len(cfg.GridDims))
	for i, d := range cfg.GridDims {
		b, err := SampleBounds(t.Column(d), cfg)
		if err != nil {
			return nil, err
		}
		bounds[i] = b
	}
	s, err := NewStreamer(t.Dims(), cfg, bounds, t.Len())
	if err != nil {
		return nil, err
	}
	for i := 0; i < t.Len(); i++ {
		s.Add(t.Row(i))
	}
	return s.Finish()
}

var errEmpty = fmt.Errorf("gridfile: cannot build over an empty table")

// check validates cfg for a dims-column grid file.
func (cfg Config) check(dims int) error {
	if cfg.CellsPerDim < 1 {
		return fmt.Errorf("gridfile: CellsPerDim must be ≥ 1, got %d", cfg.CellsPerDim)
	}
	if dims < 1 {
		return fmt.Errorf("gridfile: dims must be ≥ 1, got %d", dims)
	}
	seen := make(map[int]bool, len(cfg.GridDims))
	for _, d := range cfg.GridDims {
		if d < 0 || d >= dims {
			return fmt.Errorf("gridfile: grid dimension %d out of range [0,%d)", d, dims)
		}
		if seen[d] {
			return fmt.Errorf("gridfile: grid dimension %d listed twice", d)
		}
		seen[d] = true
	}
	if cfg.SortDim >= dims {
		return fmt.Errorf("gridfile: sort dimension %d out of range [0,%d)", cfg.SortDim, dims)
	}
	if cfg.SortDim >= 0 && seen[cfg.SortDim] {
		return fmt.Errorf("gridfile: sort dimension %d must not also be a grid dimension", cfg.SortDim)
	}
	return nil
}

// lattice returns the row-major strides over the cell lattice whose axis i
// is cut by bounds[i] into len(bounds[i])-1 cells, and the number of cells.
// Every axis must have between 1 and maxCells cells.
func lattice(bounds [][]float64, maxCells int) (strides []int, cells int, err error) {
	strides = make([]int, len(bounds))
	cells = 1
	for i := len(bounds) - 1; i >= 0; i-- {
		n := len(bounds[i]) - 1
		if n < 1 || n > maxCells {
			return nil, 0, fmt.Errorf("gridfile: boundary vector %d has %d entries, want 2 to %d", i, len(bounds[i]), maxCells+1)
		}
		strides[i] = cells
		next := cells * n
		if next/n != cells {
			return nil, 0, fmt.Errorf("gridfile: cell lattice overflows int")
		}
		cells = next
	}
	return strides, cells, nil
}

// DirectoryBytes is the directory of a grid file with cells[i] cells along
// grid axis i and no overflow pages or tombstones: its boundary vectors,
// its per-cell offset table and its strides. MemoryOverhead adds the
// mutation state to it; the outlier layout chooser bounds candidates by it.
func DirectoryBytes(cells []int) int64 {
	slots, lat := int64(1), int64(1) // the offset table's closing entry; the lattice
	for _, n := range cells {
		slots += int64(n) + 1 + 1 // boundaries and stride
		lat *= int64(n)
	}
	return 8 * (slots + lat)
}

// DirectoryBoundedCells returns the largest cells-per-dim (capped at 64)
// such that a gridDims-dimensional directory of 8-byte slots does not
// exceed dataBytes — the paper's §8.2.1 rule that an index directory must
// not outweigh the data it indexes.
func DirectoryBoundedCells(gridDims int, dataBytes int64) int {
	if gridDims <= 0 {
		return 1
	}
	best := 1
	for c := 2; c <= 64; c++ {
		slots := int64(1)
		overflow := false
		for d := 0; d < gridDims; d++ {
			slots *= int64(c)
			if slots*8 > dataBytes {
				overflow = true
				break
			}
		}
		if overflow {
			break
		}
		best = c
	}
	return best
}

func uniformBounds(col []float64, cells int) []float64 {
	min, max := stats.MinMax(col)
	out := make([]float64, cells+1)
	for i := 0; i <= cells; i++ {
		out[i] = min + (max-min)*float64(i)/float64(cells)
	}
	return out
}

// locate maps a value to its cell slot along grid axis i. Build and query
// use the same function, so assignment is consistent.
func (g *GridFile) locate(i int, v float64) int { return Slot(g.bounds[i], v) }

// Slot maps v to its cell slot along one grid axis whose ascending
// boundaries are b: the largest slot whose lower boundary does not
// exceed v, clamped to the valid range. A slot whose two boundaries coincide
// (a repeated quantile) is therefore never returned unless it is the last.
func Slot(b []float64, v float64) int {
	// First boundary index with b[idx] > v; the cell is the one before it.
	idx := sort.Search(len(b), func(j int) bool { return b[j] > v }) - 1
	if idx < 0 {
		idx = 0
	}
	if idx > len(b)-2 {
		idx = len(b) - 2
	}
	return idx
}

func (g *GridFile) cellOf(row []float64) int {
	c := 0
	for i, d := range g.cfg.GridDims {
		c += g.locate(i, row[d]) * g.strides[i]
	}
	return c
}

type cellSorter struct {
	data []float64
	dims int
	key  int
	tmp  []float64
}

func (s *cellSorter) Len() int { return len(s.data) / s.dims }
func (s *cellSorter) Less(i, j int) bool {
	return s.data[i*s.dims+s.key] < s.data[j*s.dims+s.key]
}
func (s *cellSorter) Swap(i, j int) {
	a := s.data[i*s.dims : (i+1)*s.dims]
	b := s.data[j*s.dims : (j+1)*s.dims]
	copy(s.tmp, a)
	copy(a, b)
	copy(b, s.tmp)
}

func (g *GridFile) sortCell(c int) {
	page := g.cellPage(c)
	if len(page) == 0 {
		return
	}
	sort.Sort(&cellSorter{data: page, dims: g.dims, key: g.cfg.SortDim, tmp: make([]float64, g.dims)})
}

// cellPage is cell c's main page in resident storage; a store-backed grid
// file has none and reads through mainSpan instead.
func (g *GridFile) cellPage(c int) []float64 {
	return g.data[g.offsets[c]*int64(g.dims) : g.offsets[c+1]*int64(g.dims)]
}

// mainSpan returns the rows of cell c's main page whose sort-dimension
// value lies in [min, max] (sortSpan's interval) and the page-relative
// index of the first: a subslice of resident storage, or for a store-backed
// grid file rows the store wrote into *buf — scratch the calling scan owns,
// replaced here when the store had to grow it — and therefore valid only
// until the next mainSpan with the same scratch. ok is false for an empty
// cell and for a page the store could not read.
func (g *GridFile) mainSpan(c int, min, max float64, buf *[]float64) (rows []float64, first int, ok bool) {
	if g.offsets[c] == g.offsets[c+1] {
		return nil, 0, false
	}
	if g.store == nil {
		page := g.cellPage(c)
		lo, hi := g.sortSpan(page, min, max)
		return page[lo*g.dims : hi*g.dims], lo, true
	}
	rows, first, ok = g.store.CellSpan(c, min, max, *buf)
	if cap(rows) > cap(*buf) {
		*buf = rows[:0]
	}
	return rows, first, ok
}

// mainPage returns cell c's whole main page — for a store-backed grid file
// mainSpan over the unbounded window, with mainSpan's lifetime. Here ok is
// false only for a page the store could not read; an empty cell is an
// empty page.
func (g *GridFile) mainPage(c int, buf *[]float64) (page []float64, ok bool) {
	if g.store == nil {
		return g.cellPage(c), true
	}
	if g.offsets[c] == g.offsets[c+1] {
		return nil, true
	}
	page, _, ok = g.mainSpan(c, math.Inf(-1), math.Inf(1), buf)
	return page, ok
}

// mainRows reports the number of row slots in the main pages (live and
// tombstoned), derived from the offset table so it holds for both resident
// and store-backed grid files.
func (g *GridFile) mainRows() int { return int(g.offsets[len(g.offsets)-1]) }

// Name implements index.Interface.
func (g *GridFile) Name() string {
	if g.cfg.Label != "" {
		return g.cfg.Label
	}
	return "GridFile"
}

// Len implements index.Interface: the number of live (non-tombstoned)
// rows a query can match.
func (g *GridFile) Len() int { return g.n - g.deadCount }

// StoredRows reports the number of rows physically held in pages,
// including tombstoned ones awaiting Compact.
func (g *GridFile) StoredRows() int { return g.n }

// Tombstones reports the number of dead rows still occupying main pages.
func (g *GridFile) Tombstones() int { return g.deadCount }

// Dims implements index.Interface.
func (g *GridFile) Dims() int { return g.dims }

// NumCells reports the total number of cells in the lattice.
func (g *GridFile) NumCells() int { return len(g.offsets) - 1 }

// AxisCells returns the number of cells along each grid dimension, in
// GridDims order.
func (g *GridFile) AxisCells() []int {
	out := make([]int, len(g.bounds))
	for i, b := range g.bounds {
		out[i] = len(b) - 1
	}
	return out
}

// GridDims returns a copy of the columns that receive grid lines.
func (g *GridFile) GridDims() []int {
	out := make([]int, len(g.cfg.GridDims))
	copy(out, g.cfg.GridDims)
	return out
}

// SortDim reports the in-cell sort dimension, or -1 when disabled.
func (g *GridFile) SortDim() int { return g.cfg.SortDim }

// CellSizes returns the row count of every cell (main plus overflow) — the
// "page length" distribution of Figure 4a.
func (g *GridFile) CellSizes() []int {
	out := make([]int, g.NumCells())
	for c := range out {
		out[c] = int(g.offsets[c+1] - g.offsets[c])
		if page := g.overflow[c]; page != nil {
			out[c] += len(page.data) / g.dims
		}
	}
	return out
}

// MemoryOverhead implements index.Interface: the directory only — grid
// boundaries plus the per-cell offset table — excluding the row payload.
func (g *GridFile) MemoryOverhead() int64 {
	b := DirectoryBytes(g.AxisCells())
	// Each live overflow page costs a map slot and a slice header; the row
	// payload inside it is data, not directory.
	b += int64(len(g.overflow)) * 48
	b += int64(len(g.dead) * 8) // tombstone bitmap
	return b
}

// Scan implements index.Interface as the row consumer of ScanBatch: the
// one cell walk computes each page's selection bitmap and Batch.Each hands
// its set bits to yield. The scan stops — skipping every remaining page —
// as soon as yield returns false.
func (g *GridFile) Scan(r index.Rect, yield index.Yield, probe *index.Probe) bool {
	return g.ScanBatch(r, func(b *index.Batch) bool { return b.Each(yield) }, probe)
}

// sortSpan returns the row interval [lo, hi) of a page that can hold
// values in [min, max] on the sort dimension — the whole page when in-cell
// sorting is disabled, never an inverted interval. Every page walk (query
// and delete, main and overflow) locates its candidates through this one
// helper or through a PageStore that applies the same two predicates.
func (g *GridFile) sortSpan(page []float64, min, max float64) (lo, hi int) {
	nRows := len(page) / g.dims
	sd := g.cfg.SortDim
	if sd < 0 {
		return 0, nRows
	}
	lo = sort.Search(nRows, func(i int) bool { return page[i*g.dims+sd] >= min })
	hi = sort.Search(nRows, func(i int) bool { return page[i*g.dims+sd] > max })
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// queryWindow is a query rectangle's window on the sort dimension,
// unbounded when there is none.
func (g *GridFile) queryWindow(r index.Rect) (min, max float64) {
	if sd := g.cfg.SortDim; sd >= 0 {
		return r.Min[sd], r.Max[sd]
	}
	return math.Inf(-1), math.Inf(1)
}

// rowWindow is the sort-dimension window pinned to one row's value — the
// candidates an exact-match delete scans.
func (g *GridFile) rowWindow(row []float64) (min, max float64) {
	if sd := g.cfg.SortDim; sd >= 0 {
		return row[sd], row[sd]
	}
	return math.Inf(-1), math.Inf(1)
}
