// Package gridfile implements the modified Grid File of the paper's §6: an
// in-memory multidimensional grid whose cell boundaries are placed on
// per-dimension quantiles (or uniformly, for the full-grid baseline), whose
// cells store their rows in contiguous pages, and which may keep the rows
// inside every cell sorted on one additional dimension so that dimension
// needs no grid lines (Flood-style, reducing an n-dimensional index to n−1
// grid dimensions).
//
// A resident main page is column-major inside its cell (PAX): for cell c
// holding rows [o, e), column k is data[o·dims + k·(e−o) : o·dims +
// (k+1)·(e−o)], so a scan reads only the columns it tests and folds, each
// as one contiguous run, and the sort column a span is cut on is one run
// too. Every writer of main pages — the build, Compact and the format v1/v2
// decoder — sorts a cell row-major and then lays it down column-major.
// Overflow pages stay row-major (small, mutable, insert-sorted), and a
// PageStore returns spans in whatever layout its pages have. Every read goes
// through a Span, whose two steps say where value (i, k) sits, and reaches
// the kernels as an index.Batch carrying the same steps.
package gridfile

import (
	"fmt"
	"math"
	"slices"
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
	data    []float64   // all main pages in cell order, each column-major (see cellPage)
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

// cellSorter sorts a row-major page on one column. Every page a grid file
// writes — a build's cells, Compact's — is sorted row-major this way and
// only then turned column-major, so the order among equal keys, and with
// it the snapshot bytes, is sort.Sort's over rows.
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

// sortRows sorts a row-major page on the sort dimension, if there is one.
func (g *GridFile) sortRows(page []float64) {
	if g.cfg.SortDim < 0 || len(page) == 0 {
		return
	}
	sort.Sort(&cellSorter{data: page, dims: g.dims, key: g.cfg.SortDim, tmp: make([]float64, g.dims)})
}

// columnize turns the resident main pages, row-major as a build groups
// them or a format v1/v2 file stores them, column-major in place through
// one scratch the size of the largest cell, sorting each on the sort
// dimension first when sortFirst is set.
func (g *GridFile) columnize(sortFirst bool) {
	widest := int64(0)
	for c := 0; c < g.NumCells(); c++ {
		widest = max(widest, g.offsets[c+1]-g.offsets[c])
	}
	rows := make([]float64, int(widest)*g.dims)
	for c := 0; c < g.NumCells(); c++ {
		o, e := int(g.offsets[c]), int(g.offsets[c+1])
		page := g.data[o*g.dims : e*g.dims]
		if sortFirst {
			g.sortRows(page)
		}
		copy(rows, page)
		transpose(page, rows, e-o, g.dims)
	}
}

// transpose writes the row-major page src of rows rows, dims values each,
// into dst column-major: column k of dst is dst[k*rows : (k+1)*rows].
func transpose(dst, src []float64, rows, dims int) {
	for k := 0; k < dims; k++ {
		col := dst[k*rows : (k+1)*rows]
		for i := range col {
			col[i] = src[i*dims+k]
		}
	}
}

// Span is a run of consecutive rows of one page, read in place: value
// (i, k) — row i, column k — of its Rows rows sits at
// Data[i*RowStep + k*ColStep], and Data ends with the last of them. A
// resident main page is column-major, so its spans have steps (1, m) for a
// page of m rows; overflow pages and raw mapped pages are row-major,
// (dims, 1). A span of a compressed mapped page carries its column source
// in Cols: only its sort column is in place until a reader pulls the rest
// (rows numbered from the span's first), which AppendRow and filled do. A
// span with a column source is never sliced.
type Span struct {
	Data             []float64
	Rows             int
	RowStep, ColStep int
	Cols             index.Columns
}

// ColumnMajor returns the span of a whole column-major page: rows rows of
// dims columns, column k at page[k*rows : (k+1)*rows].
func ColumnMajor(page []float64, rows, dims int) Span {
	return Span{Data: page[:rows*dims], Rows: rows, RowStep: 1, ColStep: rows}
}

// RowMajor returns the span of a row-major page of dims columns.
func RowMajor(page []float64, dims int) Span {
	return Span{Data: page, Rows: len(page) / dims, RowStep: dims, ColStep: 1}
}

// Slice returns rows [lo, hi) of a span of dims columns, in place.
func (s Span) Slice(lo, hi, dims int) Span {
	if hi <= lo {
		return Span{RowStep: s.RowStep, ColStep: s.ColStep}
	}
	last := (hi-1)*s.RowStep + (dims-1)*s.ColStep
	return Span{Data: s.Data[lo*s.RowStep : last+1], Rows: hi - lo, RowStep: s.RowStep, ColStep: s.ColStep}
}

// AppendRow appends the dims values of row i to dst, pulling them first
// when the span has a column source.
func (s Span) AppendRow(dst []float64, i, dims int) []float64 {
	if s.Cols != nil {
		for k := 0; k < dims; k++ {
			s.Cols.Pull(k, i, i+1)
		}
	}
	at := i * s.RowStep
	for k := 0; k < dims; k++ {
		dst = append(dst, s.Data[at+k*s.ColStep])
	}
	return dst
}

// filled returns s with every value in place: each column of a span with
// a column source pulled whole.
func (s Span) filled(dims int) Span {
	if s.Cols != nil {
		for k := 0; k < dims; k++ {
			s.Cols.Pull(k, 0, s.Rows)
		}
		s.Cols = nil
	}
	return s
}

// columns returns the span's values column-major — column k at
// [k*Rows, (k+1)*Rows) — as its own data when they already lie so, else
// gathered into *buf, which grows as needed.
func (s Span) columns(dims int, buf *[]float64) []float64 {
	if s.Rows <= 1 && s.ColStep == 1 || s.RowStep == 1 && s.ColStep == s.Rows {
		return s.Data[:s.Rows*dims]
	}
	cols := slices.Grow((*buf)[:0], s.Rows*dims)[:s.Rows*dims]
	*buf = cols
	for k := 0; k < dims; k++ {
		for i := range s.Rows {
			cols[k*s.Rows+i] = s.Data[i*s.RowStep+k*s.ColStep]
		}
	}
	return cols
}

// cellPage is cell c's main page in resident storage, column-major; a
// store-backed grid file has none and reads through mainSpan instead.
func (g *GridFile) cellPage(c int) Span {
	o, e := int(g.offsets[c]), int(g.offsets[c+1])
	return ColumnMajor(g.data[o*g.dims:e*g.dims], e-o, g.dims)
}

// mainSpan returns the rows of cell c's main page whose sort-dimension
// value lies in [min, max] (SpanRows' interval) and the page-relative
// index of the first: a span of resident storage, or for a store-backed
// grid file the span the store returned, which may lie in buf — scratch
// the calling scan owns — and is then valid only until the next mainSpan
// with the same scratch. A store's span may carry a column source (see
// Span); ScanBatch hands it on to the batches, every other reader takes
// the span filled. ok is false for an empty cell and for a page the store
// could not read.
func (g *GridFile) mainSpan(c int, min, max float64, buf *Scratch) (span Span, first int, ok bool) {
	if g.offsets[c] == g.offsets[c+1] {
		return Span{}, 0, false
	}
	if g.store == nil {
		// The resident page of m rows is column-major: the sort column is
		// one run, and the span's rows [lo, hi) run from row lo of the
		// first column to row hi-1 of the last.
		o, m := int(g.offsets[c])*g.dims, int(g.offsets[c+1]-g.offsets[c])
		lo, hi := 0, m
		if sd := g.cfg.SortDim; sd >= 0 {
			lo, hi = SpanRows(g.data[o+sd*m:o+(sd+1)*m], 1, m, min, max)
		}
		if hi == lo {
			return Span{}, lo, true
		}
		return Span{Data: g.data[o+lo : o+(g.dims-1)*m+hi], Rows: hi - lo, RowStep: 1, ColStep: m}, lo, true
	}
	return g.store.CellSpan(c, min, max, buf)
}

// mainPage returns cell c's whole main page, every column in place — for
// a store-backed grid file mainSpan over the unbounded window, filled, with
// mainSpan's lifetime. Here ok is false only for a page the store could
// not read; an empty cell is an empty page.
func (g *GridFile) mainPage(c int, buf *Scratch) (page Span, ok bool) {
	if g.store == nil {
		return g.cellPage(c), true
	}
	if g.offsets[c] == g.offsets[c+1] {
		return Span{}, true
	}
	page, _, ok = g.mainSpan(c, math.Inf(-1), math.Inf(1), buf)
	return page.filled(g.dims), ok
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
// values in [min, max] on the sort dimension — SpanRows over the page's
// sort column, or the whole page when in-cell sorting is disabled.
func (g *GridFile) sortSpan(page Span, min, max float64) (lo, hi int) {
	sd := g.cfg.SortDim
	if sd < 0 {
		return 0, page.Rows
	}
	return SpanRows(page.Data[sd*page.ColStep:], page.RowStep, page.Rows, min, max)
}

// SpanRows returns the interval [lo, hi) of the n ascending keys
// keys[0], keys[step], … that lie in [min, max]: the first key ≥ min up to
// the first key > max, never inverted. Every page walk (query and delete;
// resident, overflow and a PageStore's pages) cuts a sorted page to its
// window through it.
func SpanRows(keys []float64, step, n int, min, max float64) (lo, hi int) {
	lo = sort.Search(n, func(i int) bool { return keys[i*step] >= min })
	hi = sort.Search(n, func(i int) bool { return keys[i*step] > max })
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
