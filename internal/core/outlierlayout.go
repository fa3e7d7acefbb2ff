package core

import (
	"math"
	"math/rand"
	"slices"
	"sort"

	"github.com/coax-index/coax/internal/dataset"
	"github.com/coax-index/coax/internal/gridfile"
	"github.com/coax-index/coax/internal/index"
)

// Outlier layout. The paper's §8.2.1 rule bounds the outlier directory by
// the outlier data; it says nothing about which layout inside that bound
// answers queries fastest. Gridding every column at the bound gives cells
// of a few rows each, so a query reads hundreds of near-empty pages. The
// layout is therefore chosen at build time by a cost model scored on
// sampled rectangles — the design of Flood (Nathan et al., "Learning
// Multi-dimensional Indexes", SIGMOD 2020):
//
//   - candidates put grid lines on 1 to outlierMaxGridDims of the columns
//     other than the primary's sort column, with as many cells per
//     dimension as keep outlierPageRows rows per page on average, and sort
//     each page on the sort column like the primary; the all-column ceiling
//     layout and a single sorted page are candidates too, and no
//     candidate's directory exceeds the ceiling's. As in every grid, that
//     resolution is a per-axis maximum: a column with fewer distinct values
//     gets one cell per value (gridfile.SampleBounds), and the candidate is
//     scored with those boundaries;
//   - a candidate's score is expected pages × outlierPageNS + expected rows
//     scanned × outlierRowNS over layoutQueries rectangles, counted
//     analytically on a sample of at most layoutSampleRows outlier rows
//     (quantile bounds plus a cell histogram) — no candidate is built.

const (
	// outlierPageNS and outlierRowNS price one page a scan opens and one
	// row it selects over. Fitted to the measured scan time of every
	// candidate over a 1 M-row airline table's four shards, a page beyond
	// its rows costs 100–270 ns heap or mapped, a row 35–40 ns heap and
	// 75–95 ns mapped. They are the trace's per-layer figures taken on
	// small pages: mmapsnap.decode_us_per_page (≈ 1–2 µs) prices a
	// primary page of hundreds of rows, and index.select_rect_ns_per_row
	// (≈ 2 ns) and gridfile.scanbatch_ns_per_row (≈ 8 ns) a row of a full
	// 1 024-row batch, which a 32-row page cannot amortise. Only the ratio
	// decides the layout: on airline every ratio from about 1:1 to 8:1
	// makes the same choices, while 50:1 picks pages of hundreds of rows
	// on low-cardinality columns that scan 2–4× slower.
	outlierPageNS = 200
	outlierRowNS  = 40

	// outlierPageRows is the rows-per-page floor a candidate's resolution
	// is derived from: ⌊(outliers / outlierPageRows)^(1/k)⌋ cells per
	// dimension over k grid dimensions.
	outlierPageRows = 32
	// outlierMaxGridDims caps a candidate's grid dimensionality.
	outlierMaxGridDims = 4
	// layoutSampleRows caps both samples the chooser reads: the outlier rows
	// it histograms and the table rows its rectangles are centred on.
	layoutSampleRows = 4096
	// layoutQueries is how many rectangles a candidate is scored on.
	layoutQueries = 64
	// layoutMaxCells caps the lattice a candidate may have: costing keeps a
	// histogram slot per cell, and a sample of layoutSampleRows rows says
	// nothing about a million cells. Only the ceiling of a partition of
	// over ~130 k rows of 8 columns reaches it, at under one row per page.
	layoutMaxCells = 1 << 20
)

// layoutSelectivities are the fractions of the table the scoring
// rectangles are sized to hold, cycled: from a few rows to a wide range.
var layoutSelectivities = [...]float64{1e-4, 1e-3, 1e-2}

const outlierLabel = "COAX-outliers"

// outlierGridConfig returns the grid layout for an outlier partition of
// about total rows, sampled by outliers, in a table sampled by rows: the
// all-column ceiling at the OutlierCellsPerDim override, otherwise the
// cheapest layout under the cost model.
func (c *COAX) outlierGridConfig(outliers *dataset.Table, total int, rows *dataset.Table) gridfile.Config {
	if cells := c.opt.OutlierCellsPerDim; cells >= 1 {
		return ceilingLayout(c.dims, cells)
	}
	return chooseOutlierLayout(outliers, total, rows, c.sortDim)
}

// ceilingLayout grids every column at up to cells per dimension, unsorted —
// the layout the §8.2.1 rule bounds.
func ceilingLayout(dims, cells int) gridfile.Config {
	all := make([]int, dims)
	for i := range all {
		all[i] = i
	}
	return gridfile.Config{GridDims: all, SortDim: -1, CellsPerDim: cells, Mode: gridfile.Quantile, Label: outlierLabel}
}

// chooseOutlierLayout scores every candidate layout and returns the
// cheapest; ties go to the earlier candidate, so the choice is a pure
// function of its inputs. Fewer than two pages' worth of outliers get one
// sorted page.
func chooseOutlierLayout(outliers *dataset.Table, total int, rows *dataset.Table, sortDim int) gridfile.Config {
	dims := outliers.Dims()
	best := gridfile.Config{SortDim: sortDim, CellsPerDim: 1, Mode: gridfile.Quantile, Label: outlierLabel}
	if total < 2*outlierPageRows || outliers.Len() == 0 || rows.Len() == 0 {
		return best
	}
	ceiling := ceilingLayout(dims, gridfile.DirectoryBoundedCells(dims, int64(total)*int64(dims)*8))
	m := newLayoutModel(outliers, total, rows, sortDim)
	bestCost := m.cost(best)
	consider := func(cfg gridfile.Config) {
		if c := m.cost(cfg); c < bestCost {
			best, bestCost = cfg, c
		}
	}
	if lattice(dims, ceiling.CellsPerDim) <= layoutMaxCells {
		consider(ceiling)
	}
	maxDir := gridfile.DirectoryBytes(slices.Repeat([]int{ceiling.CellsPerDim}, dims))
	var free []int
	for d := 0; d < dims; d++ {
		if d != sortDim {
			free = append(free, d)
		}
	}
	for k := 1; k <= min(outlierMaxGridDims, len(free)); k++ {
		cells := floorRoot(total/outlierPageRows, k)
		for cells > 1 && (gridfile.DirectoryBytes(slices.Repeat([]int{cells}, k)) > maxDir || lattice(k, cells) > layoutMaxCells) {
			cells--
		}
		if cells < 2 {
			continue
		}
		forSubsets(len(free), k, func(pick []int) {
			grid := make([]int, k)
			for i, p := range pick {
				grid[i] = free[p]
			}
			consider(gridfile.Config{GridDims: grid, SortDim: sortDim, CellsPerDim: cells, Mode: gridfile.Quantile, Label: outlierLabel})
		})
	}
	return best
}

// lattice is cells to the power k: the most cells a grid with k
// dimensions of at most cells each can have.
func lattice(k, cells int) int64 {
	n := int64(1)
	for range k {
		n *= int64(cells)
	}
	return n
}

// floorRoot returns ⌊n^(1/k)⌋ for n ≥ 0, exact despite floating point.
func floorRoot(n, k int) int {
	r := int(math.Pow(float64(n), 1/float64(k)))
	for r > 0 && lattice(k, r) > int64(n) {
		r--
	}
	for lattice(k, r+1) <= int64(n) {
		r++
	}
	return r
}

// forSubsets calls f with every k-subset of [0, n) in lexicographic order;
// f must not keep the slice.
func forSubsets(n, k int, f func([]int)) {
	pick := make([]int, k)
	for i := range pick {
		pick[i] = i
	}
	for {
		f(pick)
		i := k - 1
		for i >= 0 && pick[i] == n-k+i {
			i--
		}
		if i < 0 {
			return
		}
		pick[i]++
		for j := i + 1; j < k; j++ {
			pick[j] = pick[j-1] + 1
		}
	}
}

// layoutModel holds what costing a candidate needs: the outlier sample in
// ascending sort-column order, each column's sorted sample values (for
// quantile bounds), the scoring rectangles with the run of sample
// positions inside each one's sort-column window, and the per-row cell
// slots already computed for an axis.
type layoutModel struct {
	rows     [][]float64 // outlier sample, ascending on the sort column
	sorted   [][]float64 // per column: the sample's values, ascending
	rects    []index.Rect
	window   [][2]int // per rectangle: sample positions [a, b) in its sort window
	rowScale float64  // outlier rows per sample row
	axes     map[[2]int]axis
}

func newLayoutModel(outliers *dataset.Table, total int, tab *dataset.Table, sortDim int) *layoutModel {
	m := &layoutModel{rows: sampleRows(outliers), axes: map[[2]int]axis{}}
	m.rowScale = float64(total) / float64(len(m.rows))
	if sortDim >= 0 {
		sort.SliceStable(m.rows, func(i, j int) bool { return m.rows[i][sortDim] < m.rows[j][sortDim] })
	}
	m.sorted = sortedColumns(m.rows, outliers.Dims())
	m.rects = layoutRects(tab)
	m.window = make([][2]int, len(m.rects))
	for q, r := range m.rects {
		m.window[q] = [2]int{0, len(m.rows)}
		if sortDim >= 0 {
			m.window[q][0] = sort.Search(len(m.rows), func(i int) bool { return m.rows[i][sortDim] >= r.Min[sortDim] })
			m.window[q][1] = sort.Search(len(m.rows), func(i int) bool { return m.rows[i][sortDim] > r.Max[sortDim] })
		}
	}
	return m
}

// sampleRows returns at most layoutSampleRows rows of t, evenly strided.
func sampleRows(t *dataset.Table) [][]float64 {
	n := t.Len()
	k := min(n, layoutSampleRows)
	out := make([][]float64, k)
	for i := range out {
		out[i] = t.Row(int(int64(i) * int64(n) / int64(k)))
	}
	return out
}

func sortedColumns(rows [][]float64, dims int) [][]float64 {
	cols := make([][]float64, dims)
	for d := range cols {
		col := make([]float64, len(rows))
		for i, r := range rows {
			col[i] = r[d]
		}
		slices.Sort(col)
		cols[d] = col
	}
	return cols
}

// layoutRects draws the scoring rectangles from a sample of the table by
// one fixed rule: around a seeded random sample row, every column gets the
// rank window of width s^(1/dims) of its sampled values, so the product of
// the marginal fractions is s, with s cycling through layoutSelectivities.
func layoutRects(t *dataset.Table) []index.Rect {
	rows := sampleRows(t)
	dims := t.Dims()
	cols := sortedColumns(rows, dims)
	n := len(rows)
	rng := rand.New(rand.NewSource(1))
	out := make([]index.Rect, layoutQueries)
	for i := range out {
		center := rows[rng.Intn(n)]
		half := int(math.Pow(layoutSelectivities[i%len(layoutSelectivities)], 1/float64(dims)) * float64(n) / 2)
		r := index.Full(dims)
		for d, col := range cols {
			pos := sort.SearchFloat64s(col, center[d])
			r.Min[d] = col[max(pos-half, 0)]
			r.Max[d] = col[min(pos+half, n-1)]
		}
		out[i] = r
	}
	return out
}

// axis holds one grid axis of a candidate as costed on the sample: its
// bounds, placed by gridfile.SampleBounds as the build places them on the
// data (so a column with few distinct values gets one cell per value), and
// every sample row's slot along it.
type axis struct {
	bounds []float64
	slot   []int32
}

// axis returns column d cut into at most cells slots; candidates share axes.
func (m *layoutModel) axis(d, cells int) axis {
	key := [2]int{d, cells}
	if ax, ok := m.axes[key]; ok {
		return ax
	}
	bounds, err := gridfile.SampleBounds(m.sorted[d], gridfile.Config{CellsPerDim: cells, Mode: gridfile.Quantile})
	if err != nil {
		panic(err) // the sample is never empty and cells ≥ 1
	}
	ax := axis{bounds: bounds, slot: make([]int32, len(m.rows))}
	for p, row := range m.rows {
		ax.slot[p] = int32(gridfile.Slot(ax.bounds, row[d]))
	}
	m.axes[key] = ax
	return ax
}

// cost is the candidate's expected scan cost summed over the scoring
// rectangles, in nanoseconds. The sample's cells stand in for the
// partition's: pages are the non-empty sampled cells in a rectangle's cell
// range, scaled up by the cells the sample is estimated to have missed;
// rows are the sampled rows in those cells whose sort value falls in the
// rectangle's window, scaled to the partition.
func (m *layoutModel) cost(cfg gridfile.Config) float64 {
	k, n := len(cfg.GridDims), len(m.rows)
	axes := make([]axis, k)
	for i, d := range cfg.GridDims {
		axes[i] = m.axis(d, cfg.CellsPerDim)
	}
	strides := make([]int, k)
	cells := 1
	for i := k - 1; i >= 0; i-- {
		strides[i] = cells
		cells *= len(axes[i].bounds) - 1
	}

	// A cell histogram of the sample, and its positions grouped by cell:
	// cell c holds pos[start[c]:start[c+1]], ascending, so in ascending
	// sort-column order too.
	cellOf := make([]int32, n)
	start := make([]int32, cells+1)
	for p := range cellOf {
		c := 0
		for i := range axes {
			c += int(axes[i].slot[p]) * strides[i]
		}
		cellOf[p] = int32(c)
		start[c+1]++
	}
	// Cells the sample missed, by the Chao–Lin estimator for sampling
	// without replacement from f1 singleton and f2 doubleton cells: zero
	// when the sample is the whole partition.
	var seen, f1, f2 float64
	for c := 1; c <= cells; c++ {
		switch start[c] {
		case 0:
		case 1:
			seen, f1 = seen+1, f1+1
		case 2:
			seen, f2 = seen+1, f2+1
		default:
			seen++
		}
		start[c] += start[c-1]
	}
	pos := make([]int32, n)
	next := slices.Clone(start[:cells])
	for p, c := range cellOf {
		pos[next[c]] = int32(p)
		next[c]++
	}
	pageScale := 1.0
	if q := 1 / m.rowScale; q < 1 && f1 > 0 {
		unseen := f1 * f1 / (2*f2*float64(n)/float64(max(n-1, 1)) + f1*q/(1-q))
		pageScale += unseen / seen
	}

	// Walk each rectangle's cell range like gridfile.ScanBatch: an odometer
	// over the leading axes, the last axis as one contiguous run of cells.
	var pages, rows int
	lo, hi, at := make([]int, k), make([]int, k), make([]int, k)
	for q, r := range m.rects {
		for i, d := range cfg.GridDims {
			lo[i], hi[i] = gridfile.Slot(axes[i].bounds, r.Min[d]), gridfile.Slot(axes[i].bounds, r.Max[d])
		}
		a, b := int32(m.window[q][0]), int32(m.window[q][1])
		if cfg.SortDim < 0 {
			a, b = 0, int32(n)
		}
		copy(at, lo)
		for {
			first, last := 0, 0
			for i := range at {
				first += at[i] * strides[i]
			}
			last = first
			if k > 0 {
				last += hi[k-1] - lo[k-1]
			}
			for c := first; c <= last; c++ {
				if start[c] < start[c+1] {
					pages++
					rows += countIn(pos[start[c]:start[c+1]], a, b)
				}
			}
			i := k - 2
			for ; i >= 0; i-- {
				if at[i]++; at[i] <= hi[i] {
					break
				}
				at[i] = lo[i]
			}
			if i < 0 {
				break
			}
		}
	}
	return float64(pages)*pageScale*outlierPageNS + float64(rows)*m.rowScale*outlierRowNS
}

// countIn counts the entries of the ascending run inside [a, b): by linear
// scan over the short runs most cells hold, by binary search otherwise.
func countIn(run []int32, a, b int32) int {
	if len(run) > 16 {
		return sort.Search(len(run), func(i int) bool { return run[i] >= b }) -
			sort.Search(len(run), func(i int) bool { return run[i] >= a })
	}
	n := 0
	for _, p := range run {
		if p >= b {
			break
		}
		if p >= a {
			n++
		}
	}
	return n
}
