// Package core assembles COAX, the paper's primary contribution: it runs
// soft-FD detection, splits the table into inliers and outliers, builds a
// reduced-dimensionality grid-file primary index plus a grid-file outlier
// index (the paper's conventional multidimensional index), and answers
// range/point queries by translating constraints on dependent attributes
// into constraints on their predictors (paper §3, §4, Eq. 2).
package core

import (
	"fmt"
	"math"

	"github.com/coax-index/coax/internal/dataset"
	"github.com/coax-index/coax/internal/gridfile"
	"github.com/coax-index/coax/internal/index"
	"github.com/coax-index/coax/internal/lifecycle"
	"github.com/coax-index/coax/internal/softfd"
)

// Options configures a COAX build. The zero value is not usable; start from
// DefaultOptions.
type Options struct {
	// SoftFD configures dependency detection.
	SoftFD softfd.Config
	// PrimaryCellsPerDim is the grid resolution of the primary index: the
	// most cells any of its grid dimensions gets. A column with fewer
	// distinct values gets one cell per value (gridfile.SampleBounds).
	PrimaryCellsPerDim int
	// OutlierCellsPerDim, when ≥ 1, overrides the outlier grid's layout
	// with a grid over every column at this resolution, unsorted; 0 lets
	// the build choose the layout by cost (see outlierlayout.go).
	OutlierCellsPerDim int
	// SortDim forces the in-cell sort dimension of the primary index; -1
	// selects it automatically (the predictor of the largest group).
	SortDim int
	// DisableSortDim turns off in-cell sorting entirely (ablation: without
	// it the primary grid must give the sort dimension its own grid lines).
	DisableSortDim bool
}

// DefaultOptions returns the settings used by the benchmarks.
func DefaultOptions() Options {
	return Options{
		SoftFD:             softfd.DefaultConfig(),
		PrimaryCellsPerDim: 24,
		OutlierCellsPerDim: 0, // auto
		SortDim:            -1,
	}
}

// COAX is the built index.
type COAX struct {
	dims int
	n    int
	cols []string // column names from the build table; may be all-empty

	fd      softfd.Result
	depends []*softfd.PairModel // by column; nil when the column is indexed
	sortDim int

	primary  *gridfile.GridFile // nil when every row is an outlier
	outliers *gridfile.GridFile // nil when every row is an inlier

	// Bounding boxes of each partition (§8.2.3: "check whether the query
	// intersects with the primary, the outlier, or both indexes"). Queries
	// that miss a partition's box skip its probe entirely.
	primaryBounds      index.Rect
	outlierBounds      index.Rect
	primaryN, outlierN int

	// Build parameter retained for lazy index creation on Insert.
	primaryCells int
	// rtreeOutliers is set while decoding a file whose meta names R-tree
	// outliers: its outlier section is regridded (DecodeRegridOutliers).
	rtreeOutliers bool

	// Lifecycle state (see mutate.go): the full build options retained for
	// Rebuild, the mutation/drift tracker, the rebuild generation, and the
	// outlier ratio measured at build time (the staleness baseline).
	opt              Options
	tracker          *lifecycle.Tracker
	epoch            uint64
	baseOutlierRatio float64
}

var _ index.Interface = (*COAX)(nil)

// Build constructs COAX over t.
func Build(t *dataset.Table, opt Options) (*COAX, error) {
	if opt.PrimaryCellsPerDim < 1 {
		return nil, fmt.Errorf("core: PrimaryCellsPerDim must be ≥ 1, got %d", opt.PrimaryCellsPerDim)
	}
	if t.Len() == 0 {
		return nil, fmt.Errorf("core: cannot build over an empty table")
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	fd, err := softfd.Detect(t, opt.SoftFD)
	if err != nil {
		return nil, fmt.Errorf("core: soft-FD detection: %w", err)
	}
	return BuildWithFD(t, fd, opt)
}

// newSkeleton assembles the model-dependent state of an index with no rows
// yet: dependency routing, the mutation tracker, the sort dimension, and
// empty partition bounds. The caller still owes row counts and index
// structures.
func newSkeleton(cols []string, dims int, fd softfd.Result, opt Options) (*COAX, error) {
	if opt.PrimaryCellsPerDim < 1 {
		return nil, fmt.Errorf("core: PrimaryCellsPerDim must be ≥ 1, got %d", opt.PrimaryCellsPerDim)
	}
	c := &COAX{
		dims:          dims,
		cols:          append([]string(nil), cols...),
		fd:            fd,
		primaryCells:  opt.PrimaryCellsPerDim,
		opt:           opt,
		primaryBounds: emptyBounds(dims),
		outlierBounds: emptyBounds(dims),
	}
	c.depends = make([]*softfd.PairModel, dims)
	for gi := range fd.Groups {
		g := &fd.Groups[gi]
		for mi := range g.Models {
			m := &g.Models[mi]
			c.depends[m.D] = m
		}
	}
	c.initTracker()

	if err := c.pickSortDim(opt); err != nil {
		return nil, err
	}
	return c, nil
}

// BuildWithFD constructs COAX over t from pre-detected dependencies: the
// streaming build with t as its own sample, so the boundaries are exact
// quantiles and the partitions are sized exactly. An empty table yields an
// insertable skeleton. Used by the sharded build, Rebuild, and tools that
// detect once and build several variants.
func BuildWithFD(t *dataset.Table, fd softfd.Result, opt Options) (*COAX, error) {
	if t.Len() == 0 {
		return newSkeleton(t.Cols, t.Dims(), fd, opt)
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	b, err := NewStreamBuilder(t.Cols, fd, t, opt, t.Len())
	if err != nil {
		return nil, err
	}
	for i := 0; i < t.Len(); i++ {
		b.Add(t.Row(i))
	}
	return b.Finish()
}

// pickSortDim decides the in-cell sort dimension of the primary index.
func (c *COAX) pickSortDim(opt Options) error {
	if opt.DisableSortDim {
		c.sortDim = -1
		return nil
	}
	if opt.SortDim >= 0 {
		if opt.SortDim >= c.dims {
			return fmt.Errorf("core: SortDim %d out of range [0,%d)", opt.SortDim, c.dims)
		}
		if c.depends[opt.SortDim] != nil {
			return fmt.Errorf("core: SortDim %d is a dependent column and is not stored in the primary grid", opt.SortDim)
		}
		c.sortDim = opt.SortDim
		return nil
	}
	// Auto: the predictor of the largest group benefits most from binary
	// search because translated constraints land on it.
	best, bestSize := -1, 0
	for _, g := range c.fd.Groups {
		if len(g.Members) > bestSize {
			best, bestSize = g.Predictor, len(g.Members)
		}
	}
	if best < 0 {
		// No dependencies: fall back to the first column (column-files
		// layout over all dimensions).
		best = 0
	}
	c.sortDim = best
	return nil
}

// primaryGridDims lists the columns that receive grid lines in the primary
// index: everything except dependents and the sort dimension — the paper's
// n − m − 1 dimensions.
func (c *COAX) primaryGridDims() []int {
	var dims []int
	for d := 0; d < c.dims; d++ {
		if c.depends[d] != nil || d == c.sortDim {
			continue
		}
		dims = append(dims, d)
	}
	return dims
}

// emptyBounds is the identity element for extendBounds: an inverted box
// that overlaps nothing.
func emptyBounds(dims int) index.Rect {
	b := index.Rect{Min: make([]float64, dims), Max: make([]float64, dims)}
	for d := 0; d < dims; d++ {
		b.Min[d] = math.Inf(1)
		b.Max[d] = math.Inf(-1)
	}
	return b
}

func extendBounds(b *index.Rect, row []float64) {
	for d, v := range row {
		if v < b.Min[d] {
			b.Min[d] = v
		}
		if v > b.Max[d] {
			b.Max[d] = v
		}
	}
}

func (c *COAX) rowIsInlier(row []float64) bool {
	for d, pm := range c.depends {
		if pm == nil {
			continue
		}
		if !pm.Within(row[pm.X], row[d]) {
			return false
		}
	}
	return true
}

// Name implements index.Interface.
func (c *COAX) Name() string { return "COAX" }

// Len implements index.Interface.
func (c *COAX) Len() int { return c.n }

// Dims implements index.Interface.
func (c *COAX) Dims() int { return c.dims }

// Columns returns a copy of the column names the index was built over; the
// slice is empty (or all-empty strings) when the build table carried no
// names — name-based queries then need positional predicates instead.
func (c *COAX) Columns() []string { return append([]string(nil), c.cols...) }

// MemoryOverhead implements index.Interface: primary directory + outlier
// directory + learned model parameters.
func (c *COAX) MemoryOverhead() int64 {
	var b int64 = c.fd.ModelBytes()
	if c.primary != nil {
		b += c.primary.MemoryOverhead()
	}
	if c.outliers != nil {
		b += c.outliers.MemoryOverhead()
	}
	return b
}

// PrimaryMemoryOverhead reports the primary directory plus model bytes
// (the "COAX (primary)" series of Figure 8).
func (c *COAX) PrimaryMemoryOverhead() int64 {
	b := c.fd.ModelBytes()
	if c.primary != nil {
		b += c.primary.MemoryOverhead()
	}
	return b
}

// OutlierMemoryOverhead reports the outlier directory (the "COAX
// (outliers)" series of Figure 8).
func (c *COAX) OutlierMemoryOverhead() int64 {
	if c.outliers == nil {
		return 0
	}
	return c.outliers.MemoryOverhead()
}

// Translate converts r into the rectangle probed against the primary index
// (Eq. 2): every constraint on a dependent attribute Cd is mapped through
// its model ψ̂ and margins into a constraint on the predictor Cx and
// intersected with Cx's native constraint; the dependent dimensions are
// then left unconstrained for routing (matching rows are still re-checked
// against the original rectangle). feasible is false when the translated
// constraints prove no inlier can match, letting the caller skip the
// primary probe entirely.
func (c *COAX) Translate(r index.Rect) (routed index.Rect, feasible bool) {
	return c.translate(r, nil)
}

// Stats summarises the build for Table 1 and the experiment reports.
type Stats struct {
	Rows          int
	Dims          int
	Groups        []softfd.Group
	DependentDims int
	IndexedDims   int // dims receiving grid lines or the sort position
	GridDims      int // primary grid dimensionality (n − m − 1)
	SortDim       int
	PrimaryRows   int
	OutlierRows   int
	PrimaryRatio  float64
	PrimaryCells  int
	// PrimaryGridDims and PrimaryAxisCells describe the primary grid's
	// layout: the columns with grid lines and the cells along each of them.
	// Nil for an index without inliers.
	PrimaryGridDims  []int
	PrimaryAxisCells []int
	// OutlierCells, OutlierGridDims and OutlierSortDim describe the outlier
	// grid's layout: its cells, the columns with grid lines, and the in-cell
	// sort column (-1 unsorted). Zero, nil and -1 for an index without
	// outliers.
	OutlierCells     int
	OutlierGridDims  []int
	OutlierSortDim   int
	PrimaryOverheadB int64
	OutlierOverheadB int64
	ModelOverheadB   int64
}

// BuildStats reports the statistics of this build.
func (c *COAX) BuildStats() Stats {
	s := Stats{
		Rows:           c.n,
		Dims:           c.dims,
		Groups:         c.fd.Groups,
		SortDim:        c.sortDim,
		OutlierSortDim: -1,
		PrimaryRows:    c.primaryN,
		OutlierRows:    c.outlierN,
		ModelOverheadB: c.fd.ModelBytes(),
	}
	for _, pm := range c.depends {
		if pm != nil {
			s.DependentDims++
		}
	}
	s.IndexedDims = c.dims - s.DependentDims
	s.GridDims = len(c.primaryGridDims())
	if c.n > 0 {
		s.PrimaryRatio = float64(c.primaryN) / float64(c.n)
	}
	if c.primary != nil {
		s.PrimaryCells = c.primary.NumCells()
		s.PrimaryGridDims, s.PrimaryAxisCells = c.primary.GridDims(), c.primary.AxisCells()
		s.PrimaryOverheadB = c.primary.MemoryOverhead()
	}
	if g := c.outliers; g != nil {
		s.OutlierOverheadB = g.MemoryOverhead()
		s.OutlierCells, s.OutlierGridDims, s.OutlierSortDim = g.NumCells(), g.GridDims(), g.SortDim()
	}
	return s
}

// FD exposes the detection result (read-only by convention).
func (c *COAX) FD() softfd.Result { return c.fd }

// Primary exposes the primary grid file (nil when all rows are outliers);
// used by the Figure 4a experiment to read cell-size distributions.
func (c *COAX) Primary() *gridfile.GridFile { return c.primary }

// Outliers exposes the outlier grid, or an untyped nil when all rows are
// inliers (a nil *gridfile.GridFile would compare non-nil).
func (c *COAX) Outliers() index.Interface {
	if c.outliers == nil {
		return nil
	}
	return c.outliers
}
