package gridfile

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"

	"github.com/coax-index/coax/internal/dataset"
	"github.com/coax-index/coax/internal/stats"
)

// Streamer builds a grid file one row at a time against pre-computed cell
// boundaries — quantile estimates from a sample, or, for Build, the exact
// quantiles of the table it is fed. Rows accumulate in arrival order in
// what becomes the grid file's own page storage, so ingestion never holds
// a second copy of the data. Finish groups them by cell with a stable
// in-place permutation: one pass looks every row's cell up once and turns
// it into the row's destination slot (a 4-byte-per-row array), a second
// follows the permutation's cycles. Each cell therefore lists its rows in
// arrival order — input already sorted on the sort dimension stays sorted.
// Each cell is then sorted and turned column-major through one scratch the
// size of the largest cell, so peak memory beyond the finished index is
// that array, that scratch and the per-cell counts, plus append slack when
// no capacity hint was given.
type Streamer struct{ g *GridFile }

// NewStreamer prepares a streaming build of a dims-column grid file.
// bounds supplies the grid lines: one ascending slice of 2 to
// CellsPerDim+1 boundaries per entry of cfg.GridDims, which cut that axis
// into one cell fewer than it has boundaries. capacityRows ≥ 0 preallocates
// storage for that many rows.
func NewStreamer(dims int, cfg Config, bounds [][]float64, capacityRows int) (*Streamer, error) {
	if err := cfg.check(dims); err != nil {
		return nil, err
	}
	if len(bounds) != len(cfg.GridDims) {
		return nil, fmt.Errorf("gridfile: %d boundary slices for %d grid dimensions", len(bounds), len(cfg.GridDims))
	}

	strides, nCells, err := lattice(bounds, cfg.CellsPerDim)
	if err != nil {
		return nil, err
	}
	g := &GridFile{cfg: cfg, dims: dims, strides: strides, offsets: make([]int64, nCells+1)}
	g.bounds = make([][]float64, len(bounds))
	for i, b := range bounds {
		if !sort.Float64sAreSorted(b) {
			return nil, fmt.Errorf("gridfile: boundary slice %d is not ascending", i)
		}
		g.bounds[i] = append([]float64(nil), b...)
	}

	if capacityRows > 0 {
		g.data = make([]float64, 0, capacityRows*dims)
	}
	return &Streamer{g: g}, nil
}

// Add appends one row (copied) to the build.
func (s *Streamer) Add(row []float64) {
	if len(row) != s.g.dims {
		panic(fmt.Sprintf("gridfile: row has %d values, streamer has %d dims", len(row), s.g.dims))
	}
	s.g.data = append(s.g.data, row...)
}

// Rows reports how many rows have been added.
func (s *Streamer) Rows() int { return len(s.g.data) / s.g.dims }

// Finish groups the buffered rows by cell in place, keeping each cell's
// rows in arrival order, sorts each cell page on the sort dimension, lays
// each page down column-major, and returns the completed grid file. The
// Streamer must not be used afterwards.
func (s *Streamer) Finish() (*GridFile, error) {
	g, n := s.g, s.Rows()
	if n == 0 {
		return nil, errEmpty
	}
	if int64(n) > math.MaxUint32 {
		return nil, fmt.Errorf("gridfile: %d rows exceed a grid file's limit of 2^32-1", n)
	}
	g.n = n

	nCells := g.NumCells()
	dims := g.dims
	rowAt := func(i int) []float64 { return g.data[i*dims : (i+1)*dims] }

	// dest holds each row's cell, then its destination slot: the cell's
	// offset plus the rows of that cell that arrived before it.
	dest := make([]uint32, n)
	for i := range dest {
		c := g.cellOf(rowAt(i))
		dest[i] = uint32(c)
		g.offsets[c+1]++
	}
	for c := 0; c < nCells; c++ {
		g.offsets[c+1] += g.offsets[c]
	}
	cursor := make([]int64, nCells)
	copy(cursor, g.offsets[:nCells])
	for i, c := range dest {
		dest[i] = uint32(cursor[c])
		cursor[c]++
	}

	// Follow each cycle of the permutation: carry the row displaced from
	// each slot on to its own destination, marking slots settled as they
	// fill, until the cycle closes where it began.
	carry, spare := make([]float64, dims), make([]float64, dims)
	for i := range dest {
		if int(dest[i]) == i {
			continue
		}
		copy(carry, rowAt(i))
		j := int(dest[i])
		dest[i] = uint32(i)
		for j != i {
			rj := rowAt(j)
			copy(spare, rj)
			copy(rj, carry)
			carry, spare = spare, carry
			next := int(dest[j])
			dest[j] = uint32(j)
			j = next
		}
		copy(rowAt(i), carry)
	}

	g.columnize(true)
	return g, nil
}

// SampleBounds derives grid boundaries from a column's values — a sample's,
// or for Build the whole table's: quantile or uniform placement over them,
// CellsPerDim cells. Under Quantile placement a column holding d ≤
// CellsPerDim distinct values gets d cells instead, with those values as
// the boundaries, so each value has a slot of its own and no slot is
// empty: the finest split such an axis can have, at the smallest
// directory. sampleCol is not modified.
func SampleBounds(sampleCol []float64, cfg Config) ([]float64, error) {
	if cfg.Mode == Quantile {
		sampleCol = slices.Clone(sampleCol)
	}
	return sampleBounds(sampleCol, cfg)
}

// TableBounds places the boundaries of every grid axis of cfg, as
// SampleBounds does, on the rows of t that keep accepts (every row when
// keep is nil). The grid columns are gathered in one pass over the rows,
// into slices the quantile selection may reorder.
func TableBounds(t *dataset.Table, keep func(row int) bool, cfg Config) ([][]float64, error) {
	kept := func(r int) bool { return keep == nil || keep(r) }
	n := 0
	for r := range t.Len() {
		if kept(r) {
			n++
		}
	}
	cols := make([][]float64, len(cfg.GridDims))
	for i := range cols {
		cols[i] = make([]float64, 0, n)
	}
	for r := range t.Len() {
		if kept(r) {
			row := t.Row(r)
			for i, d := range cfg.GridDims {
				cols[i] = append(cols[i], row[d])
			}
		}
	}
	bounds := make([][]float64, len(cols))
	for i, col := range cols {
		b, err := sampleBounds(col, cfg)
		if err != nil {
			return nil, err
		}
		bounds[i] = b
	}
	return bounds, nil
}

// sampleBounds is SampleBounds over a column its caller owns: quantile
// placement reorders it, selecting the ranks the boundaries interpolate
// between rather than sorting it.
func sampleBounds(col []float64, cfg Config) ([]float64, error) {
	if len(col) == 0 {
		return nil, fmt.Errorf("gridfile: no sample values to place boundaries on")
	}
	if cfg.CellsPerDim < 1 {
		return nil, fmt.Errorf("gridfile: CellsPerDim must be ≥ 1, got %d", cfg.CellsPerDim)
	}
	switch cfg.Mode {
	case Quantile:
		if b := valueBounds(col, cfg.CellsPerDim); b != nil {
			return b, nil
		}
		return stats.Quantiles(col, cfg.CellsPerDim), nil
	case Uniform:
		return uniformBounds(col, cfg.CellsPerDim), nil
	default:
		return nil, fmt.Errorf("gridfile: unknown bounds mode %d", cfg.Mode)
	}
}

// valueBounds returns the boundaries that give each distinct value of col
// its own cell — the values ascending, the largest repeated to close the
// last cell, since Slot clamps it into the cell it opens — or nil as soon
// as col shows more than cells distinct values (−0 and +0 are one value).
func valueBounds(col []float64, cells int) []float64 {
	seen := make(map[float64]struct{}, cells)
	for _, v := range col {
		if _, ok := seen[v]; !ok {
			if len(seen) == cells {
				return nil
			}
			seen[v] = struct{}{}
		}
	}
	out := slices.Sorted(maps.Keys(seen))
	return append(out, out[len(out)-1])
}
