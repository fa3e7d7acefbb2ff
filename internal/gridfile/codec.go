package gridfile

import (
	"fmt"

	"github.com/coax-index/coax/internal/binio"
)

// Snapshot codec of format v1/v2. A grid file there serializes as its
// configuration, the per-dimension boundary vectors, the per-cell offset
// table, the contiguous row payload, and any live overflow pages. Its one
// caller is internal/snapshot's reader of those files; v3 lays grids out as
// pages (internal/mmapsnap). Strides are recomputed on decode rather than
// trusted from the payload.

// Decode reads a format v1/v2 grid file payload, revalidating every
// structural invariant so a corrupted payload yields an error rather than
// an index that panics at query time.
func Decode(r *binio.Reader) (*GridFile, error) {
	g := &GridFile{}
	g.cfg.GridDims = r.Ints()
	g.cfg.SortDim = r.Int()
	g.cfg.CellsPerDim = r.Int()
	g.cfg.Mode = BoundsMode(r.Int())
	g.cfg.Label = r.String()
	g.dims = r.Int()
	g.n = r.Int()
	nBounds := r.Uint64()
	if r.Err() != nil {
		return nil, r.Err()
	}
	if nBounds != uint64(len(g.cfg.GridDims)) {
		return nil, fmt.Errorf("gridfile: %d boundary vectors for %d grid dims", nBounds, len(g.cfg.GridDims))
	}
	g.bounds = make([][]float64, nBounds)
	for i := range g.bounds {
		g.bounds[i] = r.Float64s()
	}
	g.offsets = r.Int64s()
	g.data = r.Float64s()

	nOverflow := r.Uint64()
	if r.Err() != nil {
		return nil, r.Err()
	}
	for i := uint64(0); i < nOverflow; i++ {
		c := r.Int()
		page := r.Float64s()
		if r.Err() != nil {
			return nil, r.Err()
		}
		if g.overflow == nil {
			g.overflow = make(map[int]*overflowPage)
		}
		if _, dup := g.overflow[c]; dup {
			return nil, fmt.Errorf("gridfile: overflow page for cell %d listed twice", c)
		}
		g.overflow[c] = &overflowPage{data: page}
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	// The file's pages are row-major: lay them down column-major, then
	// prove them sorted.
	if err := g.validateDecoded(false); err != nil {
		return nil, err
	}
	g.columnize(false)
	if err := g.verifyMainSorted(); err != nil {
		return nil, err
	}
	return g, nil
}

// validateDecoded checks the invariants Build guarantees by construction.
// verifyPages additionally proves every main page sorted on the sort
// dimension — an O(rows) pass a store-backed grid file leaves to its
// store, which proves it on every page read instead.
func (g *GridFile) validateDecoded(verifyPages bool) error {
	if g.dims < 1 {
		return fmt.Errorf("gridfile: dims %d < 1", g.dims)
	}
	if g.cfg.CellsPerDim < 1 {
		return fmt.Errorf("gridfile: CellsPerDim %d < 1", g.cfg.CellsPerDim)
	}
	if g.cfg.Mode != Quantile && g.cfg.Mode != Uniform {
		return fmt.Errorf("gridfile: unknown bounds mode %d", g.cfg.Mode)
	}
	seen := make(map[int]bool, len(g.cfg.GridDims))
	for _, d := range g.cfg.GridDims {
		if d < 0 || d >= g.dims {
			return fmt.Errorf("gridfile: grid dimension %d out of range [0,%d)", d, g.dims)
		}
		if seen[d] {
			return fmt.Errorf("gridfile: grid dimension %d listed twice", d)
		}
		seen[d] = true
	}
	if g.cfg.SortDim >= g.dims || g.cfg.SortDim < -1 {
		return fmt.Errorf("gridfile: sort dimension %d out of range", g.cfg.SortDim)
	}
	if g.cfg.SortDim >= 0 && seen[g.cfg.SortDim] {
		return fmt.Errorf("gridfile: sort dimension %d is also a grid dimension", g.cfg.SortDim)
	}

	if len(g.bounds) != len(g.cfg.GridDims) {
		return fmt.Errorf("gridfile: %d boundary vectors for %d grid dims", len(g.bounds), len(g.cfg.GridDims))
	}
	strides, nCells, err := lattice(g.bounds, g.cfg.CellsPerDim)
	if err != nil {
		return err
	}
	g.strides = strides
	for i, b := range g.bounds {
		for j := 1; j < len(b); j++ {
			if !(b[j] >= b[j-1]) { // also rejects NaN
				return fmt.Errorf("gridfile: boundaries of grid dim %d not ascending at %d", i, j)
			}
		}
	}
	if len(g.offsets) != nCells+1 {
		return fmt.Errorf("gridfile: offset table has %d entries, want %d", len(g.offsets), nCells+1)
	}
	if g.offsets[0] != 0 {
		return fmt.Errorf("gridfile: offsets must start at 0, got %d", g.offsets[0])
	}
	for c := 1; c <= nCells; c++ {
		if g.offsets[c] < g.offsets[c-1] {
			return fmt.Errorf("gridfile: offsets not monotone at cell %d", c)
		}
	}
	mainRows := int(g.offsets[nCells])
	if g.store == nil {
		if len(g.data)%g.dims != 0 {
			return fmt.Errorf("gridfile: payload length %d not divisible by dims %d", len(g.data), g.dims)
		}
		if len(g.data)/g.dims != mainRows {
			return fmt.Errorf("gridfile: offsets cover %d rows, payload has %d", g.offsets[nCells], len(g.data)/g.dims)
		}
	}
	overflowRows := 0
	for c, page := range g.overflow {
		if c < 0 || c >= nCells {
			return fmt.Errorf("gridfile: overflow cell %d out of range [0,%d)", c, nCells)
		}
		if len(page.data)%g.dims != 0 {
			return fmt.Errorf("gridfile: overflow page %d length %d not divisible by dims %d", c, len(page.data), g.dims)
		}
		overflowRows += len(page.data) / g.dims
	}
	g.inserted = overflowRows
	if g.n != mainRows+overflowRows {
		return fmt.Errorf("gridfile: row count %d does not match payload %d + overflow %d", g.n, mainRows, overflowRows)
	}
	// The query path binary-searches cell pages on the sort dimension; an
	// unsorted page would silently drop matching rows, so the invariant is
	// load-bearing and must be checked, not trusted.
	if sd := g.cfg.SortDim; sd >= 0 {
		for c, page := range g.overflow {
			if !g.pageSorted(RowMajor(page.data, g.dims)) {
				return fmt.Errorf("gridfile: overflow page %d not sorted on dimension %d", c, sd)
			}
		}
	}
	if verifyPages {
		return g.verifyMainSorted()
	}
	return nil
}

// verifyMainSorted proves every resident main page sorted on the sort
// dimension.
func (g *GridFile) verifyMainSorted() error {
	if g.cfg.SortDim < 0 {
		return nil
	}
	for c := 0; c < g.NumCells(); c++ {
		if !g.pageSorted(g.cellPage(c)) {
			return fmt.Errorf("gridfile: cell %d not sorted on dimension %d", c, g.cfg.SortDim)
		}
	}
	return nil
}

// pageSorted reports whether a page is non-descending on the sort
// dimension.
func (g *GridFile) pageSorted(page Span) bool {
	keys := page.Data[g.cfg.SortDim*page.ColStep:]
	for i := 1; i < page.Rows; i++ {
		if keys[i*page.RowStep] < keys[(i-1)*page.RowStep] {
			return false
		}
	}
	return true
}
