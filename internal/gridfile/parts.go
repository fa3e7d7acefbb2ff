package gridfile

import (
	"fmt"
	"math/bits"

	"github.com/coax-index/coax/internal/index"
)

// Assembly surface for the memory-mapped snapshot layer (internal/mmapsnap).
// A v3 snapshot stores a grid file's directory and pages as fixed-width
// regions that can be aliased straight out of a mapped file; FromParts
// rebuilds a queryable GridFile around those regions without copying the
// row payload, and ExportParts hands an encoder the same pieces.

// PageStore supplies the rows of main cell pages on demand. A store-backed
// grid file holds no resident row payload: every main-page read goes
// through mainSpan, which asks the store for just the rows the read can
// use — a compressed snapshot page is checked whole and unpacked into the
// reader's scratch only where the read looks, a raw one is read in place —
// and nothing about it is retained.
type PageStore interface {
	// CellSpan returns the rows of cell c's main page whose sort-dimension
	// value lies in [min, max] — the interval SpanRows computes, or the
	// whole page when the grid has no sort dimension or the window is
	// unbounded (-Inf, +Inf) — and the page-relative index of the first of
	// them. The span declares its own layout through its steps: a store
	// returns whichever its pages make cheapest to read. Its sort column is
	// in place; the other columns are too unless the span carries a column
	// source (Span.Cols), which puts each in place where a reader pulls it.
	//
	// s is scratch the caller owns, one per scan. The span may be written
	// into s.Vals, and when that is too small the store replaces it with a
	// larger allocation; the store may keep its column source in s.Cols,
	// made on the first call and reused by later ones. Either way a span in
	// scratch, and its column source, are valid only until the caller's
	// next CellSpan with that scratch, and the store keeps no reference to
	// it. A store must be safe for concurrent calls with distinct scratch.
	//
	// ok is false when the page cannot be read: the store has recorded the
	// cause on its side (a sticky error the snapshot's owner checks) and
	// the span is empty. Readers skip the page; a writer that needs every
	// row (Compact) must not proceed.
	CellSpan(c int, min, max float64, s *Scratch) (span Span, first int, ok bool)
}

// Scratch is the memory a reader lends a PageStore for the pages it reads:
// Vals, which spans may be written into, and Cols, the store's own column
// source over them, kept across calls so that a scan allocates it once.
type Scratch struct {
	Vals []float64
	Cols index.Columns
}

// Parts is the deconstructed state of a grid file. Slices may alias
// read-only mapped memory except Overflow and DeadWords, which the grid
// file mutates in place and therefore owns on heap.
type Parts struct {
	GridDims    []int
	SortDim     int
	CellsPerDim int // the most cells any axis may have; Bounds give each its own
	Mode        BoundsMode
	Label       string

	Dims    int
	Bounds  [][]float64 // per grid dim: 2 to CellsPerDim+1 ascending boundaries, one more than its cells
	Offsets []int64     // per cell starting row; len = cells+1

	// Exactly one of Data and Store backs the main pages: Data holds the
	// resident payload (offsets[cells]*Dims values, each cell's page
	// column-major), Store supplies pages on demand.
	Data  []float64
	Store PageStore

	Overflow  map[int][]float64 // heap-owned overflow pages, may be nil
	DeadWords []uint64          // heap-owned tombstone bitmap, may be nil

	// TrustPages skips the O(rows) sortedness verification of the main
	// pages — for mapped snapshots, which verify each page at decode or
	// open time instead.
	TrustPages bool
}

// FromParts assembles a grid file around p, revalidating every structural
// invariant the regular codec checks (a store-backed assembly defers main
// page content checks to the store). The row count is derived from the
// offset table and overflow pages; tombstoned slots are subtracted from
// Len() exactly as after a SetDeadSlots.
func FromParts(p Parts) (*GridFile, error) {
	if (p.Data != nil) && (p.Store != nil) {
		return nil, fmt.Errorf("gridfile: FromParts needs exactly one of Data and Store, got both")
	}
	g := &GridFile{
		cfg: Config{
			GridDims:    p.GridDims,
			SortDim:     p.SortDim,
			CellsPerDim: p.CellsPerDim,
			Mode:        p.Mode,
			Label:       p.Label,
		},
		dims:    p.Dims,
		bounds:  p.Bounds,
		data:    p.Data,
		offsets: p.Offsets,
		store:   p.Store,
	}
	if len(p.Offsets) == 0 {
		return nil, fmt.Errorf("gridfile: FromParts offsets missing")
	}
	mainRows := int(p.Offsets[len(p.Offsets)-1])
	overflowRows := 0
	for c, page := range p.Overflow {
		if len(page) == 0 {
			return nil, fmt.Errorf("gridfile: empty overflow page for cell %d", c)
		}
		if g.overflow == nil {
			g.overflow = make(map[int]*overflowPage, len(p.Overflow))
		}
		g.overflow[c] = &overflowPage{data: page}
		overflowRows += len(page) / p.Dims
	}
	g.n = mainRows + overflowRows
	if err := g.validateDecoded(!p.TrustPages && p.Store == nil); err != nil {
		return nil, err
	}
	if err := g.installDeadWords(p.DeadWords); err != nil {
		return nil, err
	}
	return g, nil
}

// installDeadWords adopts a tombstone bitmap, validating its width and that
// no bit points past the main pages.
func (g *GridFile) installDeadWords(words []uint64) error {
	if len(words) == 0 {
		return nil
	}
	mainRows := g.mainRows()
	maxWords := (mainRows + 63) / 64
	if len(words) > maxWords {
		return fmt.Errorf("gridfile: tombstone bitmap has %d words, main pages need at most %d", len(words), maxWords)
	}
	count := 0
	for w, word := range words {
		count += bits.OnesCount64(word)
		if word == 0 {
			continue
		}
		if hi := w*64 + 63 - bits.LeadingZeros64(word); hi >= mainRows {
			return fmt.Errorf("gridfile: tombstone slot %d out of range [0,%d)", hi, mainRows)
		}
	}
	// Install the trimmed slice as-is: readers tolerate a short bitmap and
	// setDead grows it on demand, so no mainRows-proportional allocation
	// happens here.
	g.dead = append([]uint64(nil), words...)
	g.deadCount = count
	return nil
}

// DeadWords returns a copy of the tombstone bitmap (nil when no rows are
// tombstoned), trimmed of trailing zero words.
func (g *GridFile) DeadWords() []uint64 {
	if g.deadCount == 0 {
		return nil
	}
	end := len(g.dead)
	for end > 0 && g.dead[end-1] == 0 {
		end--
	}
	out := make([]uint64, end)
	copy(out, g.dead[:end])
	return out
}

// ExportParts returns the grid file's state for an encoder. Bounds and
// Offsets alias internal storage and must not be mutated; Overflow pages
// and DeadWords are copies. Data is nil for a store-backed grid file —
// encoders read pages through CellPages instead.
func (g *GridFile) ExportParts() Parts {
	p := Parts{
		GridDims:    g.cfg.GridDims,
		SortDim:     g.cfg.SortDim,
		CellsPerDim: g.cfg.CellsPerDim,
		Mode:        g.cfg.Mode,
		Label:       g.cfg.Label,
		Dims:        g.dims,
		Bounds:      g.bounds,
		Offsets:     g.offsets,
		Data:        g.data,
		Store:       g.store,
		DeadWords:   g.DeadWords(),
	}
	if len(g.overflow) > 0 {
		p.Overflow = make(map[int][]float64, len(g.overflow))
		for c, page := range g.overflow {
			p.Overflow[c] = append([]float64(nil), page.data...)
		}
	}
	return p
}

// CellPages calls fn with every cell's main page in cell order, whole and
// column-major (see ColumnMajor) — the encoder-side iterator that works for
// resident and store-backed grid files alike without exposing storage
// details. page is read-only and valid only during the call: a
// store-backed page is read into buffers the iteration reuses. A page the
// store cannot read arrives empty (the store latches the cause), so an
// encoder of a mapped index checks the snapshot's PageErr before trusting
// its output.
func (g *GridFile) CellPages(fn func(c int, page Span)) {
	var buf Scratch
	var cols []float64
	for c := 0; c < g.NumCells(); c++ {
		page, _ := g.mainPage(c, &buf)
		fn(c, ColumnMajor(page.columns(g.dims, &cols), page.Rows, g.dims))
	}
}

// Mapped reports whether the main pages live behind a PageStore rather
// than in resident memory.
func (g *GridFile) Mapped() bool { return g.store != nil }
