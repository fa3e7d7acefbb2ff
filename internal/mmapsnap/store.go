package mmapsnap

import (
	"fmt"
	"sync"

	"github.com/coax-index/coax/internal/gridfile"
)

// gridStore implements gridfile.PageStore over a compressed data region.
// It holds no decoded state: every CellSpan reads the cell's blob out of
// the mapping through readSpan — every check, every time — into scratch the
// calling scan owns, so readers share nothing but the read-only mapping. A
// corrupt blob records a sticky error on the snapshot and reads as not ok —
// the query path cannot return an error mid-scan, so the caller checks
// Snapshot.PageErr after querying (and Verify can prove the whole file
// sound up front).
type gridStore struct {
	data    []byte   // compressed data region (aliases the mapping)
	pagedir []uint64 // cells+1 blob-end offsets into data
	rows    []int64  // cells+1 row offsets (the grid directory)
	dims    int
	sortDim int
	errs    *errBox
}

// errBox latches the first page error of an opened snapshot.
type errBox struct {
	mu  sync.Mutex
	err error
}

func (b *errBox) set(err error) {
	b.mu.Lock()
	if b.err == nil {
		b.err = err
	}
	b.mu.Unlock()
}

func (b *errBox) get() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.err
}

// CellSpan implements gridfile.PageStore: the span is decoded
// column-major into *buf (see readSpan).
func (s *gridStore) CellSpan(c int, min, max float64, buf *[]float64) (span gridfile.Span, first int, ok bool) {
	n := int(s.rows[c+1] - s.rows[c])
	if n == 0 {
		return gridfile.Span{}, 0, true
	}
	blob := s.data[s.pagedir[c]:s.pagedir[c+1]]
	span, first, err := readSpan(blob, n, s.dims, s.sortDim, min, max, buf)
	if err != nil {
		s.errs.set(fmt.Errorf("cell %d: %w", c, err))
		return gridfile.Span{}, 0, false
	}
	return span, first, true
}

// rawStore implements gridfile.PageStore over an uncompressed data region:
// its pages are row-major, as the file stores them, and every span is read
// in place out of the mapping — opening the file copies no row and a read
// decodes nothing. The pages are trusted, as a resident grid's are.
type rawStore struct {
	data    []float64 // the data region (aliases the mapping)
	rows    []int64   // cells+1 row offsets (the grid directory)
	dims    int
	sortDim int
}

// CellSpan implements gridfile.PageStore with steps (dims, 1); it never
// touches buf and never fails.
func (s *rawStore) CellSpan(c int, min, max float64, _ *[]float64) (span gridfile.Span, first int, ok bool) {
	page := gridfile.RowMajor(s.data[s.rows[c]*int64(s.dims):s.rows[c+1]*int64(s.dims)], s.dims)
	lo, hi := 0, page.Rows
	if s.sortDim >= 0 {
		lo, hi = gridfile.SpanRows(page.Data[s.sortDim:], s.dims, page.Rows, min, max)
	}
	return page.Slice(lo, hi, s.dims), lo, true
}
