package mmapsnap

import (
	"fmt"
	"sync"
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

// CellSpan implements gridfile.PageStore.
func (s *gridStore) CellSpan(c int, min, max float64, buf []float64) (rows []float64, first int, ok bool) {
	n := int(s.rows[c+1] - s.rows[c])
	if n == 0 {
		return nil, 0, true
	}
	blob := s.data[s.pagedir[c]:s.pagedir[c+1]]
	rows, first, err := readSpan(blob, n, s.dims, s.sortDim, min, max, buf)
	if err != nil {
		s.errs.set(fmt.Errorf("cell %d: %w", c, err))
		return nil, 0, false
	}
	return rows, first, true
}
