package gridfile

import (
	"fmt"
	"sort"

	"github.com/coax-index/coax/internal/lifecycle"
)

// Mutation support. The paper leaves updates as future work (§9) but
// sketches the mechanism in §5: the bucketed training grid can absorb new
// samples, and the static layout needs a delta area. We implement the
// classic main/delta design plus tombstones: every cell owns a small
// overflow page that absorbs inserts (kept sorted on the sort dimension so
// lookups stay logarithmic); deletes in the contiguous main pages set a bit
// in a tombstone bitmap that the query path skips, while deletes in an
// overflow page remove the row in place; Compact merges all overflow pages
// back into contiguous storage and drops the tombstoned rows.

// overflow pages are lazily allocated per cell.
type overflowPage struct {
	data []float64 // row-major, sorted by the sort dimension when enabled
}

// Insert adds one row (copied) to the grid file, placing it in its cell's
// overflow page. Queries see the row immediately. Amortised cost is the
// binary search plus a memmove within one overflow page; call Compact once
// a batch of inserts has landed to restore fully contiguous cells.
func (g *GridFile) Insert(row []float64) error {
	if err := lifecycle.ValidateRow(g.dims, row); err != nil {
		return err
	}
	if g.overflow == nil {
		g.overflow = make(map[int]*overflowPage)
	}
	c := g.cellOf(row)
	page := g.overflow[c]
	if page == nil {
		page = &overflowPage{}
		g.overflow[c] = page
	}

	if sd := g.cfg.SortDim; sd >= 0 {
		// Insert in sort-dimension order.
		nRows := len(page.data) / g.dims
		pos := sort.Search(nRows, func(i int) bool {
			return page.data[i*g.dims+sd] >= row[sd]
		})
		page.data = append(page.data, make([]float64, g.dims)...)
		copy(page.data[(pos+1)*g.dims:], page.data[pos*g.dims:len(page.data)-g.dims])
		copy(page.data[pos*g.dims:(pos+1)*g.dims], row)
	} else {
		page.data = append(page.data, row...)
	}
	g.n++
	g.inserted++
	return nil
}

// Inserted reports how many rows live in overflow pages since the last
// Compact.
func (g *GridFile) Inserted() int { return g.inserted }

// Delete removes one live row exactly equal to row (all dimensions compared
// bit-for-bit) and reports whether one was found. A main-page match is
// tombstoned — the page stays contiguous and the bitmap filters it out of
// every query until Compact drops it; an overflow-page match is removed in
// place. With duplicate rows exactly one is removed per call.
func (g *GridFile) Delete(row []float64) bool {
	if len(row) != g.dims {
		return false
	}
	c := g.cellOf(row)
	if g.deleteMain(c, row) {
		return true
	}
	return g.deleteOverflow(c, row)
}

// deleteMain tombstones the first live exact match in cell c's main page.
// A page its store cannot read holds no match; the store has latched why.
func (g *GridFile) deleteMain(c int, row []float64) bool {
	min, max := g.rowWindow(row)
	var buf []float64
	span, first, _ := g.mainSpan(c, min, max, &buf)
	base := int(g.offsets[c]) + first
	cand := make([]float64, 0, g.dims)
	for i := 0; i < span.Rows; i++ {
		if g.deadCount > 0 && g.isDead(base+i) {
			continue
		}
		if lifecycle.RowsEqual(span.AppendRow(cand[:0], i, g.dims), row) {
			g.setDead(base + i)
			return true
		}
	}
	return false
}

// deleteOverflow removes the first exact match from cell c's overflow page.
func (g *GridFile) deleteOverflow(c int, row []float64) bool {
	page := g.overflow[c]
	if page == nil {
		return false
	}
	dims := g.dims
	min, max := g.rowWindow(row)
	lo, hi := g.sortSpan(RowMajor(page.data, dims), min, max)
	for i := lo; i < hi; i++ {
		if lifecycle.RowsEqual(page.data[i*dims:(i+1)*dims], row) {
			copy(page.data[i*dims:], page.data[(i+1)*dims:])
			page.data = page.data[:len(page.data)-dims]
			if len(page.data) == 0 {
				delete(g.overflow, c)
			}
			g.n--
			g.inserted--
			return true
		}
	}
	return false
}

// --- tombstone bitmap ---

func (g *GridFile) isDead(slot int) bool {
	w := slot >> 6
	if w >= len(g.dead) {
		return false
	}
	return g.dead[w]&(1<<(uint(slot)&63)) != 0
}

func (g *GridFile) setDead(slot int) {
	w := slot >> 6
	if w >= len(g.dead) {
		grown := make([]uint64, (g.mainRows()+63)/64)
		copy(grown, g.dead)
		g.dead = grown
	}
	if g.dead[w]&(1<<(uint(slot)&63)) == 0 {
		g.dead[w] |= 1 << (uint(slot) & 63)
		g.deadCount++
	}
}

// SetDeadSlots installs a tombstone set decoded from a format v2 snapshot.
// Slots must be unique and within the main pages.
func (g *GridFile) SetDeadSlots(slots []int64) error {
	mainRows := g.mainRows()
	g.dead = nil
	g.deadCount = 0
	for _, s := range slots {
		if s < 0 || s >= int64(mainRows) {
			return fmt.Errorf("gridfile: tombstone slot %d out of range [0,%d)", s, mainRows)
		}
		if g.isDead(int(s)) {
			return fmt.Errorf("gridfile: tombstone slot %d listed twice", s)
		}
		g.setDead(int(s))
	}
	return nil
}

// Compact merges every overflow page into the main contiguous storage,
// drops tombstoned rows, re-sorts affected cells, and clears the overflow
// map and tombstone bitmap. After Compact the grid file is byte-for-byte
// equivalent to one built over the live data (with the original grid
// boundaries — boundaries are not recomputed, so heavily drifted data
// distributions warrant a full rebuild instead; see internal/lifecycle).
//
// A store-backed grid file becomes resident. If its store cannot read one
// of the pages, Compact changes nothing — the store stays, overflow and
// tombstones stay, Len() still counts the rows the unread page holds — and
// returns an error; the store has latched the cause on its side.
func (g *GridFile) Compact() error {
	if g.inserted == 0 && g.deadCount == 0 {
		return nil
	}
	nCells := g.NumCells()
	live := g.Len()
	newData := make([]float64, live*g.dims)
	newOffsets := make([]int64, nCells+1)
	var buf, rows []float64
	at := 0 // rows written to newData
	for c := 0; c < nCells; c++ {
		newOffsets[c] = int64(at)
		page, ok := g.mainPage(c, &buf)
		if !ok {
			return fmt.Errorf("gridfile: compact: main page of cell %d is unreadable", c)
		}
		// The cell's live rows, then its overflow rows, row-major: sorted
		// as a build sorts them, then laid down column-major.
		rows = rows[:0]
		base := int(g.offsets[c])
		for i := 0; i < page.Rows; i++ {
			if g.deadCount > 0 && g.isDead(base+i) {
				continue
			}
			rows = page.AppendRow(rows, i, g.dims)
		}
		if page := g.overflow[c]; page != nil {
			rows = append(rows, page.data...)
		}
		n := len(rows) / g.dims
		g.sortRows(rows)
		transpose(newData[at*g.dims:(at+n)*g.dims], rows, n, g.dims)
		at += n
	}
	newOffsets[nCells] = int64(at)
	g.data = newData
	g.offsets = newOffsets
	g.store = nil // pages are resident again; drop any mapped backing
	g.overflow = nil
	g.inserted = 0
	g.dead = nil
	g.deadCount = 0
	g.n = live
	return nil
}
