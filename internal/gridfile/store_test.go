package gridfile

import (
	"math"
	"math/rand"
	"testing"

	"github.com/coax-index/coax/internal/index"
)

// fakeStore is a PageStore over a private copy of a resident grid file's
// main pages. It honours the contract the way a decoding store does — rows
// are always written into the caller's scratch, row-major, which is
// scribbled over first so a reader holding rows across calls sees garbage —
// and reads of the cell in fail report !ok.
type fakeStore struct {
	pages   []Span
	dims    int
	sortDim int
	fail    int // cell that cannot be read, or -1
	failed  int // reads refused
}

func newFakeStore(g *GridFile) *fakeStore {
	s := &fakeStore{dims: g.dims, sortDim: g.cfg.SortDim, fail: -1}
	for c := 0; c < g.NumCells(); c++ {
		page := g.cellPage(c)
		s.pages = append(s.pages, ColumnMajor(append([]float64(nil), page.Data...), page.Rows, g.dims))
	}
	return s
}

func (s *fakeStore) CellSpan(c int, min, max float64, buf *[]float64) (Span, int, bool) {
	if c == s.fail {
		s.failed++
		return Span{}, 0, false
	}
	page := s.pages[c]
	lo, hi := 0, page.Rows
	if sd := s.sortDim; sd >= 0 {
		lo, hi = SpanRows(page.Data[sd*page.ColStep:], page.RowStep, page.Rows, min, max)
	}
	if cap(*buf) < page.Rows*s.dims {
		*buf = make([]float64, page.Rows*s.dims)
	}
	rows := (*buf)[:cap(*buf)]
	for i := range rows {
		rows[i] = math.NaN()
	}
	rows = rows[:0]
	for i := lo; i < hi; i++ {
		rows = page.AppendRow(rows, i, s.dims)
	}
	return RowMajor(rows, s.dims), lo, true
}

// storeBacked rebuilds g around a fakeStore of its own pages.
func storeBacked(t *testing.T, g *GridFile) (*GridFile, *fakeStore) {
	t.Helper()
	store := newFakeStore(g)
	p := g.ExportParts()
	p.Data, p.Store, p.TrustPages = nil, store, true
	m, err := FromParts(p)
	if err != nil {
		t.Fatalf("FromParts: %v", err)
	}
	if !m.Mapped() {
		t.Fatal("store-backed grid file does not report Mapped")
	}
	return m, store
}

// requireSamePaths holds a store-backed grid file to its resident twin: the
// same rows and the same probe counters, so the same pages, rows and
// batches were visited. (Both are held to the reference, consumer by
// consumer, in TestScanBatchMatchesScan.)
func requireSamePaths(t *testing.T, label string, want, got *GridFile, rects []index.Rect) {
	t.Helper()
	scanned := func(g *GridFile, r index.Rect) (rows [][]float64, p index.Probe) {
		g.Scan(r, func(row []float64) bool {
			rows = append(rows, append([]float64(nil), row...))
			return true
		}, &p)
		return rows, p
	}
	for qi, r := range rects {
		wr, wp := scanned(want, r)
		gr, gp := scanned(got, r)
		sameRows(t, gr, wr)
		if gp.Pages != wp.Pages || gp.Scanned != wp.Scanned || gp.Matched != wp.Matched || gp.Tombstones != wp.Tombstones || gp.Batches != wp.Batches {
			t.Fatalf("%s query %d: probe {pages %d scanned %d matched %d tombstones %d batches %d}, resident {%d %d %d %d %d}", label, qi,
				gp.Pages, gp.Scanned, gp.Matched, gp.Tombstones, gp.Batches, wp.Pages, wp.Scanned, wp.Matched, wp.Tombstones, wp.Batches)
		}
	}
}

func storeTestRects(rng *rand.Rand, dims int) []index.Rect {
	rects := []index.Rect{index.Full(dims)}
	for i := 0; i < 60; i++ {
		rects = append(rects, randQueryRect(rng, dims))
	}
	return rects
}

// TestStoreBackedMatchesResident drives a store-backed grid file and the
// resident one it was cut from through the same queries and mutations, with
// and without a sort dimension.
func TestStoreBackedMatchesResident(t *testing.T) {
	for _, sortDim := range []int{2, -1} {
		rng := rand.New(rand.NewSource(17))
		tab := randomTable(rng, 3000, 4)
		cfg := Config{GridDims: []int{0, 1}, SortDim: sortDim, CellsPerDim: 5, Mode: Quantile}
		heap, err := Build(tab, cfg)
		if err != nil {
			t.Fatal(err)
		}
		mapped, _ := storeBacked(t, heap)
		rects := storeTestRects(rng, tab.Dims())
		requireSamePaths(t, "fresh", heap, mapped, rects)

		for i := 0; i < 200; i++ {
			row := tab.Row(rng.Intn(tab.Len()))
			if h, m := heap.Delete(row), mapped.Delete(row); h != m {
				t.Fatalf("Delete(%v): resident %v, store-backed %v", row, h, m)
			}
			nr := append([]float64(nil), row...)
			nr[3] += 0.25
			if err := heap.Insert(nr); err != nil {
				t.Fatal(err)
			}
			if err := mapped.Insert(nr); err != nil {
				t.Fatal(err)
			}
		}
		if heap.Len() != mapped.Len() || heap.Tombstones() != mapped.Tombstones() {
			t.Fatalf("after mutations: len %d/%d tombstones %d/%d", heap.Len(), mapped.Len(), heap.Tombstones(), mapped.Tombstones())
		}
		requireSamePaths(t, "mutated", heap, mapped, rects)

		if err := heap.Compact(); err != nil {
			t.Fatal(err)
		}
		if err := mapped.Compact(); err != nil {
			t.Fatal(err)
		}
		if mapped.Mapped() {
			t.Fatal("still store-backed after Compact")
		}
		requireSamePaths(t, "compacted", heap, mapped, rects)
	}
}

// TestCompactUnreadablePageLeavesGridIntact: a Compact that meets a page
// its store cannot read must not proceed on the rows it could read — the
// grid keeps its store, its overflow pages, its tombstones and its count —
// and must say so; once the page reads again the same Compact completes
// with every row.
func TestCompactUnreadablePageLeavesGridIntact(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	tab := randomTable(rng, 2000, 3)
	heap, err := Build(tab, Config{GridDims: []int{0}, SortDim: 1, CellsPerDim: 8, Mode: Quantile})
	if err != nil {
		t.Fatal(err)
	}
	mapped, store := storeBacked(t, heap)
	for i := 0; i < 40; i++ {
		row := tab.Row(rng.Intn(tab.Len()))
		if heap.Delete(row) != mapped.Delete(row) {
			t.Fatalf("Delete(%v) disagrees", row)
		}
		nr := append([]float64(nil), row...)
		nr[2] += 0.5
		heap.Insert(nr)
		mapped.Insert(nr)
	}
	wantLen, wantIns, wantDead := mapped.Len(), mapped.Inserted(), mapped.Tombstones()
	rects := storeTestRects(rng, tab.Dims())

	store.fail = 3
	if heap.CellSizes()[store.fail] == 0 {
		t.Fatal("test cell is empty")
	}
	if err := mapped.Compact(); err == nil {
		t.Fatal("Compact over an unreadable page reported success")
	}
	if store.failed == 0 {
		t.Fatal("Compact never asked for the failing page")
	}
	if !mapped.Mapped() {
		t.Fatal("Compact dropped the store it could not read in full")
	}
	if mapped.Len() != wantLen || mapped.Inserted() != wantIns || mapped.Tombstones() != wantDead {
		t.Fatalf("after failed Compact: len %d inserted %d tombstones %d, want %d %d %d",
			mapped.Len(), mapped.Inserted(), mapped.Tombstones(), wantLen, wantIns, wantDead)
	}

	store.fail = -1
	requireSamePaths(t, "after failed Compact", heap, mapped, rects)
	if err := mapped.Compact(); err != nil {
		t.Fatalf("Compact once the page reads again: %v", err)
	}
	if err := heap.Compact(); err != nil {
		t.Fatal(err)
	}
	if mapped.Mapped() || mapped.Len() != wantLen || mapped.StoredRows() != wantLen {
		t.Fatalf("after Compact: mapped=%v len=%d stored=%d, want resident with %d", mapped.Mapped(), mapped.Len(), mapped.StoredRows(), wantLen)
	}
	requireSamePaths(t, "compacted", heap, mapped, rects)
}
