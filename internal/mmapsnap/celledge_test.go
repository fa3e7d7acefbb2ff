package mmapsnap

import (
	"math"
	"math/rand"
	"testing"

	"github.com/coax-index/coax/internal/dataset"
	"github.com/coax-index/coax/internal/enginetest"
	"github.com/coax-index/coax/internal/gridfile"
	"github.com/coax-index/coax/internal/index"
	"github.com/coax-index/coax/internal/scan"
)

// The grid file's cell walk tests a page only on the columns its cell does
// not prove: the sort column, and every grid axis the cell lies inside
// (gridfile/batch.go). Random rectangles almost never put a side on a grid
// boundary, which is where a wrong proof would show, so these rectangles
// draw their sides from the boundaries themselves, plus ±∞. The test lives
// here because only this package can back a grid file with compressed
// pages.

// edgeTable draws rows whose grid columns sit on few values, so quantile
// boundaries land on data: column 0 holds integers, column 1 four values (a
// per-value axis under quantile placement), column 2 quarters (the sort
// column, or a third axis), column 3 sixteenths (the aggregate the engine
// table checks to the bit) and column 4 unrounded values (the aggregate
// folded in scan order).
func edgeTable(rng *rand.Rand, n int) *dataset.Table {
	tab := dataset.NewTable([]string{"a", "b", "s", "q", "v"})
	for i := 0; i < n; i++ {
		tab.Append(edgeRow(rng))
	}
	return tab
}

func edgeRow(rng *rand.Rand) []float64 {
	return []float64{
		float64(rng.Intn(41) - 20),
		float64(rng.Intn(4)),
		float64(rng.Intn(40)) / 4,
		math.Round(rng.NormFloat64()*48)/16 + 0,
		rng.NormFloat64() * 1e3,
	}
}

// mappedGrid is g re-opened from a grid page section, as a mapped snapshot
// serves it: compressed, its main pages decode column-major from the store
// on every read; raw, they are read row-major in place. Overflow pages and
// tombstones come across as they are.
func mappedGrid(t *testing.T, g *gridfile.GridFile, compress bool) (*gridfile.GridFile, *errBox) {
	t.Helper()
	payload := encodeGridSection(g, compress)
	buf := alignedBuffer(len(payload))
	copy(buf, payload)
	sec, err := parseGridSection(buf)
	if err != nil {
		t.Fatal(err)
	}
	if sec.compressed != compress {
		t.Fatalf("section compressed %v, want %v", sec.compressed, compress)
	}
	errs := &errBox{}
	m, err := openGridSection(sec, errs)
	if err != nil {
		t.Fatal(err)
	}
	return m, errs
}

// compressedGrid is g re-opened from a compressed grid page section.
func compressedGrid(t *testing.T, g *gridfile.GridFile) (*gridfile.GridFile, *errBox) {
	t.Helper()
	return mappedGrid(t, g, true)
}

// edgeRects draws rectangles whose sides come from values[d] or are ±∞;
// about one side in five is a point.
func edgeRects(rng *rand.Rand, values [][]float64, n int) []index.Rect {
	rects := make([]index.Rect, n)
	for k := range rects {
		r := index.Full(len(values))
		for d, vals := range values {
			pick := func() float64 { return vals[rng.Intn(len(vals))] }
			switch rng.Intn(6) {
			case 0: // open
			case 1:
				r.Min[d] = pick()
				r.Max[d] = r.Min[d]
			default:
				if rng.Intn(4) != 0 {
					r.Min[d] = pick()
				}
				if rng.Intn(4) != 0 {
					r.Max[d] = pick()
				}
				if r.Min[d] > r.Max[d] {
					r.Min[d], r.Max[d] = r.Max[d], r.Min[d]
				}
			}
		}
		rects[k] = r
	}
	return rects
}

// TestScanBatchAtCellEdges holds the cell walk to a full scan of the live
// rows on rectangles whose sides sit on the grid's boundaries — over
// quantile, uniform and per-value axes, with rows inserted below the first
// boundary, on the last and above it (the values Slot clamps into the edge
// slots), tombstones, cells whose every main-page row is tombstoned,
// overflow pages, a grid of one-row cells (where a column-major page's two
// steps coincide), and compressed and raw mapped copies — and requires
// every aggregate FoldBatch computes to equal FoldRow over the scan's own
// rows, bit for bit.
func TestScanBatchAtCellEdges(t *testing.T) {
	for ci, tc := range []struct {
		name string
		cfg  gridfile.Config
	}{
		{"quantile", gridfile.Config{GridDims: []int{0, 1}, SortDim: 2, CellsPerDim: 6, Mode: gridfile.Quantile}},
		{"uniform", gridfile.Config{GridDims: []int{0, 1}, SortDim: 2, CellsPerDim: 6, Mode: gridfile.Uniform}},
		{"unsorted", gridfile.Config{GridDims: []int{0, 1, 2}, SortDim: -1, CellsPerDim: 5, Mode: gridfile.Quantile}},
		// One cell per value of columns 0 and 2: about two rows a cell.
		{"one-row cells", gridfile.Config{GridDims: []int{0, 2}, SortDim: 3, CellsPerDim: 41, Mode: gridfile.Quantile}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(90 + ci)))
			tab := edgeTable(rng, 3000)
			g, err := gridfile.Build(tab, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Columns 0, 1 and 2 hold 41, 4 and 40 values: a quantile axis
			// allowed that many cells gets one per value.
			for i, d := range tc.cfg.GridDims {
				if values := []int{41, 4, 40}[d]; tc.cfg.Mode == gridfile.Quantile && values <= tc.cfg.CellsPerDim && g.AxisCells()[i] != values {
					t.Fatalf("axis cells %v: column %d should get one cell per value", g.AxisCells(), d)
				}
			}
			parts := g.ExportParts()
			bounds := parts.Bounds
			oneRow := 0
			for c := 0; c+1 < len(parts.Offsets); c++ {
				if parts.Offsets[c+1]-parts.Offsets[c] == 1 {
					oneRow++
				}
			}
			if tc.name == "one-row cells" && oneRow < 100 {
				t.Fatalf("%d one-row cells: the case needs many", oneRow)
			}
			live := enginetest.NewLive(tab)
			var inserted [][]float64
			insert := func(row []float64) {
				if err := g.Insert(row); err != nil {
					t.Fatal(err)
				}
				live.Insert(row)
				inserted = append(inserted, row)
			}
			for i, d := range tc.cfg.GridDims {
				b := bounds[i]
				last := b[len(b)-1]
				for _, v := range []float64{b[0] - 1, b[0] - 0.25, last, last + 0.25, last + 1} {
					for k := 0; k < 3; k++ {
						row := edgeRow(rng)
						row[d] = v
						insert(row)
					}
				}
			}
			for k := 0; k < 200; k++ {
				insert(edgeRow(rng))
			}
			remove := func(row []float64) {
				if got, want := g.Delete(row), live.Delete(row); got != want {
					t.Fatalf("Delete(%v) = %v, live rows say %v", row, got, want)
				}
			}
			for k := 0; k < 300; k++ {
				remove(tab.Row(rng.Intn(tab.Len())))
			}
			for k := 0; k < 40; k++ {
				remove(inserted[rng.Intn(len(inserted))])
			}
			// Tombstone every main-page row of a few cells, one-row cells
			// among them where there are any.
			var doomed [][]float64
			g.CellPages(func(c int, page gridfile.Span) {
				if page.Rows > 0 && (c%7 == 3 || page.Rows == 1 && c%5 == 0) {
					for i := 0; i < page.Rows; i++ {
						doomed = append(doomed, page.AppendRow(nil, i, g.Dims()))
					}
				}
			})
			for _, row := range doomed {
				remove(row)
			}
			dead := 0
			g.CellPages(func(c int, page gridfile.Span) {
				if page.Rows > 0 && (c%7 == 3 || page.Rows == 1 && c%5 == 0) && deadCell(g, c) {
					dead++
				}
			})
			if dead == 0 || g.Tombstones() == 0 || g.Inserted() == 0 {
				t.Fatalf("%d fully tombstoned cells, %d tombstones, %d overflow rows: the test needs all three", dead, g.Tombstones(), g.Inserted())
			}
			compressed, errs := mappedGrid(t, g, true)
			raw, _ := mappedGrid(t, g, false)

			// Sides: every boundary of a grid axis; a spread of data values
			// on the other columns.
			values := make([][]float64, tab.Dims())
			for i, d := range tc.cfg.GridDims {
				values[d] = bounds[i]
			}
			for d := range values {
				for values[d] == nil || len(values[d]) < 12 {
					values[d] = append(values[d], tab.Row(rng.Intn(tab.Len()))[d])
				}
			}
			rects := edgeRects(rng, values, 300)

			want := live.Table(tab.Cols)
			for _, e := range []struct {
				name string
				g    *gridfile.GridFile
			}{{"resident", g}, {"compressed", compressed}, {"raw", raw}} {
				enginetest.Check(t, e.name, want, enginetest.Storage(e.g), rects, 3, 1)
				foldsInScanOrder(t, e.name, e.g, rects, 4)
			}
			if err := errs.get(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// deadCell reports whether every main-page slot of cell c is tombstoned.
func deadCell(g *gridfile.GridFile, c int) bool {
	p := g.ExportParts()
	for slot := p.Offsets[c]; slot < p.Offsets[c+1]; slot++ {
		if w := int(slot >> 6); w >= len(p.DeadWords) || p.DeadWords[w]&(1<<(uint(slot)&63)) == 0 {
			return false
		}
	}
	return true
}

// foldsInScanOrder requires FoldBatch over g's batch scan to give, for all
// five ops over column col, ungrouped and grouped by column 1, the bits
// FoldRow gives over g's row scan.
func foldsInScanOrder(t *testing.T, label string, g *gridfile.GridFile, rects []index.Rect, col int) {
	t.Helper()
	same := func(a, b *index.AggCell) bool {
		return a.Count == b.Count && math.Float64bits(a.Sum) == math.Float64bits(b.Sum) &&
			(a.Count == 0 || math.Float64bits(a.Min) == math.Float64bits(b.Min) && math.Float64bits(a.Max) == math.Float64bits(b.Max))
	}
	for qi, r := range rects {
		for _, op := range []index.AggOp{index.AggCount, index.AggSum, index.AggMin, index.AggMax, index.AggAvg} {
			for _, group := range []int{-1, 1} {
				spec := index.AggSpec{Op: op, Col: col, Group: group}
				batch, byRow := index.NewAggState(spec), index.NewAggState(spec)
				g.ScanBatch(r, batch.FoldBatch, nil)
				g.Scan(r, byRow.FoldRow, nil)
				ok := same(&batch.All, &byRow.All) && len(batch.Groups) == len(byRow.Groups)
				for k, c := range byRow.Groups {
					ok = ok && batch.Groups[k] != nil && same(batch.Groups[k], c)
				}
				if !ok {
					t.Fatalf("%s query %d %v group %d: FoldBatch %+v %v, FoldRow in scan order %+v %v",
						label, qi, op, group, batch.All, batch.Groups, byRow.All, byRow.Groups)
				}
			}
		}
	}
}

// TestScanBatchColumnTests: the kernel tests a page only on the columns
// its cell does not prove, so a rectangle whose sides on a grid axis are
// ±∞ or interior boundaries, and whose other side is on the sort column,
// tests no column at all; moving one side off a boundary, or closing the
// last slot, tests exactly that slot's rows on that one column.
func TestScanBatchColumnTests(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	tab := edgeTable(rng, 4000)
	g, err := gridfile.Build(tab, gridfile.Config{GridDims: []int{0, 1}, SortDim: 2, CellsPerDim: 6})
	if err != nil {
		t.Fatal(err)
	}
	mapped, _ := compressedGrid(t, g)
	b := g.ExportParts().Bounds[0]
	last := len(b) - 2
	for _, tc := range []struct {
		name     string
		min, max float64
		tested   int // the slot whose pages are tested on column 0, or -1
	}{
		{"proved", b[1], math.Inf(1), -1},
		{"first slot cut", b[1] + 0.5, math.Inf(1), 1},
		{"last slot closed", b[1], b[last+1], last},
	} {
		r := index.Full(tab.Dims())
		r.Min[0], r.Max[0] = tc.min, tc.max
		r.Min[2], r.Max[2] = 2, 7
		var scanned, tests int64
		for i := 0; i < tab.Len(); i++ {
			row := tab.Row(i)
			if s := gridfile.Slot(b, row[0]); s >= gridfile.Slot(b, tc.min) && row[2] >= 2 && row[2] <= 7 {
				scanned++
				if s == tc.tested {
					tests++
				}
			}
		}
		for _, e := range []*gridfile.GridFile{g, mapped} {
			var p index.Probe
			n := 0
			e.Scan(r, func([]float64) bool { n++; return true }, &p)
			if want := index.Count(scan.New(tab), r); n != want {
				t.Fatalf("%s, mapped %v: %d rows, full scan %d", tc.name, e.Mapped(), n, want)
			}
			if p.Scanned != scanned || p.ColumnTests != tests {
				t.Errorf("%s, mapped %v: %d column tests over %d rows scanned, want %d over %d",
					tc.name, e.Mapped(), p.ColumnTests, p.Scanned, tests, scanned)
			}
		}
	}
}
