package gridfile

import (
	"math/rand"
	"sort"
	"testing"

	"github.com/coax-index/coax/internal/dataset"
	"github.com/coax-index/coax/internal/index"
)

type benchGrid struct {
	name string
	g    *GridFile
	tab  *dataset.Table
}

// benchGrids are the two page shapes the mapped-cold workload serves: a
// primary-like grid of ~62-row pages, sorted in cell, and an outlier-like
// grid over every dimension whose pages hold about 2 rows.
func benchGrids(b *testing.B) []benchGrid {
	rng := rand.New(rand.NewSource(46))
	tab := randomTable(rng, 62*24*24, 3)
	primary, err := Build(tab, Config{GridDims: []int{0, 1}, SortDim: 2, CellsPerDim: 24})
	if err != nil {
		b.Fatal(err)
	}
	small := tab.Slice(0, 2*16*16*16)
	outliers, err := Build(small, Config{GridDims: []int{0, 1, 2}, SortDim: -1, CellsPerDim: 16})
	if err != nil {
		b.Fatal(err)
	}
	return []benchGrid{{"rows62", primary, tab}, {"rows2", outliers, small}}
}

// narrowRects are 64 random rectangles, each side drawn from the data's
// distribution and about one column in three left open.
func narrowRects(rng *rand.Rand, dims int) []index.Rect {
	rects := make([]index.Rect, 64)
	for i := range rects {
		rects[i] = randQueryRect(rng, dims)
	}
	return rects
}

// aggRects are 64 aggregate-shaped rectangles: each column constrained to a
// random window over a quarter of its values, so on a 24-cell axis the
// rectangle spans about six cells, most of which lie inside it.
func aggRects(rng *rand.Rand, tab *dataset.Table) []index.Rect {
	sorted := make([][]float64, tab.Dims())
	for d := range sorted {
		sorted[d] = tab.Column(d)
		sort.Float64s(sorted[d])
	}
	n := tab.Len()
	rects := make([]index.Rect, 64)
	for i := range rects {
		r := index.Full(tab.Dims())
		for d, col := range sorted {
			from := rng.Intn(n - n/4)
			r.Min[d], r.Max[d] = col[from], col[from+n/4-1]
		}
		rects[i] = r
	}
	return rects
}

// benchScan reports ns and column tests per row scanned over rects.
func benchScan(b *testing.B, rects []index.Rect, scan func(index.Rect, *index.Probe)) {
	var p index.Probe
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scan(rects[i%len(rects)], &p)
	}
	rows := float64(max(p.Scanned, 1))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/rows, "ns/row")
	b.ReportMetric(float64(p.ColumnTests)/rows, "column-tests/row")
}

func BenchmarkScan(b *testing.B) {
	for _, bg := range benchGrids(b) {
		g := bg.g
		b.Run(bg.name, func(b *testing.B) {
			n := 0
			benchScan(b, narrowRects(rand.New(rand.NewSource(47)), 3), func(r index.Rect, p *index.Probe) {
				g.Scan(r, func([]float64) bool { n++; return true }, p)
			})
		})
	}
}

// outOfCacheGrid is a primary-like grid far larger than an L2 cache: 2^20
// rows of 4 columns (32 MB) in 24×24 cells on columns 0 and 1, sorted in
// cell on column 2 — the shape of the OSM primary, whose pages hold about
// 1 800 rows. The grids of benchGrids fit in L2, where fetching a row's
// every column to test one costs little; here every page comes from L3 or
// memory, so the bytes a scan pulls per row are what it pays for.
func outOfCacheGrid(b *testing.B) benchGrid {
	tab := randomTable(rand.New(rand.NewSource(51)), 1<<20, 4)
	g, err := Build(tab, Config{GridDims: []int{0, 1}, SortDim: 2, CellsPerDim: 24})
	if err != nil {
		b.Fatal(err)
	}
	return benchGrid{"rows1800x1M", g, tab}
}

// BenchmarkScanBatch runs the batch scan over narrow rectangles on both
// page shapes, and over aggregate-shaped ones on the primary-like grid —
// the rectangles whose interior cells prove their grid axes, so their
// pages are tested on fewer columns. The last case folds SUM(column 3)
// over aggregate-shaped rectangles on the out-of-cache grid, as an
// aggregate query does: its ns/row includes fetching the tested and folded
// columns from beyond L2.
func BenchmarkScanBatch(b *testing.B) {
	grids := append(benchGrids(b), outOfCacheGrid(b))
	cases := []struct {
		name  string
		bg    benchGrid
		rects []index.Rect
		fold  bool
	}{
		{grids[0].name, grids[0], narrowRects(rand.New(rand.NewSource(47)), 3), false},
		{grids[1].name, grids[1], narrowRects(rand.New(rand.NewSource(47)), 3), false},
		{grids[0].name + "/agg", grids[0], aggRects(rand.New(rand.NewSource(50)), grids[0].tab), false},
		{grids[2].name + "/agg", grids[2], aggRects(rand.New(rand.NewSource(52)), grids[2].tab), true},
	}
	for _, tc := range cases {
		g := tc.bg.g
		b.Run(tc.name, func(b *testing.B) {
			n := 0
			yield := func(batch *index.Batch) bool { n += batch.Selected(); return true }
			if tc.fold {
				yield = index.NewAggState(index.AggSpec{Op: index.AggSum, Col: 3, Group: -1}).FoldBatch
			}
			benchScan(b, tc.rects, func(r index.Rect, p *index.Probe) { g.ScanBatch(r, yield, p) })
		})
	}
}

// BenchmarkBuild times a primary-like build (24×24 cells, sorted on the
// third column) over 200 k rows arriving in sort-column order or shuffled.
// Finish keeps each cell's rows in arrival order, so presorted input stays
// cheap to sort.
func BenchmarkBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(48))
	shuffled := randomTable(rng, 200_000, 3)
	rows := make([][]float64, shuffled.Len())
	for i := range rows {
		rows[i] = shuffled.Row(i)
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i][2] < rows[j][2] })
	presorted := dataset.NewTable(shuffled.Cols)
	for _, row := range rows {
		presorted.Append(row)
	}
	cfg := Config{GridDims: []int{0, 1}, SortDim: 2, CellsPerDim: 24}
	for _, tc := range []struct {
		name string
		tab  *dataset.Table
	}{{"presorted", presorted}, {"shuffled", shuffled}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := Build(tc.tab, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSampleBounds times Quantile placement at 24 cells over 500 k
// values: a continuous column (selection of the ranks the 25 boundaries
// interpolate between), a 20-value column (the distinct-value pass alone)
// and a presorted column.
func BenchmarkSampleBounds(b *testing.B) {
	const n = 500_000
	rng := rand.New(rand.NewSource(50))
	continuous, values20, presorted := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range continuous {
		continuous[i] = rng.NormFloat64() * 1e3
		values20[i] = float64(rng.Intn(20))
		presorted[i] = float64(i)
	}
	cfg := Config{CellsPerDim: 24, Mode: Quantile}
	for _, tc := range []struct {
		name string
		col  []float64
	}{{"continuous", continuous}, {"20-values", values20}, {"presorted", presorted}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := SampleBounds(tc.col, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
