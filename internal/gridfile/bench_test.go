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
	outliers, err := Build(tab.Slice(0, 2*16*16*16), Config{GridDims: []int{0, 1, 2}, SortDim: -1, CellsPerDim: 16})
	if err != nil {
		b.Fatal(err)
	}
	return []benchGrid{{"rows62", primary}, {"rows2", outliers}}
}

// benchScan reports ns per row scanned over a fixed set of rectangles.
func benchScan(b *testing.B, scan func(index.Rect, *index.Probe)) {
	rng := rand.New(rand.NewSource(47))
	rects := make([]index.Rect, 64)
	for i := range rects {
		rects[i] = randQueryRect(rng, 3)
	}
	var p index.Probe
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scan(rects[i%len(rects)], &p)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(max(p.Scanned, 1)), "ns/row")
}

func BenchmarkScan(b *testing.B) {
	for _, bg := range benchGrids(b) {
		g := bg.g
		b.Run(bg.name, func(b *testing.B) {
			n := 0
			benchScan(b, func(r index.Rect, p *index.Probe) {
				g.Scan(r, func([]float64) bool { n++; return true }, p)
			})
		})
	}
}

func BenchmarkScanBatch(b *testing.B) {
	for _, bg := range benchGrids(b) {
		g := bg.g
		b.Run(bg.name, func(b *testing.B) {
			n := 0
			benchScan(b, func(r index.Rect, p *index.Probe) {
				g.ScanBatch(r, func(batch *index.Batch) bool { n += batch.Selected(); return true }, p)
			})
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
