package main

import (
	"fmt"
	"os"
	"strings"

	"github.com/coax-index/coax/internal/bench"
	"github.com/coax-index/coax/internal/core"
	"github.com/coax-index/coax/internal/dataset"
	"github.com/coax-index/coax/internal/gridfile"
	"github.com/coax-index/coax/internal/index"
	"github.com/coax-index/coax/internal/workload"
)

// runTable1 reproduces Table 1: dataset characteristics including the
// primary-index ratio at the default tolerance.
func (c *runContext) runTable1() {
	t := bench.NewTable("Table 1: dataset characteristics",
		"", "Airline", "OSM")

	air := c.airline()
	osm := c.osm()
	airIdx := c.buildCOAX(air, airlineOptions())
	osmIdx := c.buildCOAX(osm, osmOptions())
	airSt := airIdx.BuildStats()
	osmSt := osmIdx.BuildStats()

	t.Addf("Count", air.Len(), osm.Len())
	t.Add("Key Type", "float", "float")
	t.Addf("Dimensions", air.Dims(), osm.Dims())
	t.Add("Correlated Groups (predictor*)",
		describeGroups(airSt.Groups, air.Cols),
		describeGroups(osmSt.Groups, osm.Cols))
	t.Addf("Dependent Dimensions", airSt.DependentDims, osmSt.DependentDims)
	t.Addf("Indexed Dimensions (soft-FD index)", airSt.IndexedDims, osmSt.IndexedDims)
	t.Addf("Primary Grid Dimensions (n-m-1)", airSt.GridDims, osmSt.GridDims)
	t.Add("Primary Index Ratio",
		fmt.Sprintf("%.1f%%", airSt.PrimaryRatio*100),
		fmt.Sprintf("%.1f%%", osmSt.PrimaryRatio*100))
	t.Fprint(os.Stdout)
}

// runFig4a reproduces Figure 4a: the non-uniform distribution of page
// (cell) lengths of a 2-D grid over the skewed OSM coordinates.
func (c *runContext) runFig4a() {
	osm := c.osm()
	g, err := gridfile.Build(osm, gridfile.Config{
		GridDims:    []int{2, 3}, // lat, lon
		SortDim:     -1,
		CellsPerDim: 32,
		Mode:        gridfile.Quantile,
		Label:       "osm-2d",
	})
	if err != nil {
		fatalf("fig4a grid: %v", err)
	}
	sizes := g.CellSizes()
	maxSize := 0
	for _, s := range sizes {
		if s > maxSize {
			maxSize = s
		}
	}
	const bins = 16
	hist := make([]int, bins)
	for _, s := range sizes {
		b := s * bins / (maxSize + 1)
		hist[b]++
	}
	t := bench.NewTable("Figure 4a: distribution of 2-D grid page lengths (OSM lat/lon, 32x32 quantile grid)",
		"page length", "cells", "")
	histMax := 0
	for _, h := range hist {
		if h > histMax {
			histMax = h
		}
	}
	for b := 0; b < bins; b++ {
		lo := b * (maxSize + 1) / bins
		hi := (b+1)*(maxSize+1)/bins - 1
		bar := ""
		if histMax > 0 {
			bar = strings.Repeat("#", hist[b]*40/histMax)
		}
		t.Addf(fmt.Sprintf("%d-%d", lo, hi), hist[b], bar)
	}
	t.Fprint(os.Stdout)
}

// measurePartitions times COAX's two partitions separately (the "COAX
// (primary)" / "COAX (outliers)" series of Figures 6–8) through the
// accessors the benchmark harness uses: the primary grid scanned with the
// translated rectangle intersected with the query, the outlier index with
// the query itself.
func measurePartitions(cx *core.COAX, queries []index.Rect) (primary, outliers bench.QueryStats) {
	n := 0
	count := func([]float64) bool { n++; return true }
	primary = bench.Measure("COAX (primary)", queries, func(q index.Rect) int {
		n = 0
		if routed, feasible := cx.Translate(q); feasible && cx.Primary() != nil {
			cx.Primary().Scan(routed.Intersect(q), count, nil)
		}
		return n
	})
	outliers = bench.Measure("COAX (outliers)", queries, func(q index.Rect) int {
		n = 0
		if cx.Outliers() != nil {
			cx.Outliers().Scan(q, count, nil)
		}
		return n
	})
	return primary, outliers
}

// fig6Row measures every index on one workload and adds rows to the table.
func fig6Rows(t *bench.Table, label string, queries []index.Rect,
	cx *core.COAX, baselines []index.Interface) {
	p, o := measurePartitions(cx, queries)
	tot := bench.MeasureIndex(cx, queries)
	t.Add(label, "COAX (primary)", bench.FormatNs(p.AvgNs()), fmt.Sprint(p.Matches))
	t.Add("", "COAX (outliers)", bench.FormatNs(o.AvgNs()), fmt.Sprint(o.Matches))
	t.Add("", "COAX (total)", bench.FormatNs(tot.AvgNs()), fmt.Sprint(tot.Matches))
	for _, b := range baselines {
		s := bench.MeasureIndex(b, queries)
		t.Add("", b.Name(), bench.FormatNs(s.AvgNs()), fmt.Sprint(s.Matches))
	}
}

// runFig6 reproduces Figure 6: point- and range-query runtime on both
// datasets for COAX, R-Tree, Full Grid, and Full Scan.
func (c *runContext) runFig6() {
	t := bench.NewTable(
		fmt.Sprintf("Figure 6: query runtime (n=%d, %d queries, K=%d)", c.n, c.queries, c.k),
		"workload", "index", "avg/query", "matches")

	type ds struct {
		name string
		tab  *dataset.Table
		opt  core.Options
	}
	for _, d := range []ds{
		{"Airline", c.airline(), airlineOptions()},
		{"OSM", c.osm(), osmOptions()},
	} {
		cx := c.buildCOAX(d.tab, d.opt)
		baselines := []index.Interface{
			c.buildRTree(d.tab),
			c.buildFullGrid(d.tab),
			newScan(d.tab),
		}
		gen := workload.NewGenerator(d.tab, c.seed)
		fig6Rows(t, d.name+" (range)", gen.KNNRects(c.queries, c.k), cx, baselines)
		fig6Rows(t, d.name+" (point)", gen.PointQueries(c.queries), cx, baselines)
	}
	t.Fprint(os.Stdout)
}

// runFig7 reproduces Figure 7: range-query runtime across selectivities on
// the airline data, for COAX (primary/outliers), R-Tree, and Column Files.
// The paper's selectivities {35K, 150K, 750K, 1.5M} on 7M rows are scaled
// to the same fractions of -n.
func (c *runContext) runFig7() {
	air := c.airline()
	cx := c.buildCOAX(air, airlineOptions())
	rt := c.buildRTree(air)
	cf := c.buildColumnFiles(air)
	gen := workload.NewGenerator(air, c.seed)

	fractions := []struct {
		label string
		frac  float64
	}{
		{"35K/7M (0.5%)", 0.005},
		{"150K/7M (2.1%)", 0.0214},
		{"750K/7M (10.7%)", 0.107},
		{"1.5M/7M (21.4%)", 0.214},
	}
	t := bench.NewTable(
		fmt.Sprintf("Figure 7: runtime vs selectivity, airline (n=%d, %d queries/point)", c.n, c.queries),
		"selectivity", "index", "avg/query", "matches")
	for _, f := range fractions {
		target := int(f.frac * float64(air.Len()))
		if target < 1 {
			target = 1
		}
		qs, err := gen.SelectivityRects(c.queries, target)
		if err != nil {
			fatalf("fig7 workload: %v", err)
		}
		p, o := measurePartitions(cx, qs)
		rts := bench.MeasureIndex(rt, qs)
		cfs := bench.MeasureIndex(cf, qs)
		t.Add(f.label, "COAX (primary)", bench.FormatNs(p.AvgNs()), fmt.Sprint(p.Matches))
		t.Add("", "COAX (outliers)", bench.FormatNs(o.AvgNs()), fmt.Sprint(o.Matches))
		t.Add("", "RTree", bench.FormatNs(rts.AvgNs()), fmt.Sprint(rts.Matches))
		t.Add("", "ColumnFiles", bench.FormatNs(cfs.AvgNs()), fmt.Sprint(cfs.Matches))
	}
	t.Fprint(os.Stdout)
}

// newScan adapts a table to index.Interface without importing scan in
// every experiment file.
func newScan(t *dataset.Table) index.Interface { return scanOf(t) }
