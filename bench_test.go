// Package benchmarks holds one testing.B benchmark per table and figure of
// the paper's evaluation, plus ablations for the design decisions listed
// in DESIGN.md §5. Run with:
//
//	go test -bench=. -benchmem
//
// Custom metrics attached via b.ReportMetric carry the non-latency numbers
// (primary ratio, directory bytes, matches per query).
package benchmarks

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"github.com/coax-index/coax/internal/core"
	"github.com/coax-index/coax/internal/dataset"
	"github.com/coax-index/coax/internal/gridfile"
	"github.com/coax-index/coax/internal/index"
	"github.com/coax-index/coax/internal/rtree"
	"github.com/coax-index/coax/internal/scan"
	"github.com/coax-index/coax/internal/softfd"
	"github.com/coax-index/coax/internal/theory"
	"github.com/coax-index/coax/internal/unigrid"
	"github.com/coax-index/coax/internal/workload"
	"math/rand"
)

const benchRows = 100000

var (
	sink int

	benchOnce    sync.Once
	airlineTab   *dataset.Table
	osmTab       *dataset.Table
	airlineCOAX  *core.COAX
	osmCOAX      *core.COAX
	airlineRTree *rtree.RTree
	osmRTree     *rtree.RTree
	airlineGrid  *gridfile.GridFile
	osmGrid      *gridfile.GridFile

	airlineRange, airlinePoint []index.Rect
	osmRange, osmPoint         []index.Rect
)

func airlineOptions() core.Options {
	opt := core.DefaultOptions()
	opt.SoftFD.ExcludeCols = []int{dataset.AirDayOfWeek, dataset.AirCarrier}
	return opt
}

func setup(b *testing.B) {
	b.Helper()
	benchOnce.Do(func() {
		airlineTab = dataset.GenerateAirline(dataset.DefaultAirlineConfig(benchRows))
		osmTab = dataset.GenerateOSM(dataset.DefaultOSMConfig(benchRows))

		var err error
		airlineCOAX, err = core.Build(airlineTab, airlineOptions())
		if err != nil {
			panic(err)
		}
		osmCOAX, err = core.Build(osmTab, core.DefaultOptions())
		if err != nil {
			panic(err)
		}
		airlineRTree, err = rtree.Bulk(airlineTab, rtree.DefaultConfig())
		if err != nil {
			panic(err)
		}
		osmRTree, err = rtree.Bulk(osmTab, rtree.DefaultConfig())
		if err != nil {
			panic(err)
		}
		airlineGrid, err = unigrid.Build(airlineTab, 5)
		if err != nil {
			panic(err)
		}
		osmGrid, err = unigrid.Build(osmTab, 32)
		if err != nil {
			panic(err)
		}

		ag := workload.NewGenerator(airlineTab, 42)
		og := workload.NewGenerator(osmTab, 42)
		airlineRange = ag.KNNRects(64, 1000)
		airlinePoint = ag.PointQueries(64)
		osmRange = og.KNNRects(64, 1000)
		osmPoint = og.PointQueries(64)
	})
}

func benchQueries(b *testing.B, idx index.Interface, queries []index.Rect) {
	b.Helper()
	b.ResetTimer()
	matches := 0
	for i := 0; i < b.N; i++ {
		matches += index.Count(idx, queries[i%len(queries)])
	}
	sink = matches
	b.ReportMetric(float64(matches)/float64(b.N), "matches/query")
}

// BenchmarkTable1PrimaryRatio regenerates Table 1's primary-index ratios:
// the build cost is the measured operation, and the ratios are attached as
// metrics.
func BenchmarkTable1PrimaryRatio(b *testing.B) {
	setup(b)
	for i := 0; i < b.N; i++ {
		cx, err := core.Build(airlineTab, airlineOptions())
		if err != nil {
			b.Fatal(err)
		}
		st := cx.BuildStats()
		b.ReportMetric(st.PrimaryRatio, "airline-primary-ratio")
		b.ReportMetric(float64(st.DependentDims), "airline-dependent-dims")
	}
}

// BenchmarkFig4aPageLengths builds the 2-D OSM grid of Figure 4a and
// reports the skew of its page-length distribution.
func BenchmarkFig4aPageLengths(b *testing.B) {
	setup(b)
	for i := 0; i < b.N; i++ {
		g, err := gridfile.Build(osmTab, gridfile.Config{
			GridDims: []int{2, 3}, SortDim: -1, CellsPerDim: 32, Mode: gridfile.Quantile,
		})
		if err != nil {
			b.Fatal(err)
		}
		sizes := g.CellSizes()
		maxSize, sum := 0, 0
		for _, s := range sizes {
			sum += s
			if s > maxSize {
				maxSize = s
			}
		}
		mean := float64(sum) / float64(len(sizes))
		b.ReportMetric(float64(maxSize)/mean, "max/mean-page-length")
	}
}

// Figure 6: point and range queries on both datasets, one sub-benchmark
// per (workload, index) cell of the figure.
func BenchmarkFig6(b *testing.B) {
	setup(b)
	cases := []struct {
		name    string
		idx     index.Interface
		queries []index.Rect
	}{
		{"AirlineRange/COAX", airlineCOAX, airlineRange},
		{"AirlineRange/RTree", airlineRTree, airlineRange},
		{"AirlineRange/FullGrid", airlineGrid, airlineRange},
		{"AirlineRange/FullScan", scan.New(airlineTab), airlineRange},
		{"AirlinePoint/COAX", airlineCOAX, airlinePoint},
		{"AirlinePoint/RTree", airlineRTree, airlinePoint},
		{"AirlinePoint/FullGrid", airlineGrid, airlinePoint},
		{"AirlinePoint/FullScan", scan.New(airlineTab), airlinePoint},
		{"OSMRange/COAX", osmCOAX, osmRange},
		{"OSMRange/RTree", osmRTree, osmRange},
		{"OSMRange/FullGrid", osmGrid, osmRange},
		{"OSMRange/FullScan", scan.New(osmTab), osmRange},
		{"OSMPoint/COAX", osmCOAX, osmPoint},
		{"OSMPoint/RTree", osmRTree, osmPoint},
		{"OSMPoint/FullGrid", osmGrid, osmPoint},
		{"OSMPoint/FullScan", scan.New(osmTab), osmPoint},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) { benchQueries(b, c.idx, c.queries) })
	}
}

// Figure 7: range queries at the paper's four selectivity levels on the
// airline data, COAX vs R-Tree vs Column Files.
func BenchmarkFig7Selectivity(b *testing.B) {
	setup(b)
	gen := workload.NewGenerator(airlineTab, 7)
	cf, err := gridfile.Build(airlineTab, gridfile.Config{
		GridDims: []int{1, 2, 3, 4, 5, 6, 7}, SortDim: 0,
		CellsPerDim: 4, Mode: gridfile.Quantile, Label: "ColumnFiles",
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, sel := range []struct {
		name string
		frac float64
	}{
		{"0.5pct", 0.005}, {"2.1pct", 0.0214}, {"10.7pct", 0.107}, {"21.4pct", 0.214},
	} {
		target := int(sel.frac * float64(airlineTab.Len()))
		queries, err := gen.SelectivityRects(32, target)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(sel.name+"/COAX", func(b *testing.B) { benchQueries(b, airlineCOAX, queries) })
		b.Run(sel.name+"/RTree", func(b *testing.B) { benchQueries(b, airlineRTree, queries) })
		b.Run(sel.name+"/ColumnFiles", func(b *testing.B) { benchQueries(b, cf, queries) })
	}
}

// Figure 8: the runtime/memory trade-off — each sub-benchmark reports its
// directory bytes (COAX also its primary and outlier directories' shares)
// as metrics next to its latency. PrimaryCellsPerDim caps each primary
// axis; a column with fewer values than the cap (airline's dayofweek has 7,
// carrier 18) gets one cell per value.
func BenchmarkFig8MemoryTradeoff(b *testing.B) {
	setup(b)
	for _, cells := range []int{4, 16, 64} {
		opt := airlineOptions()
		opt.PrimaryCellsPerDim = cells
		cx, err := core.Build(airlineTab, opt)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(sprintfCells("COAX", cells), func(b *testing.B) {
			benchQueries(b, cx, airlineRange) // resets the timer, which drops metrics reported before it
			b.ReportMetric(float64(cx.MemoryOverhead()), "dir-bytes")
			b.ReportMetric(float64(cx.PrimaryMemoryOverhead()), "primary-dir-bytes")
			b.ReportMetric(float64(cx.OutlierMemoryOverhead()), "outlier-dir-bytes")
		})
	}
	for _, capEntries := range []int{4, 16, 32} {
		rt, err := rtree.Bulk(airlineTab, rtree.Config{MaxEntries: capEntries})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(sprintfCells("RTree", capEntries), func(b *testing.B) {
			benchQueries(b, rt, airlineRange)
			b.ReportMetric(float64(rt.MemoryOverhead()), "dir-bytes")
		})
	}
}

func sprintfCells(prefix string, n int) string {
	return prefix + "/" + itoa(n)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// Ablation: in-cell sorted dimension on vs off (DESIGN.md §5). Without the
// sorted dimension the primary grid needs an extra grid axis and loses the
// binary-search entry point.
func BenchmarkAblationSortedDim(b *testing.B) {
	setup(b)
	on := airlineCOAX
	optOff := airlineOptions()
	optOff.DisableSortDim = true
	off, err := core.Build(airlineTab, optOff)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("SortedDimOn", func(b *testing.B) { benchQueries(b, on, airlineRange) })
	b.Run("SortedDimOff", func(b *testing.B) { benchQueries(b, off, airlineRange) })
}

// Ablation: R-tree vs grid-file outlier index.
func BenchmarkAblationOutlierKind(b *testing.B) {
	setup(b)
	optRT := airlineOptions()
	optRT.OutlierKind = core.OutlierRTree
	rtVariant, err := core.Build(airlineTab, optRT)
	if err != nil {
		b.Fatal(err)
	}
	optGrid := airlineOptions()
	optGrid.OutlierKind = core.OutlierGrid
	gridVariant, err := core.Build(airlineTab, optGrid)
	if err != nil {
		b.Fatal(err)
	}
	for _, v := range []struct {
		name string
		cx   *core.COAX
	}{{"OutlierRTree", rtVariant}, {"OutlierGrid", gridVariant}} {
		b.Run(v.name, func(b *testing.B) {
			benchQueries(b, v.cx, airlineRange)
			b.ReportMetric(float64(v.cx.MemoryOverhead()), "dir-bytes")
			b.ReportMetric(float64(v.cx.OutlierMemoryOverhead()), "outlier-dir-bytes")
		})
	}
}

// Ablation: query translation on vs off. "Off" probes the primary index
// with the dependent constraints stripped (no predictor tightening) and
// re-filters rows, which is what a correlation-oblivious reduced index
// would have to do.
func BenchmarkAblationTranslation(b *testing.B) {
	setup(b)
	deps := airlineCOAX.FD().DependentColumns()
	stripped := make([]index.Rect, len(airlineRange))
	for i, q := range airlineRange {
		s := q.Clone()
		for d := range deps {
			s.Min[d] = math.Inf(-1)
			s.Max[d] = math.Inf(1)
		}
		stripped[i] = s
	}
	b.Run("WithTranslation", func(b *testing.B) { benchQueries(b, airlineCOAX, airlineRange) })
	b.Run("WithoutTranslation", func(b *testing.B) {
		b.ResetTimer()
		matches := 0
		for i := 0; i < b.N; i++ {
			orig := airlineRange[i%len(airlineRange)]
			probe := stripped[i%len(stripped)]
			n := 0
			if p := airlineCOAX.Primary(); p != nil {
				p.Scan(probe, func(row []float64) bool {
					if orig.Contains(row) {
						n++
					}
					return true
				}, nil)
			}
			if o := airlineCOAX.Outliers(); o != nil {
				o.Scan(orig, func([]float64) bool { n++; return true }, nil)
			}
			matches += n
		}
		sink = matches
	})
}

// Theorem 7.1 as a benchmark: mean first-exit-time measurement, with the
// theoretical prediction attached for comparison.
func BenchmarkTheoremMFET(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	dist := theory.GapDist{Kind: theory.GapNormal, Mu: 1, Sigma: 0.5}
	const eps = 10.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := theory.MeasureMFET(dist, dist.Mu, eps, 200, rng)
		b.ReportMetric(m.Mean, "measured-keys/segment")
		b.ReportMetric(theory.TheoremMFET(eps, dist.Sigma), "theory-keys/segment")
	}
}

// Build-cost benchmarks: how expensive is learning + splitting + packing.
func BenchmarkBuildCOAXAirline(b *testing.B) {
	setup(b)
	for i := 0; i < b.N; i++ {
		if _, err := core.Build(airlineTab, airlineOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildRTreeAirline(b *testing.B) {
	setup(b)
	for i := 0; i < b.N; i++ {
		if _, err := rtree.Bulk(airlineTab, rtree.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSoftFDDetect(b *testing.B) {
	setup(b)
	cfg := softfd.DefaultConfig()
	cfg.ExcludeCols = []int{dataset.AirDayOfWeek, dataset.AirCarrier}
	for i := 0; i < b.N; i++ {
		if _, err := softfd.Detect(airlineTab, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryV2Limit measures early termination: a row fold keeping and
// stopping at k rows versus one keeping every match of the same broad
// rectangle, on the airline COAX index.
func BenchmarkQueryV2Limit(b *testing.B) {
	setup(b)
	gen := workload.NewGenerator(airlineTab, 7)
	rects := gen.KNNRects(32, 5000)
	collect := func(b *testing.B, keep index.RowsState) {
		rows := 0
		for i := 0; i < b.N; i++ {
			st := keep
			airlineCOAX.ExecAgg(rects[i%len(rects)], index.Spec{}, &st, nil)
			rows += st.Held()
		}
		sink = rows
	}
	for _, k := range []int{1, 10, 100} {
		b.Run(fmt.Sprintf("limit-%d", k), func(b *testing.B) { collect(b, index.RowsState{Keep: k, Limit: k}) })
	}
	b.Run("full-collect", func(b *testing.B) { collect(b, index.RowsState{Keep: -1}) })
}
