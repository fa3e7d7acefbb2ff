// Package benchmarks reproduces the paper's evaluation (§8): one testing.B
// benchmark per table, figure, equation and theorem, plus ablations of
// COAX's design decisions. README.md's "Reproducing the paper (§8)" maps
// each of them to its metrics. Run with:
//
//	go test -run NONE -bench . -benchtime 1x .
//
// Custom metrics attached via b.ReportMetric carry the non-latency numbers
// (primary ratio, directory bytes, matches per query, theory against
// measurement, the headline ratios). Absolute latencies depend on the
// machine; the claim shapes (who wins, by what factor) are what the paper
// reports.
package benchmarks

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/coax-index/coax/internal/core"
	"github.com/coax-index/coax/internal/dataset"
	"github.com/coax-index/coax/internal/gridfile"
	"github.com/coax-index/coax/internal/index"
	"github.com/coax-index/coax/internal/rtree"
	"github.com/coax-index/coax/internal/scan"
	"github.com/coax-index/coax/internal/softfd"
	"github.com/coax-index/coax/internal/theory"
	"github.com/coax-index/coax/internal/workload"
)

const benchRows = 100000

var (
	sink int

	benchOnce    sync.Once
	benchErr     error
	airline, osm *benchData
)

// benchData is one dataset with its COAX index, the paper's baselines and
// its query workloads.
type benchData struct {
	name string
	tab  *dataset.Table
	opt  core.Options

	coax  *core.COAX
	rtree *rtree.RTree
	grid  *gridfile.GridFile // Full Grid
	cols  *gridfile.GridFile // Column Files

	rangeQ, pointQ []index.Rect
}

func airlineOptions() core.Options {
	opt := core.DefaultOptions()
	opt.SoftFD.ExcludeCols = []int{dataset.AirDayOfWeek, dataset.AirCarrier}
	return opt
}

func setup(b *testing.B) {
	b.Helper()
	benchOnce.Do(func() {
		airline, benchErr = newBenchData("Airline", dataset.GenerateAirline(dataset.DefaultAirlineConfig(benchRows)), airlineOptions())
		if benchErr == nil {
			osm, benchErr = newBenchData("OSM", dataset.GenerateOSM(dataset.DefaultOSMConfig(benchRows)), core.DefaultOptions())
		}
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
}

// newBenchData builds every index over tab and draws its workloads. The
// baseline grids take as many cells per axis as §8.2.1's memory rule
// allows.
func newBenchData(name string, tab *dataset.Table, opt core.Options) (*benchData, error) {
	d := &benchData{name: name, tab: tab, opt: opt}
	var err error
	if d.coax, err = core.Build(tab, opt); err != nil {
		return nil, err
	}
	if d.rtree, err = rtree.Bulk(tab, rtree.DefaultConfig()); err != nil {
		return nil, err
	}
	n := tab.Dims()
	if d.grid, err = buildBaseline(tab, fullGrid(n, gridfile.DirectoryBoundedCells(n, tab.SizeBytes()))); err != nil {
		return nil, err
	}
	if d.cols, err = buildBaseline(tab, columnFiles(n, gridfile.DirectoryBoundedCells(n-1, tab.SizeBytes()))); err != nil {
		return nil, err
	}
	gen := workload.NewGenerator(tab, 42)
	d.rangeQ = gen.KNNRects(64, 1000)
	d.pointQ = gen.PointQueries(64)
	return d, nil
}

// fullGrid is the Full Grid baseline of §8.1.3: every column cut into
// cells equal-width cells, with no order inside a cell.
func fullGrid(dims, cells int) gridfile.Config {
	return gridfile.Config{
		GridDims: columns(dims, -1), SortDim: -1,
		CellsPerDim: cells, Mode: gridfile.Uniform, Label: "FullGrid",
	}
}

// columnFiles is the Column Files baseline of §8.1.3: quantile cells on
// every column but the first, and the rows of a cell sorted on the first.
func columnFiles(dims, cells int) gridfile.Config {
	return gridfile.Config{
		GridDims: columns(dims, 0), SortDim: 0,
		CellsPerDim: cells, Mode: gridfile.Quantile, Label: "ColumnFiles",
	}
}

// columns lists the columns 0..dims-1 other than skip.
func columns(dims, skip int) []int {
	out := make([]int, 0, dims)
	for i := range dims {
		if i != skip {
			out = append(out, i)
		}
	}
	return out
}

// buildBaseline builds a baseline grid and holds it to §8.2.1's memory
// rule: its directory must not outweigh the table it indexes.
func buildBaseline(tab *dataset.Table, cfg gridfile.Config) (*gridfile.GridFile, error) {
	g, err := gridfile.Build(tab, cfg)
	if err != nil {
		return nil, err
	}
	if g.MemoryOverhead() > tab.SizeBytes() {
		return nil, fmt.Errorf("%s at %d cells per axis: directory %d B exceeds the table's %d B",
			cfg.Label, cfg.CellsPerDim, g.MemoryOverhead(), tab.SizeBytes())
	}
	return g, nil
}

// benchCount times count over the queries in turn and reports the matches
// per query and the directory bytes of the structure it probes.
func benchCount(b *testing.B, queries []index.Rect, dirBytes int64, count func(index.Rect) int) {
	b.Helper()
	b.ResetTimer()
	matches := 0
	for i := 0; i < b.N; i++ {
		matches += count(queries[i%len(queries)])
	}
	sink = matches
	b.ReportMetric(float64(matches)/float64(b.N), "matches/query")
	b.ReportMetric(float64(dirBytes), "dir-bytes")
}

func benchQueries(b *testing.B, idx index.Interface, queries []index.Rect) {
	b.Helper()
	benchCount(b, queries, idx.MemoryOverhead(), func(q index.Rect) int { return index.Count(idx, q) })
}

// benchPartitions runs the "COAX (primary)" and "COAX (outliers)" series
// of Figures 6 and 7: the primary grid probed with the translated
// rectangle clipped to the query, the outlier index with the query itself.
func benchPartitions(b *testing.B, cx *core.COAX, queries []index.Rect) {
	b.Run("COAXPrimary", func(b *testing.B) {
		benchCount(b, queries, cx.PrimaryMemoryOverhead(), func(q index.Rect) int {
			routed, feasible := cx.Translate(q)
			if !feasible || cx.Primary() == nil {
				return 0
			}
			return index.Count(cx.Primary(), routed.Intersect(q))
		})
	})
	b.Run("COAXOutliers", func(b *testing.B) {
		benchCount(b, queries, cx.OutlierMemoryOverhead(), func(q index.Rect) int {
			if cx.Outliers() == nil {
				return 0
			}
			return index.Count(cx.Outliers(), q)
		})
	})
}

// BenchmarkTable1 regenerates Table 1 for both datasets: the build is the
// measured operation, and the table's columns are attached as metrics
// (the correlated groups, predictor starred, go to the log).
func BenchmarkTable1(b *testing.B) {
	setup(b)
	for _, d := range []*benchData{airline, osm} {
		b.Run(d.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cx, err := core.Build(d.tab, d.opt)
				if err != nil {
					b.Fatal(err)
				}
				st := cx.BuildStats()
				b.ReportMetric(float64(st.Rows), "rows")
				b.ReportMetric(float64(st.Dims), "dims")
				b.ReportMetric(float64(len(st.Groups)), "fd-groups")
				b.ReportMetric(float64(st.DependentDims), "dependent-dims")
				b.ReportMetric(float64(st.IndexedDims), "indexed-dims")
				b.ReportMetric(float64(st.GridDims), "grid-dims")
				b.ReportMetric(st.PrimaryRatio, "primary-ratio")
				if i == 0 {
					b.Logf("correlated groups: %s", describeGroups(st.Groups, d.tab.Cols))
				}
			}
		})
	}
}

// describeGroups renders groups as "(a*, b, c); (d*, e)", the predictor
// of each group starred.
func describeGroups(groups []softfd.Group, cols []string) string {
	if len(groups) == 0 {
		return "none"
	}
	var parts []string
	for _, g := range groups {
		names := make([]string, len(g.Members))
		for j, m := range g.Members {
			names[j] = cols[m]
			if m == g.Predictor {
				names[j] += "*"
			}
		}
		parts = append(parts, "("+strings.Join(names, ", ")+")")
	}
	return strings.Join(parts, "; ")
}

// BenchmarkFig4aPageLengths builds the 2-D OSM grid of Figure 4a (lat/lon,
// 32×32 quantile cells) and summarises its page-length distribution.
func BenchmarkFig4aPageLengths(b *testing.B) {
	setup(b)
	for i := 0; i < b.N; i++ {
		g, err := gridfile.Build(osm.tab, gridfile.Config{
			GridDims: []int{2, 3}, SortDim: -1, CellsPerDim: 32, Mode: gridfile.Quantile,
		})
		if err != nil {
			b.Fatal(err)
		}
		sizes := slices.Clone(g.CellSizes())
		slices.Sort(sizes)
		empty := 0
		for _, s := range sizes {
			if s == 0 {
				empty++
			}
		}
		at := func(q float64) float64 { return float64(sizes[int(q*float64(len(sizes)-1))]) }
		mean := float64(osm.tab.Len()) / float64(len(sizes))
		b.ReportMetric(float64(len(sizes)), "pages")
		b.ReportMetric(float64(empty)/float64(len(sizes)), "empty-page-share")
		b.ReportMetric(mean, "mean-page-length")
		b.ReportMetric(at(0.5), "p50-page-length")
		b.ReportMetric(at(0.9), "p90-page-length")
		b.ReportMetric(at(0.99), "p99-page-length")
		b.ReportMetric(at(1), "max-page-length")
		b.ReportMetric(at(1)/mean, "max/mean-page-length")
	}
}

// Figure 6: point and range queries on both datasets, one sub-benchmark
// per (workload, index) cell of the figure, COAX's two partitions apart.
func BenchmarkFig6(b *testing.B) {
	setup(b)
	for _, d := range []*benchData{airline, osm} {
		for _, w := range []struct {
			name    string
			queries []index.Rect
		}{{"Range", d.rangeQ}, {"Point", d.pointQ}} {
			b.Run(d.name+w.name, func(b *testing.B) {
				for _, idx := range []index.Interface{d.coax, d.rtree, d.grid, scan.New(d.tab)} {
					b.Run(idx.Name(), func(b *testing.B) { benchQueries(b, idx, w.queries) })
				}
				benchPartitions(b, d.coax, w.queries)
			})
		}
	}
}

// Figure 7: range queries at the paper's four selectivity levels on the
// airline data ({35K, 150K, 750K, 1.5M} of 7M rows, as fractions of
// benchRows), COAX vs R-Tree vs Column Files.
func BenchmarkFig7Selectivity(b *testing.B) {
	setup(b)
	gen := workload.NewGenerator(airline.tab, 7)
	for _, sel := range []struct {
		name string
		frac float64
	}{
		{"0.5pct", 0.005}, {"2.1pct", 0.0214}, {"10.7pct", 0.107}, {"21.4pct", 0.214},
	} {
		target := int(sel.frac * float64(airline.tab.Len()))
		queries, err := gen.SelectivityRects(32, target)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(sel.name, func(b *testing.B) {
			for _, idx := range []index.Interface{airline.coax, airline.rtree, airline.cols} {
				b.Run(idx.Name(), func(b *testing.B) { benchQueries(b, idx, queries) })
			}
			benchPartitions(b, airline.coax, queries)
		})
	}
}

// Figure 8: the runtime/memory trade-off on both datasets — each
// sub-benchmark reports its directory bytes (COAX also its primary and
// outlier directories' shares) next to its latency. PrimaryCellsPerDim
// caps each primary axis; a column with fewer values than the cap
// (airline's dayofweek has 7, carrier 18) gets one cell per value. The
// Column Files series ends at the memory rule's cell count.
func BenchmarkFig8MemoryTradeoff(b *testing.B) {
	setup(b)
	for _, d := range []*benchData{airline, osm} {
		for _, cells := range []int{4, 16, 64} {
			opt := d.opt
			opt.PrimaryCellsPerDim = cells
			cx, err := core.Build(d.tab, opt)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/COAX/%d", d.name, cells), func(b *testing.B) {
				benchQueries(b, cx, d.rangeQ) // resets the timer, which drops metrics reported before it
				b.ReportMetric(float64(cx.PrimaryMemoryOverhead()), "primary-dir-bytes")
				b.ReportMetric(float64(cx.OutlierMemoryOverhead()), "outlier-dir-bytes")
			})
		}
		bound := gridfile.DirectoryBoundedCells(d.tab.Dims()-1, d.tab.SizeBytes())
		sweep := slices.DeleteFunc([]int{2, 4, 8, 16, 32, 64}, func(c int) bool { return c >= bound })
		for _, cells := range append(sweep, bound) {
			cf, err := buildBaseline(d.tab, columnFiles(d.tab.Dims(), cells))
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/ColumnFiles/%d", d.name, cells), func(b *testing.B) { benchQueries(b, cf, d.rangeQ) })
		}
		for _, capEntries := range []int{4, 16, 32} {
			rt, err := rtree.Bulk(d.tab, rtree.Config{MaxEntries: capEntries})
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/RTree/%d", d.name, capEntries), func(b *testing.B) { benchQueries(b, rt, d.rangeQ) })
		}
	}
}

// rangeTimes times COAX, the R-tree and the full grid on each range
// rectangle in turn, so that a drift of the machine during the loop falls
// on all three alike.
func (d *benchData) rangeTimes() (coaxT, rtreeT, gridT time.Duration) {
	for _, q := range d.rangeQ {
		t0 := time.Now()
		sink += index.Count(d.coax, q)
		t1 := time.Now()
		sink += index.Count(d.rtree, q)
		t2 := time.Now()
		sink += index.Count(d.grid, q)
		coaxT, rtreeT, gridT = coaxT+t1.Sub(t0), rtreeT+t2.Sub(t1), gridT+time.Since(t2)
	}
	return coaxT, rtreeT, gridT
}

// BenchmarkHeadline measures the paper's two headline claims on the
// airline data: lookups about 25 % faster than the best conventional
// baseline, and a directory orders of magnitude smaller. The paper.*
// metrics are the quantities bench/coaxperf's trace reports under the
// same names on the served index.
func BenchmarkHeadline(b *testing.B) {
	setup(b)
	var coaxT, rtreeT, gridT time.Duration
	for i := 0; i < b.N; i++ {
		c, r, g := airline.rangeTimes()
		coaxT, rtreeT, gridT = coaxT+c, rtreeT+r, gridT+g
	}
	queries := float64(b.N * len(airline.rangeQ))
	b.ReportMetric(float64(coaxT.Nanoseconds())/queries, "coax-ns/query")
	b.ReportMetric(float64(rtreeT.Nanoseconds())/queries, "rtree-ns/query")
	b.ReportMetric(float64(gridT.Nanoseconds())/queries, "fullgrid-ns/query")
	b.ReportMetric(float64(rtreeT)/float64(coaxT), "paper.coax_vs_rtree_speedup")
	b.ReportMetric(float64(gridT)/float64(coaxT), "paper.coax_vs_fullgrid_speedup")
	b.ReportMetric(float64(min(rtreeT, gridT))/float64(coaxT), "coax-vs-best-baseline-speedup")
	dir := float64(airline.coax.MemoryOverhead())
	b.ReportMetric(dir, "coax-dir-bytes")
	b.ReportMetric(float64(airline.rtree.MemoryOverhead()), "rtree-dir-bytes")
	b.ReportMetric(float64(airline.grid.MemoryOverhead()), "fullgrid-dir-bytes")
	b.ReportMetric(float64(airline.rtree.MemoryOverhead())/dir, "paper.rtree_over_coax_overhead")
	b.ReportMetric(float64(airline.grid.MemoryOverhead())/dir, "fullgrid-over-coax-overhead")
}

// Ablation: in-cell sorted dimension on vs off. Without the sorted
// dimension the primary grid needs an extra grid axis and loses the
// binary-search entry point.
func BenchmarkAblationSortedDim(b *testing.B) {
	setup(b)
	optOff := airlineOptions()
	optOff.DisableSortDim = true
	off, err := core.Build(airline.tab, optOff)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("SortedDimOn", func(b *testing.B) { benchQueries(b, airline.coax, airline.rangeQ) })
	b.Run("SortedDimOff", func(b *testing.B) { benchQueries(b, off, airline.rangeQ) })
}

// Ablation: R-tree vs grid-file outlier index. Both variants answer from
// the same build: the primary probed with the translated rectangle clipped
// to the query, as core's plan does, and the outliers with the query
// itself — from the index's own outlier grid, or from an STR R-tree
// bulk-loaded over the same outlier rows.
func BenchmarkAblationOutlierKind(b *testing.B) {
	setup(b)
	cx := airline.coax
	rows := dataset.NewTable(airline.tab.Cols)
	if o := cx.Outliers(); o != nil {
		o.Scan(index.Full(cx.Dims()), func(row []float64) bool { rows.Append(row); return true }, nil)
	}
	rt, err := rtree.Bulk(rows, rtree.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	for _, v := range []struct {
		name     string
		outliers index.Interface
	}{{"OutlierRTree", rt}, {"OutlierGrid", cx.Outliers()}} {
		b.Run(v.name, func(b *testing.B) {
			overhead := cx.PrimaryMemoryOverhead()
			if v.outliers != nil {
				overhead += v.outliers.MemoryOverhead()
			}
			benchCount(b, airline.rangeQ, overhead, func(q index.Rect) int {
				n := 0
				if routed, feasible := cx.Translate(q); feasible && cx.Primary() != nil {
					n = index.Count(cx.Primary(), routed.Intersect(q))
				}
				if v.outliers != nil {
					n += index.Count(v.outliers, q)
				}
				return n
			})
			if v.outliers != nil {
				b.ReportMetric(float64(v.outliers.MemoryOverhead()), "outlier-dir-bytes")
			}
		})
	}
}

// Ablation: query translation on vs off. "Off" probes the primary index
// with the dependent constraints stripped (no predictor tightening) and
// re-filters rows, which is what a correlation-oblivious reduced index
// would have to do.
func BenchmarkAblationTranslation(b *testing.B) {
	setup(b)
	cx, queries := airline.coax, airline.rangeQ
	deps := cx.FD().DependentColumns()
	stripped := make([]index.Rect, len(queries))
	for i, q := range queries {
		s := q.Clone()
		for d := range deps {
			s.Min[d] = math.Inf(-1)
			s.Max[d] = math.Inf(1)
		}
		stripped[i] = s
	}
	b.Run("WithTranslation", func(b *testing.B) { benchQueries(b, cx, queries) })
	b.Run("WithoutTranslation", func(b *testing.B) {
		b.ResetTimer()
		matches := 0
		for i := 0; i < b.N; i++ {
			orig := queries[i%len(queries)]
			probe := stripped[i%len(stripped)]
			n := 0
			if p := cx.Primary(); p != nil {
				p.Scan(probe, func(row []float64) bool {
					if orig.Contains(row) {
						n++
					}
					return true
				}, nil)
			}
			if o := cx.Outliers(); o != nil {
				o.Scan(orig, func([]float64) bool { n++; return true }, nil)
			}
			matches += n
		}
		sink = matches
	})
}

// BenchmarkEq5Effectiveness checks Eq. 5, effectiveness = qy/(2ε+qy),
// against a simulation of the translated scan over a band of 200 000
// points.
func BenchmarkEq5Effectiveness(b *testing.B) {
	for _, eps := range []float64{5, 20, 50, 100, 200} {
		for _, qy := range []float64{100, 400} {
			b.Run(fmt.Sprintf("eps=%g/qy=%g", eps, qy), func(b *testing.B) {
				rng := rand.New(rand.NewSource(42))
				for i := 0; i < b.N; i++ {
					sim, err := theory.EmpiricalEffectiveness(2, eps, qy, 10000, 200000, rng)
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(sim, "simulated-effectiveness")
					b.ReportMetric(theory.Effectiveness(qy, eps), "theory-effectiveness")
				}
			})
		}
	}
}

// Theorems 7.1 and 7.3: mean and variance of the keys one linear segment
// covers (the first exit time of the CSM random walk), measured over 2 000
// walks with the theorems' predictions attached.
func BenchmarkTheoremMFET(b *testing.B) {
	dist := theory.GapDist{Kind: theory.GapNormal, Mu: 1, Sigma: 0.5}
	for _, eps := range []float64{5, 10, 20, 40} {
		b.Run(fmt.Sprintf("eps=%g", eps), func(b *testing.B) {
			rng := rand.New(rand.NewSource(42))
			for i := 0; i < b.N; i++ {
				m := theory.MeasureMFET(dist, dist.Mu, eps, 2000, rng)
				b.ReportMetric(m.Mean, "measured-keys/segment")
				b.ReportMetric(theory.TheoremMFET(eps, dist.Sigma), "theory-keys/segment")
				b.ReportMetric(m.Variance, "measured-variance")
				b.ReportMetric(theory.TheoremMFETVariance(eps, dist.Sigma), "theory-variance")
			}
		})
	}
}

// Theorem 7.4: the segments needed to cover a stream of n keys, n·σ²/ε².
func BenchmarkTheoremSegments(b *testing.B) {
	dist := theory.GapDist{Kind: theory.GapNormal, Mu: 1, Sigma: 0.5}
	for _, n := range []int{100000, 1000000} {
		for _, eps := range []float64{5, 10, 20} {
			b.Run(fmt.Sprintf("n=%d/eps=%g", n, eps), func(b *testing.B) {
				rng := rand.New(rand.NewSource(42))
				for i := 0; i < b.N; i++ {
					b.ReportMetric(float64(theory.CountSegments(dist, dist.Mu, eps, n, rng)), "measured-segments")
					b.ReportMetric(theory.TheoremSegments(n, eps, dist.Sigma), "theory-segments")
				}
			})
		}
	}
}

// Build-cost benchmarks: how expensive is learning + splitting + packing.
func BenchmarkBuildCOAXAirline(b *testing.B) {
	setup(b)
	for i := 0; i < b.N; i++ {
		if _, err := core.Build(airline.tab, airlineOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildRTreeAirline(b *testing.B) {
	setup(b)
	for i := 0; i < b.N; i++ {
		if _, err := rtree.Bulk(airline.tab, rtree.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSoftFDDetect(b *testing.B) {
	setup(b)
	cfg := softfd.DefaultConfig()
	cfg.ExcludeCols = []int{dataset.AirDayOfWeek, dataset.AirCarrier}
	for i := 0; i < b.N; i++ {
		if _, err := softfd.Detect(airline.tab, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryV2Limit measures early termination: a row fold keeping and
// stopping at k rows versus one keeping every match of the same broad
// rectangle, on the airline COAX index.
func BenchmarkQueryV2Limit(b *testing.B) {
	setup(b)
	gen := workload.NewGenerator(airline.tab, 7)
	rects := gen.KNNRects(32, 5000)
	collect := func(b *testing.B, keep index.RowsState) {
		rows := 0
		for i := 0; i < b.N; i++ {
			st := keep
			airline.coax.ExecAgg(rects[i%len(rects)], index.Spec{}, &st, nil)
			rows += st.Held()
		}
		sink = rows
	}
	for _, k := range []int{1, 10, 100} {
		b.Run(fmt.Sprintf("limit-%d", k), func(b *testing.B) { collect(b, index.RowsState{Keep: k, Limit: k}) })
	}
	b.Run("full-collect", func(b *testing.B) { collect(b, index.RowsState{Keep: -1}) })
}
