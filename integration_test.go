package benchmarks

import (
	"math"
	"math/rand"
	"strings"
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
	"github.com/coax-index/coax/internal/workload"
)

// TestAllIndexesAgreeOnAirline is the cross-system integration test: every
// index in the repository answers the same workloads over the same data
// and must produce identical counts.
func TestAllIndexesAgreeOnAirline(t *testing.T) {
	tab := dataset.GenerateAirline(dataset.DefaultAirlineConfig(30000))
	oracle := scan.New(tab)

	opt := core.DefaultOptions()
	opt.SoftFD.ExcludeCols = []int{dataset.AirDayOfWeek, dataset.AirCarrier}
	cx, err := core.Build(tab, opt)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := rtree.Bulk(tab, rtree.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	fg, err := gridfile.Build(tab, fullGrid(tab.Dims(), 4))
	if err != nil {
		t.Fatal(err)
	}
	cf, err := gridfile.Build(tab, columnFiles(tab.Dims(), 3))
	if err != nil {
		t.Fatal(err)
	}
	indexes := []index.Interface{cx, rt, fg, cf}

	gen := workload.NewGenerator(tab, 99)
	var queries []index.Rect
	queries = append(queries, gen.KNNRects(20, 500)...)
	queries = append(queries, gen.PointQueries(20)...)
	sel, err := gen.SelectivityRects(10, 1000)
	if err != nil {
		t.Fatal(err)
	}
	queries = append(queries, sel...)
	queries = append(queries, gen.PartialRects(10, []int{dataset.AirAirTime}, 0.1)...)

	for qi, q := range queries {
		want := index.Count(oracle, q)
		for _, idx := range indexes {
			if got := index.Count(idx, q); got != want {
				t.Errorf("query %d: %s returned %d, oracle %d", qi, idx.Name(), got, want)
			}
		}
	}
}

func TestAllIndexesAgreeOnOSM(t *testing.T) {
	tab := dataset.GenerateOSM(dataset.DefaultOSMConfig(30000))
	oracle := scan.New(tab)

	cx, err := core.Build(tab, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rt, err := rtree.Bulk(tab, rtree.Config{MaxEntries: 8})
	if err != nil {
		t.Fatal(err)
	}
	fg, err := gridfile.Build(tab, fullGrid(tab.Dims(), 12))
	if err != nil {
		t.Fatal(err)
	}
	indexes := []index.Interface{cx, rt, fg}

	gen := workload.NewGenerator(tab, 101)
	var queries []index.Rect
	queries = append(queries, gen.KNNRects(20, 500)...)
	queries = append(queries, gen.PointQueries(20)...)
	// Timestamp-only queries force translation.
	queries = append(queries, gen.PartialRects(10, []int{1}, 0.05)...)

	for qi, q := range queries {
		want := index.Count(oracle, q)
		for _, idx := range indexes {
			if got := index.Count(idx, q); got != want {
				t.Errorf("query %d: %s returned %d, oracle %d", qi, idx.Name(), got, want)
			}
		}
	}
}

// TestConcurrentReaders verifies the documented guarantee that a built
// COAX index is safe for concurrent readers. Run with -race to make this
// meaningful.
func TestConcurrentReaders(t *testing.T) {
	tab := dataset.GenerateAirline(dataset.DefaultAirlineConfig(20000))
	opt := core.DefaultOptions()
	opt.SoftFD.ExcludeCols = []int{dataset.AirDayOfWeek, dataset.AirCarrier}
	cx, err := core.Build(tab, opt)
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewGenerator(tab, 5)
	queries := gen.KNNRects(16, 200)
	oracle := scan.New(tab)
	want := make([]int, len(queries))
	for i, q := range queries {
		want[i] = index.Count(oracle, q)
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(worker)))
			for iter := 0; iter < 50; iter++ {
				qi := rng.Intn(len(queries))
				if got := index.Count(cx, queries[qi]); got != want[qi] {
					t.Errorf("worker %d query %d: %d, want %d", worker, qi, got, want[qi])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestExperimentPipelinesSmoke exercises the computational path of each
// benchmark in bench_test.go at tiny scale, so a broken figure fails in
// `go test`, not only under -bench.
func TestExperimentPipelinesSmoke(t *testing.T) {
	air := dataset.GenerateAirline(dataset.DefaultAirlineConfig(5000))
	osm := dataset.GenerateOSM(dataset.DefaultOSMConfig(5000))

	// Table 1 path: detection + stats on both datasets.
	opt := core.DefaultOptions()
	opt.SoftFD.SampleCount = 3000
	opt.SoftFD.ExcludeCols = []int{dataset.AirDayOfWeek, dataset.AirCarrier}
	var d *benchData
	t.Run("baselines", func(t *testing.T) {
		var err error
		if d, err = newBenchData("Airline", air, opt); err != nil { // fails on a baseline over the memory rule
			t.Fatal(err)
		}
		for _, ix := range []index.Interface{d.coax, d.rtree, d.grid, d.cols} {
			if ix.Len() != air.Len() {
				t.Errorf("%s holds %d rows, want %d", ix.Name(), ix.Len(), air.Len())
			}
		}
	})
	if d == nil {
		t.FailNow()
	}
	cx := d.coax
	st := cx.BuildStats()
	if st.Rows != 5000 || st.PrimaryRatio <= 0 || st.PrimaryRatio > 1 {
		t.Errorf("airline stats implausible: %+v", st)
	}
	t.Run("describe-groups", func(t *testing.T) {
		if g := describeGroups(st.Groups, air.Cols); len(st.Groups) == 0 || strings.Count(g, "*") != len(st.Groups) {
			t.Errorf("correlated groups %q: want one starred predictor per group", g)
		}
		if g := describeGroups(nil, air.Cols); g != "none" {
			t.Errorf("no groups render as %q, want none", g)
		}
	})

	// Fig 4a path: cell-size distribution of a 2-D OSM grid.
	g, err := gridfile.Build(osm, gridfile.Config{
		GridDims: []int{2, 3}, SortDim: -1, CellsPerDim: 8, Mode: gridfile.Quantile,
	})
	if err != nil {
		t.Fatal(err)
	}
	sizes := g.CellSizes()
	total := 0
	for _, s := range sizes {
		total += s
	}
	if total != osm.Len() {
		t.Errorf("fig4a cell sizes sum to %d, want %d", total, osm.Len())
	}

	// Fig 6/7 paths: every workload generator output runs against COAX.
	gen := workload.NewGenerator(air, 1)
	for _, q := range gen.KNNRects(5, 100) {
		index.Count(cx, q)
	}
	for _, q := range gen.PointQueries(5) {
		index.Count(cx, q)
	}
	if sel, err := gen.SelectivityRects(5, 200); err != nil {
		t.Errorf("selectivity workload: %v", err)
	} else {
		for _, q := range sel {
			index.Count(cx, q)
		}
	}

	// Theory paths.
	rng := rand.New(rand.NewSource(3))
	dist := theory.GapDist{Kind: theory.GapNormal, Mu: 1, Sigma: 0.5}
	if m := theory.MeasureMFET(dist, 1, 5, 50, rng); m.Mean <= 0 {
		t.Error("MFET measurement returned nothing")
	}
	if s := theory.CountSegments(dist, 1, 5, 10000, rng); s < 1 {
		t.Error("segment count must be ≥ 1")
	}
	// Eq. 5 path: the simulated translated scan lands near the closed form.
	if eff, err := theory.EmpiricalEffectiveness(2, 10, 50, 1000, 20000, rng); err != nil || math.Abs(eff-theory.Effectiveness(50, 10)) > 0.1 {
		t.Errorf("effectiveness simulation: %g, %v; Eq. 5 gives %g", eff, err, theory.Effectiveness(50, 10))
	}

	// Headline path: COAX, the R-tree and the full grid timed in turn.
	if c, r, g := d.rangeTimes(); c <= 0 || r <= 0 || g <= 0 {
		t.Errorf("headline times COAX %v, R-tree %v, full grid %v", c, r, g)
	}
}

// TestSplineEndToEndOnAirline checks the spline model kind against the
// real airline generator (whose dependencies are close to linear — the
// spline should degrade gracefully to few segments, not reject).
func TestSplineEndToEndOnAirline(t *testing.T) {
	tab := dataset.GenerateAirline(dataset.DefaultAirlineConfig(20000))
	opt := core.DefaultOptions()
	opt.SoftFD.SampleCount = 8000
	opt.SoftFD.ExcludeCols = []int{dataset.AirDayOfWeek, dataset.AirCarrier}
	opt.SoftFD.Kind = softfd.ModelSpline
	cx, err := core.Build(tab, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(cx.BuildStats().Groups) == 0 {
		t.Fatal("spline detector found nothing on airline data")
	}
	oracle := scan.New(tab)
	gen := workload.NewGenerator(tab, 11)
	for qi, q := range gen.KNNRects(20, 300) {
		if got, want := index.Count(cx, q), index.Count(oracle, q); got != want {
			t.Errorf("query %d: %d, want %d", qi, got, want)
		}
	}
}
