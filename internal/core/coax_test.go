package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/coax-index/coax/internal/dataset"
	"github.com/coax-index/coax/internal/index"
	"github.com/coax-index/coax/internal/model"
	"github.com/coax-index/coax/internal/scan"
	"github.com/coax-index/coax/internal/softfd"
	"github.com/coax-index/coax/internal/workload"
)

// fdTable builds a 4-column table with one planted FD (col1 ≈ 2·col0 + 50),
// an outlier fraction, and two independent columns.
func fdTable(rng *rand.Rand, n int, outlierFrac float64) *dataset.Table {
	t := dataset.NewTable([]string{"x", "d", "u", "v"})
	for i := 0; i < n; i++ {
		x := rng.Float64() * 1000
		var d float64
		if rng.Float64() < outlierFrac {
			d = rng.Float64() * 2100
		} else {
			d = 2*x + 50 + rng.NormFloat64()*4
		}
		t.Append([]float64{x, d, rng.Float64() * 100, rng.NormFloat64() * 10})
	}
	return t
}

func testOptions() Options {
	opt := DefaultOptions()
	opt.SoftFD.SampleCount = 5000
	return opt
}

func randQuery(rng *rand.Rand, t *dataset.Table) index.Rect {
	return workload.RandRect(rng, t)
}

func TestBuildDetectsFDAndSplits(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tab := fdTable(rng, 20000, 0.1)
	c, err := Build(tab, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	st := c.BuildStats()
	if len(st.Groups) != 1 {
		t.Fatalf("groups = %d, want 1", len(st.Groups))
	}
	if st.DependentDims != 1 {
		t.Fatalf("dependent dims = %d, want 1", st.DependentDims)
	}
	// 10% planted outliers plus margin trimming: primary ratio must be
	// high but below 1.
	if st.PrimaryRatio < 0.80 || st.PrimaryRatio >= 1.0 {
		t.Errorf("primary ratio = %g", st.PrimaryRatio)
	}
	if st.PrimaryRows+st.OutlierRows != tab.Len() {
		t.Errorf("split loses rows: %d + %d != %d", st.PrimaryRows, st.OutlierRows, tab.Len())
	}
	// 4 dims, 1 dependent, 1 sort dim → 2 grid dims.
	if st.GridDims != 2 {
		t.Errorf("grid dims = %d, want 2", st.GridDims)
	}
	if c.Name() != "COAX" || c.Len() != tab.Len() || c.Dims() != 4 {
		t.Error("identity accessors broken")
	}
}

func TestQueryMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tab := fdTable(rng, 20000, 0.15)
	oracle := scan.New(tab)
	c, err := Build(tab, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 100; trial++ {
		r := randQuery(rng, tab)
		got, want := index.Count(c, r), index.Count(oracle, r)
		if got != want {
			t.Fatalf("trial %d rect %v: count %d, want %d", trial, r, got, want)
		}
	}
	// Point queries on existing rows must always find them.
	for trial := 0; trial < 50; trial++ {
		p := index.Point(tab.Row(rng.Intn(tab.Len())))
		if index.Count(c, p) < 1 {
			t.Fatal("point query lost its own row")
		}
	}
}

func TestQueryDependentOnlyConstraint(t *testing.T) {
	// Queries constraining ONLY the dependent column exercise the
	// translation path end to end.
	rng := rand.New(rand.NewSource(3))
	tab := fdTable(rng, 20000, 0.1)
	oracle := scan.New(tab)
	c, err := Build(tab, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 50; trial++ {
		lo := rng.Float64() * 2000
		hi := lo + rng.Float64()*300
		r := index.Full(4)
		r.Min[1], r.Max[1] = lo, hi
		if got, want := index.Count(c, r), index.Count(oracle, r); got != want {
			t.Fatalf("dependent-only query [%g,%g]: %d, want %d", lo, hi, got, want)
		}
	}
}

func TestTranslateTightensPredictor(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	tab := fdTable(rng, 20000, 0.05)
	c, err := Build(tab, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(c.BuildStats().Groups) != 1 {
		t.Skip("FD not detected; translation unexercised")
	}
	pm := c.BuildStats().Groups[0].Models[0]

	// d ∈ [500, 600] should translate to x ≈ [(500−εUB−50)/2, (600+εLB−50)/2].
	r := index.Full(4)
	r.Min[pm.D], r.Max[pm.D] = 500, 600
	routed, feasible := c.Translate(r)
	if !feasible {
		t.Fatal("feasible query reported infeasible")
	}
	if math.IsInf(routed.Min[pm.X], -1) || math.IsInf(routed.Max[pm.X], 1) {
		t.Fatal("translation left the predictor unconstrained")
	}
	wantLo, _ := pm.Model.Invert(500 - pm.EpsUB)
	wantHi, _ := pm.Model.Invert(600 + pm.EpsLB)
	if math.Abs(routed.Min[pm.X]-wantLo) > 1e-9 || math.Abs(routed.Max[pm.X]-wantHi) > 1e-9 {
		t.Errorf("translated range [%g,%g], want [%g,%g]",
			routed.Min[pm.X], routed.Max[pm.X], wantLo, wantHi)
	}
	// The dependent dimension must be released for routing.
	if !math.IsInf(routed.Min[pm.D], -1) || !math.IsInf(routed.Max[pm.D], 1) {
		t.Error("dependent dimension should be unconstrained in the routed rect")
	}
}

func TestTranslateInfeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tab := fdTable(rng, 20000, 0.05)
	c, err := Build(tab, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	st := c.BuildStats()
	if len(st.Groups) != 1 {
		t.Skip("FD not detected")
	}
	pm := st.Groups[0].Models[0]
	// Contradictory constraints: x forced high, d forced low. With slope 2
	// and intercept 50, x ∈ [900, 1000] predicts d ≈ [1850, 2050]; asking
	// for d ∈ [0, 10] cannot be satisfied by any inlier.
	r := index.Full(4)
	r.Min[pm.X], r.Max[pm.X] = 900, 1000
	r.Min[pm.D], r.Max[pm.D] = 0, 10
	_, feasible := c.Translate(r)
	if feasible {
		t.Error("contradictory query should be infeasible for the primary index")
	}
	// The overall query still returns exactly the scan result (outliers may
	// match).
	oracle := scan.New(tab)
	if got, want := index.Count(c, r), index.Count(oracle, r); got != want {
		t.Errorf("infeasible-primary query: %d, want %d", got, want)
	}
}

// TestTranslateEmptyDependentBand: a rectangle empty on a dependent column
// by more than the model's margins (ql − qh > εLB + εUB) asks for an empty
// band of predictions, which no predictor value can meet. Translate and the
// EXPLAIN must call the primary infeasible rather than route it to the
// predictor interval the band's swapped ends would give.
func TestTranslateEmptyDependentBand(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tab := fdTable(rng, 20000, 0.05)
	c, err := Build(tab, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	st := c.BuildStats()
	if len(st.Groups) != 1 {
		t.Skip("FD not detected")
	}
	pm := st.Groups[0].Models[0]
	gap := pm.EpsLB + pm.EpsUB + 10
	r := index.Full(4)
	r.Min[pm.D], r.Max[pm.D] = 1000+gap, 1000
	if _, feasible := c.Translate(r); feasible {
		t.Error("Translate: a rectangle empty on the dependent column is feasible for the primary")
	}
	var rep ProbeReport
	c.Exec(r, index.Spec{}, func([]float64) bool { return true }, &rep)
	if rep.PrimaryFeasible || len(rep.Translations) != 1 || rep.Translations[0].Feasible {
		t.Errorf("EXPLAIN: primary feasible %v, translations %+v; want infeasible", rep.PrimaryFeasible, rep.Translations)
	}
}

func TestNoCorrelationFallback(t *testing.T) {
	// Independent columns: COAX degenerates to a plain grid file and must
	// still answer correctly.
	rng := rand.New(rand.NewSource(6))
	tab := dataset.NewTable([]string{"a", "b", "c"})
	for i := 0; i < 5000; i++ {
		tab.Append([]float64{rng.Float64() * 10, rng.NormFloat64(), rng.Float64()})
	}
	oracle := scan.New(tab)
	c, err := Build(tab, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	st := c.BuildStats()
	if len(st.Groups) != 0 {
		t.Fatalf("unexpected groups: %+v", st.Groups)
	}
	if st.PrimaryRatio != 1.0 {
		t.Errorf("no-FD build should put everything in the primary: %g", st.PrimaryRatio)
	}
	for trial := 0; trial < 50; trial++ {
		r := randQuery(rng, tab)
		if got, want := index.Count(c, r), index.Count(oracle, r); got != want {
			t.Fatalf("trial %d: %d, want %d", trial, got, want)
		}
	}
}

func TestOutlierGridVariant(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tab := fdTable(rng, 10000, 0.2)
	oracle := scan.New(tab)
	c, err := Build(tab, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 50; trial++ {
		r := randQuery(rng, tab)
		if got, want := index.Count(c, r), index.Count(oracle, r); got != want {
			t.Fatalf("trial %d: %d, want %d", trial, got, want)
		}
	}
}

func TestDisableSortDimAblation(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	tab := fdTable(rng, 10000, 0.1)
	oracle := scan.New(tab)
	opt := testOptions()
	opt.DisableSortDim = true
	c, err := Build(tab, opt)
	if err != nil {
		t.Fatal(err)
	}
	st := c.BuildStats()
	if st.SortDim != -1 {
		t.Errorf("sort dim = %d, want -1", st.SortDim)
	}
	// Without a sort dim the grid has one more dimension.
	if len(st.Groups) == 1 && st.GridDims != 3 {
		t.Errorf("grid dims = %d, want 3 when sorting disabled", st.GridDims)
	}
	for trial := 0; trial < 30; trial++ {
		r := randQuery(rng, tab)
		if got, want := index.Count(c, r), index.Count(oracle, r); got != want {
			t.Fatalf("trial %d: %d, want %d", trial, got, want)
		}
	}
}

func TestExplicitSortDim(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tab := fdTable(rng, 8000, 0.1)
	opt := testOptions()
	opt.SortDim = 2
	c, err := Build(tab, opt)
	if err != nil {
		t.Fatal(err)
	}
	if c.BuildStats().SortDim != 2 {
		t.Errorf("SortDim = %d, want 2", c.BuildStats().SortDim)
	}
	// Requesting a dependent column as sort dim must fail.
	if len(c.BuildStats().Groups) == 1 {
		bad := testOptions()
		bad.SortDim = c.BuildStats().Groups[0].Models[0].D
		if _, err := Build(tab, bad); err == nil {
			t.Error("dependent sort dim accepted")
		}
	}
	bad := testOptions()
	bad.SortDim = 99
	if _, err := Build(tab, bad); err == nil {
		t.Error("out-of-range sort dim accepted")
	}
}

func TestBuildValidation(t *testing.T) {
	tab := dataset.NewTable([]string{"a"})
	if _, err := Build(tab, testOptions()); err == nil {
		t.Error("empty table accepted")
	}
	tab.Append([]float64{1})
	opt := testOptions()
	opt.PrimaryCellsPerDim = 0
	if _, err := Build(tab, opt); err == nil {
		t.Error("zero cells accepted")
	}
}

func TestMemoryOverheadAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	tab := fdTable(rng, 10000, 0.1)
	c, err := Build(tab, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	total := c.MemoryOverhead()
	parts := c.PrimaryMemoryOverhead() + c.OutlierMemoryOverhead()
	if total != parts {
		t.Errorf("total overhead %d != primary+outlier %d", total, parts)
	}
	if total <= 0 {
		t.Error("overhead must be positive")
	}
}

func TestQuerySplitPrimaryOutlier(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tab := fdTable(rng, 10000, 0.2)
	c, err := Build(tab, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	r := randQuery(rng, tab)
	var np, no, nall int
	routed, feasible := c.Translate(r)
	if !feasible {
		t.Fatal("random query translated infeasible")
	}
	c.Primary().Scan(routed.Intersect(r), func([]float64) bool { np++; return true }, nil)
	c.Outliers().Scan(r, func([]float64) bool { no++; return true }, nil)
	c.Scan(r, func([]float64) bool { nall++; return true }, nil)
	if np+no != nall {
		t.Errorf("primary %d + outliers %d != total %d", np, no, nall)
	}
}

// Property: COAX is exactly equivalent to a full scan for random tables
// with random FD structure, outlier rates, and queries.
func TestCOAXEquivalenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1000 + rng.Intn(4000)
		outlierFrac := rng.Float64() * 0.3
		slope := rng.Float64()*8 - 4
		if math.Abs(slope) < 0.2 {
			slope = 0.5
		}
		tab := dataset.NewTable([]string{"x", "d", "u"})
		for i := 0; i < n; i++ {
			x := rng.Float64() * 500
			var d float64
			if rng.Float64() < outlierFrac {
				d = rng.Float64()*2000 - 1000
			} else {
				d = slope*x + rng.NormFloat64()*2
			}
			tab.Append([]float64{x, d, rng.Float64() * 50})
		}
		opt := testOptions()
		opt.SoftFD.SampleCount = 2000
		opt.PrimaryCellsPerDim = 1 + rng.Intn(16)
		c, err := Build(tab, opt)
		if err != nil {
			return false
		}
		oracle := scan.New(tab)
		for trial := 0; trial < 8; trial++ {
			r := randQuery(rng, tab)
			if index.Count(c, r) != index.Count(oracle, r) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: the routed rectangle never excludes an inlier row that matches
// the original query (translation only widens, never narrows).
func TestTranslationSupersetProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	tab := fdTable(rng, 20000, 0.1)
	c, err := Build(tab, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(c.BuildStats().Groups) == 0 {
		t.Skip("FD not detected")
	}
	for trial := 0; trial < 200; trial++ {
		r := randQuery(rng, tab)
		routed, feasible := c.Translate(r)
		for probe := 0; probe < 20; probe++ {
			row := tab.Row(rng.Intn(tab.Len()))
			if !c.rowIsInlier(row) || !r.Contains(row) {
				continue
			}
			if !feasible {
				t.Fatalf("inlier %v matches %v but translation says infeasible", row, r)
			}
			if !routed.Contains(row) {
				t.Fatalf("inlier %v matches %v but routed %v excludes it", row, r, routed)
			}
		}
	}
}

func TestBuildWithFDRejectsBadPrimary(t *testing.T) {
	// A hand-crafted FD whose margins exclude every row: all rows become
	// outliers and the primary index is nil; queries must still work.
	tab := dataset.NewTable([]string{"x", "d"})
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 1000; i++ {
		tab.Append([]float64{rng.Float64() * 10, rng.Float64() * 10})
	}
	fd := softfd.Result{Groups: []softfd.Group{{
		Predictor: 0,
		Members:   []int{0, 1},
		Models: []softfd.PairModel{{
			X: 0, D: 1,
			// Slope/intercept placing the band far away from all data.
			Model: model.Linear{Slope: 1, Intercept: 10000},
			EpsLB: 0.001, EpsUB: 0.001,
		}},
	}}}
	c, err := BuildWithFD(tab, fd, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	st := c.BuildStats()
	if st.PrimaryRows != 0 || st.OutlierRows != 1000 {
		t.Fatalf("split = %d/%d, want 0/1000", st.PrimaryRows, st.OutlierRows)
	}
	oracle := scan.New(tab)
	for trial := 0; trial < 20; trial++ {
		r := randQuery(rng, tab)
		if got, want := index.Count(c, r), index.Count(oracle, r); got != want {
			t.Fatalf("all-outlier build: %d, want %d", got, want)
		}
	}
}

func TestFullRectReturnsEverything(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	tab := fdTable(rng, 5000, 0.15)
	c, err := Build(tab, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got := index.Count(c, index.Full(4)); got != tab.Len() {
		t.Errorf("full-range query returned %d of %d rows", got, tab.Len())
	}
}

func TestSingleRowTable(t *testing.T) {
	tab := dataset.NewTable([]string{"a", "b"})
	tab.Append([]float64{1, 2})
	c, err := Build(tab, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if index.Count(c, index.Point([]float64{1, 2})) != 1 {
		t.Error("single row not found")
	}
	if index.Count(c, index.Point([]float64{1, 3})) != 0 {
		t.Error("phantom row found")
	}
}

func TestDuplicateRowsAllReturned(t *testing.T) {
	tab := dataset.NewTable([]string{"a", "b"})
	for i := 0; i < 300; i++ {
		tab.Append([]float64{7, 11})
	}
	for i := 0; i < 300; i++ {
		tab.Append([]float64{float64(i), float64(i * 2)})
	}
	c, err := Build(tab, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got := index.Count(c, index.Point([]float64{7, 11})); got != 300 {
		t.Errorf("duplicate rows: got %d, want 300", got)
	}
}
