package core

import (
	"math/rand"
	"testing"

	"github.com/coax-index/coax/internal/dataset"
	"github.com/coax-index/coax/internal/index"
	"github.com/coax-index/coax/internal/model"
	"github.com/coax-index/coax/internal/scan"
	"github.com/coax-index/coax/internal/softfd"
)

// fdResultWithBand hand-crafts a one-group detection result: column x
// predicts column d as d = slope·x + icept within ±eps.
func fdResultWithBand(x, d int, slope, icept, eps float64) softfd.Result {
	return softfd.Result{Groups: []softfd.Group{{
		Predictor: x,
		Members:   []int{x, d},
		Models: []softfd.PairModel{{
			X: x, D: d,
			Model: model.Linear{Slope: slope, Intercept: icept},
			EpsLB: eps, EpsUB: eps,
		}},
	}}}
}

func TestInsertRoutesInliersAndOutliers(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tab := fdTable(rng, 20000, 0.05)
	c, err := Build(tab, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(c.BuildStats().Groups) != 1 {
		t.Skip("FD not detected")
	}
	pm := c.BuildStats().Groups[0].Models[0]
	before := c.BuildStats()

	// An inlier row: exactly on the model line.
	x := 500.0
	inlier := make([]float64, 4)
	inlier[pm.X] = x
	inlier[pm.D] = pm.Model.Predict(x)
	inlier[2], inlier[3] = 1, 2
	if err := c.Insert(inlier); err != nil {
		t.Fatal(err)
	}

	// An outlier row: far off the line.
	outlier := make([]float64, 4)
	outlier[pm.X] = x
	outlier[pm.D] = pm.Model.Predict(x) + pm.EpsUB*100
	if err := c.Insert(outlier); err != nil {
		t.Fatal(err)
	}

	after := c.BuildStats()
	if after.PrimaryRows != before.PrimaryRows+1 {
		t.Errorf("primary rows %d, want %d", after.PrimaryRows, before.PrimaryRows+1)
	}
	if after.OutlierRows != before.OutlierRows+1 {
		t.Errorf("outlier rows %d, want %d", after.OutlierRows, before.OutlierRows+1)
	}
	if c.Len() != tab.Len()+2 {
		t.Errorf("Len = %d, want %d", c.Len(), tab.Len()+2)
	}

	// Both rows must be findable.
	if index.Count(c, index.Point(inlier)) < 1 {
		t.Error("inserted inlier not found")
	}
	if index.Count(c, index.Point(outlier)) < 1 {
		t.Error("inserted outlier not found")
	}
}

func TestInsertThenQueryMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	base := fdTable(rng, 10000, 0.1)
	c, err := Build(base, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	all := dataset.NewTable(base.Cols)
	for i := 0; i < base.Len(); i++ {
		all.Append(base.Row(i))
	}
	// Insert a mix drawn from the same distribution.
	extra := fdTable(rng, 2000, 0.1)
	for i := 0; i < extra.Len(); i++ {
		if err := c.Insert(extra.Row(i)); err != nil {
			t.Fatal(err)
		}
		all.Append(extra.Row(i))
	}
	oracle := scan.New(all)
	for trial := 0; trial < 50; trial++ {
		r := randQuery(rng, all)
		if got, want := index.Count(c, r), index.Count(oracle, r); got != want {
			t.Fatalf("trial %d: %d, want %d", trial, got, want)
		}
	}
	// Compact and re-verify.
	c.Compact()
	for trial := 0; trial < 50; trial++ {
		r := randQuery(rng, all)
		if got, want := index.Count(c, r), index.Count(oracle, r); got != want {
			t.Fatalf("post-compact trial %d: %d, want %d", trial, got, want)
		}
	}
}

func TestInsertWrongArity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c, err := Build(fdTable(rng, 1000, 0.1), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Insert([]float64{1, 2}); err == nil {
		t.Error("wrong arity must error")
	}
}

func TestInsertLazyOutlierCreation(t *testing.T) {
	// Build over FD-perfect data (no outliers), then insert an outlier:
	// the outlier index must be created on demand.
	tab := dataset.NewTable([]string{"x", "d"})
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 10000; i++ {
		x := rng.Float64() * 100
		tab.Append([]float64{x, 5 * x})
	}
	c, err := Build(tab, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	st := c.BuildStats()
	if len(st.Groups) != 1 {
		t.Skip("FD not detected")
	}
	if st.OutlierRows != 0 {
		t.Skipf("expected clean split, got %d outliers", st.OutlierRows)
	}
	// No outlier grid reads as an untyped nil, so callers can compare it.
	if o := c.Outliers(); o != nil {
		t.Fatalf("Outliers() = %#v with no outlier grid, want nil", o)
	}
	bad := []float64{50, -12345}
	if err := c.Insert(bad); err != nil {
		t.Fatal(err)
	}
	if index.Count(c, index.Point(bad)) != 1 {
		t.Error("outlier inserted into lazily created index not found")
	}
	// One row gets the layout chooser's degenerate case, not a lattice over
	// every column: one page, sorted on the primary's sort column.
	if st := c.BuildStats(); st.OutlierCells != 1 || len(st.OutlierGridDims) != 0 || st.OutlierSortDim != st.SortDim {
		t.Errorf("lazy outlier grid: %d cells on %v sorted on %d, want 1 cell sorted on %d",
			st.OutlierCells, st.OutlierGridDims, st.OutlierSortDim, st.SortDim)
	}
}

func TestInsertLazyPrimaryCreation(t *testing.T) {
	// An all-outlier build (hand-crafted FD excludes every row) followed by
	// an inlier insert must create the primary index on demand.
	tab := dataset.NewTable([]string{"x", "d"})
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		tab.Append([]float64{rng.Float64() * 10, rng.Float64() * 10})
	}
	fd := fdResultWithBand(0, 1, 1, 10000, 0.001)
	c, err := BuildWithFD(tab, fd, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if c.BuildStats().PrimaryRows != 0 {
		t.Skip("expected all-outlier build")
	}
	inlier := []float64{5, 10005} // on the shifted band
	if err := c.Insert(inlier); err != nil {
		t.Fatal(err)
	}
	if index.Count(c, index.Point(inlier)) != 1 {
		t.Error("inlier not found in lazily created primary")
	}
}

// TestInsertLazyPrimaryIsOneCell inserts into the skeleton an empty shard
// builds. The first row seeds the primary alone, so every grid axis sees
// one value and gets one cell: the primary is one cell, not a lattice of
// PrimaryCellsPerDim cells per axis around a single row. Rows with other
// values clamp into that cell and are still found.
func TestInsertLazyPrimaryIsOneCell(t *testing.T) {
	c, err := BuildWithFD(dataset.NewTable([]string{"a", "b", "c", "d"}), softfd.Result{}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	live := dataset.NewTable([]string{"a", "b", "c", "d"})
	insert := func(row []float64) {
		if err := c.Insert(row); err != nil {
			t.Fatal(err)
		}
		live.Append(row)
	}
	insert([]float64{1, 2, 3, 4})
	if st := c.BuildStats(); st.PrimaryCells != 1 {
		t.Fatalf("lazy primary: %d cells, %d B directory; want 1 cell", st.PrimaryCells, st.PrimaryOverheadB)
	}
	for range 300 {
		insert([]float64{rng.Float64() * 100, rng.NormFloat64() * 50, float64(rng.Intn(7)), -rng.Float64()})
	}
	for i := range live.Len() {
		if row := live.Row(i); index.Count(c, index.Point(row)) != 1 {
			t.Fatalf("row %d %v not found", i, row)
		}
	}
	oracle := scan.New(live)
	for trial := range 50 {
		r := randQuery(rng, live)
		if got, want := index.Count(c, r), index.Count(oracle, r); got != want {
			t.Fatalf("trial %d: %d, want %d", trial, got, want)
		}
	}
}

func TestBoundsPruning(t *testing.T) {
	// A query entirely outside the outlier bounding box must still return
	// exact results (pruning is an optimisation, not a semantics change),
	// and inserts beyond the old bounds must widen the box.
	rng := rand.New(rand.NewSource(6))
	tab := fdTable(rng, 10000, 0.1)
	c, err := Build(tab, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	oracle := scan.New(tab)
	// Query far outside all data: both partitions pruned, empty result.
	far := index.NewRect(
		[]float64{1e9, 1e9, 1e9, 1e9},
		[]float64{2e9, 2e9, 2e9, 2e9})
	if got := index.Count(c, far); got != 0 {
		t.Errorf("far query returned %d rows", got)
	}
	// Random queries stay exact with pruning active.
	for trial := 0; trial < 30; trial++ {
		r := randQuery(rng, tab)
		if got, want := index.Count(c, r), index.Count(oracle, r); got != want {
			t.Fatalf("trial %d: %d, want %d", trial, got, want)
		}
	}
	// Insert an outlier far outside the original box; it must be found.
	out := []float64{1.5e9, 1.5e9, 1.5e9, 1.5e9}
	if err := c.Insert(out); err != nil {
		t.Fatal(err)
	}
	if index.Count(c, far) != 1 {
		t.Error("insert outside old bounds not found (bounds not extended)")
	}
}
