package softfd

import (
	"math"
	"math/rand"
	"testing"

	"github.com/coax-index/coax/internal/dataset"
	"github.com/coax-index/coax/internal/model"
)

// curvedTable builds a table with a strongly non-linear dependency:
// d = 0.002·x² + noise over x ∈ [0, 1000].
func curvedTable(rng *rand.Rand, n int, noiseStd float64) *dataset.Table {
	t := dataset.NewTable([]string{"x", "d"})
	for i := 0; i < n; i++ {
		x := rng.Float64() * 1000
		d := 0.002*x*x + rng.NormFloat64()*noiseStd
		t.Append([]float64{x, d})
	}
	return t
}

func splineConfig() Config {
	cfg := DefaultConfig()
	cfg.Kind = ModelSpline
	return cfg
}

func TestSplineDetectsCurvedFD(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tab := curvedTable(rng, 20000, 5)
	res, err := Detect(tab, splineConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 1 {
		t.Fatalf("groups = %d, want 1", len(res.Groups))
	}
	pm := res.Groups[0].Models[0]
	if pm.Spline == nil {
		t.Fatal("expected a spline model")
	}
	if pm.Spline.NumSegments() < 2 {
		t.Errorf("a quadratic needs multiple segments, got %d", pm.Spline.NumSegments())
	}
	if pm.R2 < 0.9 {
		t.Errorf("R2 = %g", pm.R2)
	}
	// The margins for the spline must be far tighter than any straight
	// line could achieve on this curve.
	lin, _, err := model.FitOLS(tab.Column(pm.X), tab.Column(pm.D), nil)
	if err != nil {
		t.Fatal(err)
	}
	resid := lin.Residuals(tab.Column(pm.X), tab.Column(pm.D))
	worstLin := 0.0
	for _, r := range resid {
		if math.Abs(r) > worstLin {
			worstLin = math.Abs(r)
		}
	}
	if pm.EpsLB+pm.EpsUB >= worstLin {
		t.Errorf("spline margins %g not tighter than linear max residual %g",
			pm.EpsLB+pm.EpsUB, worstLin)
	}
}

func TestSplinePredictAndWithin(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tab := curvedTable(rng, 20000, 3)
	res, err := Detect(tab, splineConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 1 {
		t.Skip("spline FD not detected")
	}
	pm := res.Groups[0].Models[0]
	// Most rows must be within the margins (that is what Inlier reported).
	in := 0
	for i := 0; i < tab.Len(); i++ {
		row := tab.Row(i)
		if pm.Within(row[pm.X], row[pm.D]) {
			in++
		}
	}
	frac := float64(in) / float64(tab.Len())
	if math.Abs(frac-pm.Inlier) > 0.05 {
		t.Errorf("full-table inlier fraction %g far from sample estimate %g", frac, pm.Inlier)
	}
}

func TestInvertBandLinear(t *testing.T) {
	pm := PairModel{Model: model.Linear{Slope: 2, Intercept: 10}}
	lo, hi, ok := pm.InvertBand(20, 30)
	if !ok || lo != 5 || hi != 10 {
		t.Errorf("InvertBand = [%g,%g] ok=%v, want [5,10] true", lo, hi, ok)
	}
	// Negative slope flips the interval.
	pm = PairModel{Model: model.Linear{Slope: -2, Intercept: 10}}
	lo, hi, ok = pm.InvertBand(0, 10)
	if !ok || lo != 0 || hi != 5 {
		t.Errorf("neg slope InvertBand = [%g,%g] ok=%v, want [0,5] true", lo, hi, ok)
	}
	// Flat model inside the band: feasible, no information.
	pm = PairModel{Model: model.Linear{Slope: 0, Intercept: 7}}
	lo, hi, ok = pm.InvertBand(5, 10)
	if !ok || !math.IsInf(lo, -1) || !math.IsInf(hi, 1) {
		t.Errorf("flat-in-band InvertBand = [%g,%g] ok=%v", lo, hi, ok)
	}
	// Flat model outside the band: infeasible.
	if _, _, ok = pm.InvertBand(8, 10); ok {
		t.Error("flat model outside the band must be infeasible")
	}
	// An empty band (yLo > yHi) holds no prediction, whatever the slope.
	for _, slope := range []float64{2, -2, 0} {
		pm = PairModel{Model: model.Linear{Slope: slope, Intercept: 10}}
		if lo, hi, ok := pm.InvertBand(30, 20); ok {
			t.Errorf("slope %g: empty band InvertBand(30, 20) = [%g,%g] feasible", slope, lo, hi)
		}
	}
}

func TestInvertBandSpline(t *testing.T) {
	// Piecewise model: y = x on [0,10), y = 10 + 3(x−10) on [10,∞).
	sp := &model.Spline{
		Knots: []float64{0, 10, 20},
		Segs: []model.Linear{
			{Slope: 1, Intercept: 0},
			{Slope: 3, Intercept: -20},
		},
	}
	pm := PairModel{Spline: sp}
	// Band [5, 16]: segment 1 gives x ∈ [5,10], segment 2 gives x ∈ [10,12].
	lo, hi, ok := pm.InvertBand(5, 16)
	if !ok {
		t.Fatal("band should be feasible")
	}
	if math.Abs(lo-5) > 1e-9 || math.Abs(hi-12) > 1e-9 {
		t.Errorf("InvertBand = [%g,%g], want [5,12]", lo, hi)
	}
	// Band entirely below the model's range on the second segment only.
	lo, hi, ok = pm.InvertBand(25, 31)
	if !ok {
		t.Fatal("band on the steep segment should be feasible")
	}
	if math.Abs(lo-15) > 1e-9 || math.Abs(hi-17) > 1e-9 {
		t.Errorf("InvertBand = [%g,%g], want [15,17]", lo, hi)
	}
	// An empty band is infeasible on every segment.
	if lo, hi, ok := pm.InvertBand(16, 5); ok {
		t.Errorf("empty band InvertBand(16, 5) = [%g,%g] feasible", lo, hi)
	}
	// InvertBand must cover every x whose prediction lies in the band.
	for x := -5.0; x < 30; x += 0.25 {
		y := pm.Predict(x)
		lo, hi, ok := pm.InvertBand(y-0.001, y+0.001)
		if !ok || x < lo-1e-9 || x > hi+1e-9 {
			t.Fatalf("x=%g predicts %g but InvertBand [%g,%g] ok=%v misses it", x, y, lo, hi, ok)
		}
	}
}

func TestSplineRejectsIndependentColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tab := dataset.NewTable([]string{"a", "b"})
	for i := 0; i < 20000; i++ {
		tab.Append([]float64{rng.Float64() * 100, rng.Float64() * 100})
	}
	res, err := Detect(tab, splineConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 0 {
		t.Errorf("independent columns produced spline groups: %+v", res.Groups)
	}
}

func TestSplineModelBytesCounted(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	tab := curvedTable(rng, 20000, 3)
	resLin, err := Detect(tab, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	resSp, err := Detect(tab, splineConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(resSp.Groups) == 1 && len(resLin.Groups) == 1 {
		if resSp.ModelBytes() <= resLin.ModelBytes() {
			t.Errorf("spline model bytes %d should exceed linear %d",
				resSp.ModelBytes(), resLin.ModelBytes())
		}
	}
}
