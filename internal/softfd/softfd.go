// Package softfd implements the learning half of COAX (paper §5,
// Algorithm 1): automatic detection of soft functional dependencies between
// table columns. Detection draws a sample, overlays a 2-D grid on every
// candidate column pair, keeps only dense cells, fits a weighted linear
// model to the cell centres, validates the fit with a Monte-Carlo sampler,
// derives asymmetric error margins (εLB, εUB) from residual quantiles, and
// finally merges correlated pairs into groups with one predictor attribute
// per group.
package softfd

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"github.com/coax-index/coax/internal/dataset"
	"github.com/coax-index/coax/internal/model"
	"github.com/coax-index/coax/internal/stats"
)

// Config tunes the detector. The zero value is not usable; start from
// DefaultConfig. The paper (§5) notes the accuracy/run-time trade-off is
// governed by the sample size, the cell size, and the cell acceptance
// threshold — exactly the knobs exposed here.
type Config struct {
	// SampleCount rows are drawn uniformly for training (Algorithm 1's
	// sample_count). Capped at the table size.
	SampleCount int
	// BucketChunks is the grid resolution per axis (bucket_chunks).
	BucketChunks int
	// CellThreshold is the minimum record count for a cell to contribute
	// its centre to training. 0 means automatic: the mean cell occupancy.
	CellThreshold int
	// MonteCarloTrials is the number of random re-fits used to validate
	// that a linear model is stable on the training centres.
	MonteCarloTrials int
	// MinR2 is the minimum coefficient of determination, measured on the
	// sampled rows that fall inside the margins (the rows the primary
	// index will actually serve), for a dependency to be accepted.
	MinR2 float64
	// MarginQuantile q is the starting point for margin selection: εUB is
	// the q residual quantile and εLB the (1−q) quantile. When the
	// resulting band is wider than MaxMarginFrac allows, q shrinks until
	// the band fits — heavy outlier tails must not inflate the margins
	// (they belong in the outlier index instead).
	MarginQuantile float64
	// MaxMarginFrac bounds the total margin (εLB+εUB) as a fraction of the
	// dependent column's range; a wider "FD" would force the primary index
	// to scan most of the data anyway.
	MaxMarginFrac float64
	// MinInlierFrac is the minimum fraction of sampled rows that must fall
	// inside the margins. Below it, too much data would land in the
	// outlier index for the dependency to pay off.
	MinInlierFrac float64
	// ExcludeCols lists columns never considered (categorical codes etc.).
	ExcludeCols []int
	// Kind selects the model family: ModelLinear (the paper's design) or
	// ModelSpline (the §7.2 non-linear extension).
	Kind ModelKind
	// Seed drives sampling and the Monte-Carlo trials.
	Seed int64
}

// DefaultConfig returns the settings used across the benchmarks.
func DefaultConfig() Config {
	return Config{
		SampleCount:      20000,
		BucketChunks:     64,
		CellThreshold:    0,
		MonteCarloTrials: 8,
		MinR2:            0.75,
		MarginQuantile:   0.99,
		MaxMarginFrac:    0.30,
		MinInlierFrac:    0.65,
		Seed:             42,
	}
}

// PairModel is one accepted directed soft FD: column X predicts column D as
// D ≈ ψ̂(X) within [−EpsLB, +EpsUB], where ψ̂ is a regression line or, for
// the §7.2 extension, a piecewise-linear spline.
type PairModel struct {
	X, D   int
	Model  model.Linear  // linear ψ̂; ignored when Spline is set
	Spline *model.Spline // non-linear ψ̂ (nil for linear models)
	EpsLB  float64       // ≥ 0; lower displacement tolerance
	EpsUB  float64       // ≥ 0; upper displacement tolerance
	R2     float64       // measured on sampled rows within the margins
	Inlier float64       // fraction of sampled rows within the margins
}

// Predict evaluates ψ̂ at x.
func (p PairModel) Predict(x float64) float64 {
	if p.Spline != nil {
		return p.Spline.Predict(x)
	}
	return p.Model.Predict(x)
}

// Within reports whether a (x, d) pair respects the model margins — the
// membership test for the primary index.
func (p PairModel) Within(x, d float64) bool {
	disp := d - p.Predict(x)
	return disp >= -p.EpsLB && disp <= p.EpsUB
}

// InvertBand returns the tightest x-interval [xLo, xHi] that can map into
// ψ̂(x) ∈ [yLo, yHi]. feasible is false when no x qualifies — in
// particular for an empty band, yLo > yHi. An unbounded interval (±Inf)
// means the model carries no x-information for this band (a flat line or
// flat segment inside the band).
func (p PairModel) InvertBand(yLo, yHi float64) (xLo, xHi float64, feasible bool) {
	if yLo > yHi {
		return 0, 0, false // no y lies in the band, so no x maps into it
	}
	if p.Spline == nil {
		return invertLinearBand(p.Model, math.Inf(-1), math.Inf(1), yLo, yHi)
	}
	// Union the per-segment inversions and take their convex hull — a
	// superset for non-monotone splines, which preserves correctness.
	xLo, xHi = math.Inf(1), math.Inf(-1)
	feasible = false
	sp := p.Spline
	for i, seg := range sp.Segs {
		dLo, dHi := math.Inf(-1), math.Inf(1)
		if i > 0 {
			dLo = sp.Knots[i]
		}
		if i < len(sp.Segs)-1 {
			dHi = sp.Knots[i+1]
		}
		lo, hi, ok := invertLinearBand(seg, dLo, dHi, yLo, yHi)
		if !ok {
			continue
		}
		feasible = true
		if lo < xLo {
			xLo = lo
		}
		if hi > xHi {
			xHi = hi
		}
	}
	return xLo, xHi, feasible
}

// invertLinearBand solves yLo ≤ m·x + b ≤ yHi over the domain [dLo, dHi].
func invertLinearBand(l model.Linear, dLo, dHi, yLo, yHi float64) (xLo, xHi float64, feasible bool) {
	if l.Slope == 0 {
		if l.Intercept < yLo || l.Intercept > yHi {
			return 0, 0, false
		}
		return dLo, dHi, true
	}
	a := (yLo - l.Intercept) / l.Slope
	b := (yHi - l.Intercept) / l.Slope
	if a > b {
		a, b = b, a
	}
	if a < dLo {
		a = dLo
	}
	if b > dHi {
		b = dHi
	}
	if a > b {
		return 0, 0, false
	}
	return a, b, true
}

// Group is one set of mutually correlated columns with a chosen predictor.
// Every non-predictor member has a PairModel with X = Predictor.
type Group struct {
	Predictor int
	Members   []int // includes Predictor, ascending
	Models    []PairModel
}

// Dependents returns the group's members excluding the predictor.
func (g Group) Dependents() []int {
	out := make([]int, 0, len(g.Members)-1)
	for _, m := range g.Members {
		if m != g.Predictor {
			out = append(out, m)
		}
	}
	return out
}

// Result is what Detect produces.
type Result struct {
	Groups []Group
	// Pairs holds every accepted directed dependency before grouping, for
	// diagnostics and for the fdscan tool.
	Pairs []PairModel
}

// DependentColumns returns the set of columns that are predicted rather
// than indexed.
func (r Result) DependentColumns() map[int]bool {
	out := make(map[int]bool)
	for _, g := range r.Groups {
		for _, d := range g.Dependents() {
			out[d] = true
		}
	}
	return out
}

// ModelBytes reports the memory the learned models occupy (counted as part
// of the COAX directory overhead).
func (r Result) ModelBytes() int64 {
	var n int64
	for _, g := range r.Groups {
		n += 16 // predictor + member slice header
		n += int64(len(g.Members) * 8)
		n += int64(len(g.Models)) * 56 // 2 ints + 5 float64 per model
		for _, m := range g.Models {
			if m.Spline != nil {
				n += m.Spline.SizeBytes()
			}
		}
	}
	return n
}

// DetectSample runs detection over a table that is itself a pre-drawn
// sample (e.g. a row reservoir built while streaming a larger input): every
// row of t participates, regardless of cfg.SampleCount, so the caller's
// reservoir size — not the detector's internal re-sampling — governs the
// accuracy/memory trade-off.
func DetectSample(t *dataset.Table, cfg Config) (Result, error) {
	if cfg.SampleCount < t.Len() {
		cfg.SampleCount = t.Len()
	}
	if cfg.SampleCount < 4 {
		cfg.SampleCount = 4
	}
	return Detect(t, cfg)
}

// Detect finds soft-FD groups in t. It never fails on degenerate data: a
// table with no detectable correlations yields an empty Result.
func Detect(t *dataset.Table, cfg Config) (Result, error) {
	if err := checkConfig(cfg); err != nil {
		return Result{}, err
	}
	if t.Len() < 4 {
		return Result{}, nil
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	sampleN := cfg.SampleCount
	if sampleN > t.Len() {
		sampleN = t.Len()
	}
	rows := stats.SampleIndices(t.Len(), sampleN, rng)

	excluded := make(map[int]bool, len(cfg.ExcludeCols))
	for _, c := range cfg.ExcludeCols {
		excluded[c] = true
	}

	// Sample columns once.
	cols := make([][]float64, t.Dims())
	for c := 0; c < t.Dims(); c++ {
		if excluded[c] {
			continue
		}
		cols[c] = make([]float64, len(rows))
		for i, r := range rows {
			cols[c][i] = t.Row(r)[c]
		}
	}

	var res Result
	// Consider unique pairs; evaluate both directions and keep any that
	// pass acceptance.
	for i := 0; i < t.Dims(); i++ {
		if excluded[i] {
			continue
		}
		for j := i + 1; j < t.Dims(); j++ {
			if excluded[j] {
				continue
			}
			if pm, ok := fitPair(cols[i], cols[j], i, j, cfg, rng); ok {
				res.Pairs = append(res.Pairs, pm)
			}
			if pm, ok := fitPair(cols[j], cols[i], j, i, cfg, rng); ok {
				res.Pairs = append(res.Pairs, pm)
			}
		}
	}

	res.Groups = buildGroups(res.Pairs, cols, cfg, rng)
	return res, nil
}

func checkConfig(cfg Config) error {
	if cfg.SampleCount < 4 {
		return fmt.Errorf("softfd: SampleCount must be ≥ 4, got %d", cfg.SampleCount)
	}
	if cfg.BucketChunks < 2 {
		return fmt.Errorf("softfd: BucketChunks must be ≥ 2, got %d", cfg.BucketChunks)
	}
	if cfg.MinR2 < 0 || cfg.MinR2 > 1 {
		return fmt.Errorf("softfd: MinR2 must be in [0,1], got %g", cfg.MinR2)
	}
	if cfg.MarginQuantile <= 0.5 || cfg.MarginQuantile >= 1 {
		return fmt.Errorf("softfd: MarginQuantile must be in (0.5,1), got %g", cfg.MarginQuantile)
	}
	if cfg.MaxMarginFrac <= 0 || cfg.MaxMarginFrac > 1 {
		return fmt.Errorf("softfd: MaxMarginFrac must be in (0,1], got %g", cfg.MaxMarginFrac)
	}
	if cfg.MinInlierFrac < 0 || cfg.MinInlierFrac > 1 {
		return fmt.Errorf("softfd: MinInlierFrac must be in [0,1], got %g", cfg.MinInlierFrac)
	}
	if cfg.MonteCarloTrials < 1 {
		return fmt.Errorf("softfd: MonteCarloTrials must be ≥ 1, got %d", cfg.MonteCarloTrials)
	}
	return nil
}

// fitPair attempts to learn xs → ys and returns the model if it passes all
// acceptance tests. The model family is selected by cfg.Kind.
func fitPair(xs, ys []float64, xi, yi int, cfg Config, rng *rand.Rand) (PairModel, bool) {
	if cfg.Kind == ModelSpline {
		return fitPairSpline(xs, ys, xi, yi, cfg, rng)
	}
	cx, cy, w := BucketCenters(xs, ys, cfg.BucketChunks, cfg.CellThreshold)
	if len(cx) < 2 {
		return PairModel{}, false
	}
	lin, _, err := model.FitOLS(cx, cy, w)
	if err != nil {
		return PairModel{}, false
	}
	if !monteCarloStable(cx, cy, w, lin, cfg, rng) {
		return PairModel{}, false
	}
	return acceptOnRows(xs, ys, xi, yi, lin, cfg)
}

// acceptOnRows validates a candidate line against the raw sampled rows and
// derives its margins. Margin selection is adaptive: starting from
// MarginQuantile, the quantile shrinks until the band respects
// MaxMarginFrac — a heavy outlier tail widens the outlier index, never the
// primary margins. The pair is accepted when enough rows are inliers and
// the model explains the inlier band well.
func acceptOnRows(xs, ys []float64, xi, yi int, lin model.Linear, cfg Config) (PairModel, bool) {
	resid := lin.Residuals(xs, ys)
	sorted := make([]float64, len(resid))
	copy(sorted, resid)
	sort.Float64s(sorted)

	ymin, ymax := stats.MinMax(ys)
	yrange := ymax - ymin
	if yrange == 0 {
		return PairModel{}, false // constant dependent: nothing to predict
	}
	epsLB, epsUB, ok := adaptiveMargins(sorted, cfg, yrange)
	if !ok {
		return PairModel{}, false
	}

	// R² restricted to the inlier band: does the model genuinely explain
	// the rows the primary index will serve? A tightly concentrated but
	// x-independent column yields R² ≈ 0 here and is rejected.
	inliers, inlierFrac, r2 := inlierStats(ys, resid, epsLB, epsUB)
	if inlierFrac < cfg.MinInlierFrac || inliers < 2 || r2 < cfg.MinR2 {
		return PairModel{}, false
	}

	return PairModel{
		X:      xi,
		D:      yi,
		Model:  lin,
		EpsLB:  epsLB,
		EpsUB:  epsUB,
		R2:     r2,
		Inlier: inlierFrac,
	}, true
}

// monteCarloStable re-fits the line on random halves of the training
// centres and rejects fits whose slope is unstable or whose subset R² drops
// below the acceptance threshold — Algorithm 1's Monte-Carlo check.
func monteCarloStable(cx, cy, w []float64, full model.Linear, cfg Config, rng *rand.Rand) bool {
	if len(cx) < 8 {
		return true // too few centres to subsample meaningfully
	}
	half := len(cx) / 2
	slopes := make([]float64, 0, cfg.MonteCarloTrials)
	r2s := make([]float64, 0, cfg.MonteCarloTrials)
	sx := make([]float64, half)
	sy := make([]float64, half)
	sw := make([]float64, half)
	for trial := 0; trial < cfg.MonteCarloTrials; trial++ {
		idx := stats.SampleIndices(len(cx), half, rng)
		for k, i := range idx {
			sx[k], sy[k], sw[k] = cx[i], cy[i], w[i]
		}
		lin, diag, err := model.FitOLS(sx, sy, sw)
		if err != nil {
			return false
		}
		slopes = append(slopes, lin.Slope)
		r2s = append(r2s, diag.R2)
	}
	if stats.Quantile(r2s, 0.5) < cfg.MinR2 {
		return false
	}
	// Slope stability: spread relative to the full-fit slope.
	lo, hiS := stats.MinMax(slopes)
	scale := math.Abs(full.Slope)
	if scale == 0 {
		return false // flat line carries no invertible information
	}
	return (hiS-lo)/scale <= 1.0
}

// BucketCenters performs the grid-bucketing step of Algorithm 1: overlay a
// chunks×chunks grid on the (xs, ys) sample, drop cells at or below the
// threshold, and return the centre of every surviving cell together with
// its count as the regression weight. threshold ≤ 0 selects the mean cell
// occupancy automatically.
func BucketCenters(xs, ys []float64, chunks, threshold int) (cx, cy, w []float64) {
	if len(xs) == 0 {
		return nil, nil, nil
	}
	xmin, xmax := stats.MinMax(xs)
	ymin, ymax := stats.MinMax(ys)
	if xmax == xmin || ymax == ymin {
		return nil, nil, nil
	}
	wx := (xmax - xmin) / float64(chunks)
	wy := (ymax - ymin) / float64(chunks)

	counts := make([]int, chunks*chunks)
	for i := range xs {
		bx := cellSlot(xs[i], xmin, wx, chunks)
		by := cellSlot(ys[i], ymin, wy, chunks)
		counts[bx*chunks+by]++
	}
	if threshold <= 0 {
		occupied := 0
		for _, c := range counts {
			if c > 0 {
				occupied++
			}
		}
		if occupied == 0 {
			return nil, nil, nil
		}
		threshold = len(xs) / occupied // mean occupancy of non-empty cells
	}
	for bx := 0; bx < chunks; bx++ {
		for by := 0; by < chunks; by++ {
			c := counts[bx*chunks+by]
			if c > threshold {
				cx = append(cx, xmin+(float64(bx)+0.5)*wx)
				cy = append(cy, ymin+(float64(by)+0.5)*wy)
				w = append(w, float64(c))
			}
		}
	}
	return cx, cy, w
}

func cellSlot(v, min, width float64, chunks int) int {
	s := int((v - min) / width)
	if s < 0 {
		s = 0
	}
	if s >= chunks {
		s = chunks - 1
	}
	return s
}
