package stats

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Errorf("Mean = %g, want 5", m)
	}
	if v := Variance(xs); v != 4 {
		t.Errorf("Variance = %g, want 4", v)
	}
	if sd := StdDev(xs); sd != 2 {
		t.Errorf("StdDev = %g, want 2", sd)
	}
}

func TestMeanEmptyAndVarianceSmall(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) should be 0")
	}
	if Variance([]float64{42}) != 0 {
		t.Error("Variance of a single value should be 0")
	}
}

func TestMinMax(t *testing.T) {
	min, max := MinMax([]float64{3, -1, 7, 0})
	if min != -1 || max != 7 {
		t.Errorf("MinMax = (%g,%g), want (-1,7)", min, max)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 5}, {0.5, 3}, {0.25, 2}, {0.75, 4},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("Quantile of empty data should be NaN")
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{5, 1, 3}
	Quantile(xs, 0.5)
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 3 {
		t.Error("Quantile must not reorder its input")
	}
}

func TestQuantilesBoundaries(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	b := Quantiles(xs, 4)
	if len(b) != 5 {
		t.Fatalf("Quantiles returned %d boundaries, want 5", len(b))
	}
	if b[0] != 0 || b[4] != 999 {
		t.Errorf("extreme boundaries = %g, %g", b[0], b[4])
	}
	// Roughly equal counts per bucket.
	for i := 1; i < 4; i++ {
		want := float64(i) * 999 / 4
		if !almostEqual(b[i], want, 2) {
			t.Errorf("boundary %d = %g, want ≈ %g", i, b[i], want)
		}
	}
	if !sort.Float64sAreSorted(b) {
		t.Error("boundaries must be ascending")
	}
}

// columns returns random test columns: continuous, few distinct values,
// all equal, presorted and reversed.
func columns(rng *rand.Rand, trials, maxN int) [][]float64 {
	var out [][]float64
	for trial := 0; trial < trials; trial++ {
		n := 1 + rng.Intn(maxN)
		v := make([]float64, n)
		distinct := 1 + rng.Intn(n)
		for i := range v {
			switch trial % 5 {
			case 0:
				v[i] = rng.NormFloat64() * 1e3
			case 1:
				v[i] = float64(rng.Intn(distinct)) - float64(distinct)/2
			case 2:
				v[i] = 7
			case 3:
				v[i] = float64(i)
			case 4:
				v[i] = float64(n - i)
			}
		}
		out = append(out, v)
	}
	return out
}

// SelectRanks must put at every asked rank the value a full sort puts
// there, bit for bit, and only permute the slice; ranks may repeat.
func TestSelectRanksMatchSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial, v := range columns(rng, 500, 3000) {
		sorted := append([]float64(nil), v...)
		sort.Float64s(sorted)
		ranks := make([]int, rng.Intn(50))
		for i := range ranks {
			ranks[i] = rng.Intn(len(v))
		}
		sort.Ints(ranks)
		SelectRanks(v, ranks)
		for _, r := range ranks {
			if math.Float64bits(v[r]) != math.Float64bits(sorted[r]) {
				t.Fatalf("trial %d (n=%d): rank %d holds %v, sorting gives %v", trial, len(v), r, v[r], sorted[r])
			}
		}
		sort.Float64s(v)
		if !slices.Equal(v, sorted) {
			t.Fatalf("trial %d: SelectRanks is not a permutation", trial)
		}
	}
}

// Quantiles selects only the ranks the interpolation reads, and must give
// the boundaries QuantileSorted computes over a full sort, bit for bit.
func TestQuantilesMatchSort(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial, v := range columns(rng, 500, 3000) {
		k := 1 + rng.Intn(64)
		sorted := append([]float64(nil), v...)
		sort.Float64s(sorted)
		got := Quantiles(v, k)
		if len(got) != k+1 {
			t.Fatalf("trial %d: %d boundaries for k=%d", trial, len(got), k)
		}
		for i, g := range got {
			if want := QuantileSorted(sorted, float64(i)/float64(k)); math.Float64bits(g) != math.Float64bits(want) {
				t.Fatalf("trial %d (n=%d k=%d): boundary %d is %v, sorting gives %v", trial, len(v), k, i, g, want)
			}
		}
	}
	if got := Quantiles(nil, 2); len(got) != 3 || !math.IsNaN(got[0]) || !math.IsNaN(got[2]) {
		t.Errorf("Quantiles of no data = %v, want three NaNs", got)
	}
}

func TestPearson(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	if r := Pearson(xs, ys); !almostEqual(r, 1, 1e-12) {
		t.Errorf("perfect positive correlation: r = %g", r)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if r := Pearson(xs, neg); !almostEqual(r, -1, 1e-12) {
		t.Errorf("perfect negative correlation: r = %g", r)
	}
	if r := Pearson(xs, []float64{3, 3, 3, 3, 3}); r != 0 {
		t.Errorf("constant column: r = %g, want 0", r)
	}
	if r := Pearson(xs, []float64{1, 2}); r != 0 {
		t.Errorf("length mismatch: r = %g, want 0", r)
	}
}

func TestHistogram(t *testing.T) {
	xs := []float64{0, 0.1, 0.5, 0.9, 1.0}
	h := Histogram(xs, 2, 0, 1)
	// Bin 0 covers [0, 0.5), bin 1 covers [0.5, 1] (upper edge inclusive).
	if h[0] != 2 || h[1] != 3 {
		t.Errorf("Histogram = %v, want [2 3]", h)
	}
	// Out-of-range values are dropped.
	h = Histogram([]float64{-1, 2}, 2, 0, 1)
	if h[0] != 0 || h[1] != 0 {
		t.Errorf("out-of-range values should be ignored: %v", h)
	}
}

func TestKLFromUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	uniform := make([]float64, 50000)
	for i := range uniform {
		uniform[i] = rng.Float64()
	}
	if kl := KLFromUniform(uniform, 32); kl > 0.01 {
		t.Errorf("uniform data should have tiny KL, got %g", kl)
	}

	skewed := make([]float64, 50000)
	for i := range skewed {
		skewed[i] = math.Pow(rng.Float64(), 8)
	}
	klSkew := KLFromUniform(skewed, 32)
	if klSkew < 0.5 {
		t.Errorf("heavily skewed data should have large KL, got %g", klSkew)
	}

	if kl := KLFromUniform([]float64{1, 1, 1}, 8); !almostEqual(kl, math.Log(8), 1e-12) {
		t.Errorf("constant column KL = %g, want log(8)", kl)
	}
}

func TestSampleIndices(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	got := SampleIndices(100, 10, rng)
	if len(got) != 10 {
		t.Fatalf("len = %d, want 10", len(got))
	}
	seen := map[int]bool{}
	for _, i := range got {
		if i < 0 || i >= 100 {
			t.Fatalf("index %d out of range", i)
		}
		if seen[i] {
			t.Fatalf("duplicate index %d", i)
		}
		seen[i] = true
	}
	// k >= n returns all indices.
	all := SampleIndices(5, 10, rng)
	if len(all) != 5 {
		t.Fatalf("k>n should return n indices, got %d", len(all))
	}
}

// Property: SampleIndices always returns distinct, in-range indices.
func TestSampleIndicesProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(500)
		k := 1 + r.Intn(500)
		out := SampleIndices(n, k, r)
		wantLen := k
		if k > n {
			wantLen = n
		}
		if len(out) != wantLen {
			return false
		}
		seen := map[int]bool{}
		for _, i := range out {
			if i < 0 || i >= n || seen[i] {
				return false
			}
			seen[i] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestReservoir(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	r := NewReservoir(100, rng)
	for i := 0; i < 10000; i++ {
		r.Push(float64(i))
	}
	if r.Seen() != 10000 {
		t.Errorf("Seen = %d", r.Seen())
	}
	s := r.Sample()
	if len(s) != 100 {
		t.Fatalf("sample size = %d, want 100", len(s))
	}
	// The sample mean should be near the stream mean (weak but real check).
	if m := Mean(s); m < 3000 || m > 7000 {
		t.Errorf("reservoir sample mean %g implausibly far from 5000", m)
	}
}

func TestReservoirSmallStream(t *testing.T) {
	r := NewReservoir(10, rand.New(rand.NewSource(1)))
	r.Push(1)
	r.Push(2)
	if len(r.Sample()) != 2 {
		t.Errorf("reservoir over short stream should keep everything")
	}
}
