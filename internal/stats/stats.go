// Package stats provides the statistical primitives shared by the soft-FD
// learner, the dataset generators, and the theory module: moments, quantiles,
// histograms, correlation, KL divergence, and reservoir sampling.
package stats

import (
	"math"
	"math/rand/v2"
	"slices"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs, or 0 when len(xs) < 2.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// MinMax returns the smallest and largest value in xs. It panics on an
// empty slice because callers always operate on non-empty columns.
func MinMax(xs []float64) (min, max float64) {
	min, max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between order statistics. xs is not modified.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return QuantileSorted(sorted, q)
}

// QuantileSorted is Quantile for data already in ascending order.
func QuantileSorted(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Quantiles returns k+1 boundary values splitting xs into k equal-count
// buckets: the 0, 1/k, 2/k, …, 1 quantiles, bit for bit what
// QuantileSorted reads off xs sorted. Used by the grid file to place grid
// lines along the CDF. It reorders xs: only the ranks the interpolation
// reads are selected (SelectRanks), not the whole slice sorted.
func Quantiles(xs []float64, k int) []float64 {
	ranks := make([]int, 0, 2*(k+1))
	for i := 0; i <= k; i++ {
		pos := float64(i) / float64(k) * float64(len(xs)-1)
		for _, r := range [2]int{int(math.Floor(pos)), int(math.Ceil(pos))} {
			if len(ranks) == 0 || r > ranks[len(ranks)-1] {
				ranks = append(ranks, r)
			}
		}
	}
	SelectRanks(xs, ranks)
	out := make([]float64, k+1)
	for i := range out {
		out[i] = QuantileSorted(xs, float64(i)/float64(k))
	}
	return out
}

// SelectRanks reorders v so that v[r] holds the value of rank r — the value
// sorting v would put there — for every r of ranks (ascending, inside
// [0, len(v))): a quickselect with a three-way partition around the median
// of three values drawn from a fixed-seed generator (fixed pivots degrade
// to quadratic time on a presorted column, since the partition reverses
// its upper part), which goes on only into the parts holding a rank. A
// slice already in order is left as it is after one pass.
func SelectRanks(v []float64, ranks []int) {
	if slices.IsSorted(v) {
		return
	}
	selectRanks(v, 0, len(v), ranks, rand.New(rand.NewPCG(1, 2)))
}

func selectRanks(v []float64, lo, hi int, ranks []int, rng *rand.Rand) {
	for len(ranks) > 0 && hi-lo > 1 {
		a, b, c := v[lo+rng.IntN(hi-lo)], v[lo+rng.IntN(hi-lo)], v[lo+rng.IntN(hi-lo)]
		pivot := max(min(a, b), min(max(a, b), c))
		// v[lo:lt] < pivot, v[lt:i] == pivot, v[gt:hi] > pivot.
		lt, i, gt := lo, lo, hi
		for i < gt {
			switch x := v[i]; {
			case x < pivot:
				v[lt], v[i] = x, v[lt]
				lt++
				i++
			case x > pivot:
				gt--
				v[gt], v[i] = x, v[gt]
			default:
				i++
			}
		}
		selectRanks(v, lo, lt, ranks[:sort.SearchInts(ranks, lt)], rng)
		ranks, lo = ranks[sort.SearchInts(ranks, gt):], gt
	}
}

// Pearson returns the Pearson correlation coefficient between xs and ys.
// It returns 0 when either column is constant.
func Pearson(xs, ys []float64) float64 {
	n := len(xs)
	if n != len(ys) || n < 2 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := 0; i < n; i++ {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// Histogram counts xs into bins uniform bins over [min, max]. Values at the
// upper edge land in the last bin.
func Histogram(xs []float64, bins int, min, max float64) []int {
	counts := make([]int, bins)
	if max <= min || bins == 0 {
		return counts
	}
	w := (max - min) / float64(bins)
	for _, x := range xs {
		if x < min || x > max {
			continue
		}
		b := int((x - min) / w)
		if b >= bins {
			b = bins - 1
		}
		counts[b]++
	}
	return counts
}

// KLFromUniform computes D_KL(P ‖ uniform) over the empirical distribution
// of xs discretised into bins uniform bins (paper §B.3, Eq. 7). Smaller
// values mean the data is closer to uniform, the regime where the CSM
// analysis is tight.
func KLFromUniform(xs []float64, bins int) float64 {
	if len(xs) == 0 || bins <= 0 {
		return 0
	}
	min, max := MinMax(xs)
	if max == min {
		// A constant column is maximally concentrated: all mass in one of
		// bins cells.
		return math.Log(float64(bins))
	}
	counts := Histogram(xs, bins, min, max)
	n := float64(len(xs))
	u := 1.0 / float64(bins)
	kl := 0.0
	for _, c := range counts {
		if c == 0 {
			continue
		}
		p := float64(c) / n
		kl += p * math.Log(p/u)
	}
	if kl < 0 {
		kl = 0 // guard against rounding
	}
	return kl
}
