package index

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// windowOf lays the row-major window rows (n ≥ 1 rows of dims values) out
// as a column-major page of m ≥ n rows whose window starts at row at, the
// way a grid-file span of a resident page reads: value (i, k) at
// Page[i + k*m]. The rest of the page is NaN, so a read outside the window
// shows.
func windowOf(rows []float64, n, dims, m, at int) *Batch {
	page := make([]float64, m*dims)
	for i := range page {
		page[i] = math.NaN()
	}
	for i := 0; i < n; i++ {
		for k := 0; k < dims; k++ {
			page[k*m+at+i] = rows[i*dims+k]
		}
	}
	end := (dims-1)*m + at + n // just past the window's last value, where a span ends
	return &Batch{Page: page[at:end], Dims: dims, Rows: n, RowStep: 1, ColStep: m}
}

// TestColumnMajorWindowsMatchRowMajor: a window read through steps (1, m)
// selects, hands out rows and folds exactly as the same rows read
// row-major — including one-row pages, where the two steps coincide, and
// rows wider than the Batch's inline row scratch.
func TestColumnMajorWindowsMatchRowMajor(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	for trial := 0; trial < 400; trial++ {
		dims := 1 + rng.Intn(20)
		n := 1 + rng.Intn(150)
		if trial%5 == 0 {
			n = 1
		}
		m := n + rng.Intn(3)*rng.Intn(40) // the page may hold rows beyond the window
		at := rng.Intn(m - n + 1)
		rows := make([]float64, n*dims)
		for i := range rows {
			rows[i] = math.Round((rng.Float64()*4-2)*8) / 8
		}
		r := randRect(rng, dims)
		for d := 0; d < dims; d++ {
			if rng.Intn(3) == 0 {
				r.Min[d], r.Max[d] = math.Inf(-1), math.Inf(1)
			}
		}
		var s RectSel
		s.Prepare(r)
		words := BatchWords(n)
		want := &Batch{Page: rows, Dims: dims, Rows: n, RowStep: dims, ColStep: 1, Sel: make([]uint64, words)}
		got := windowOf(rows, n, dims, m, at)
		got.Sel = make([]uint64, words)
		s.Select(want)
		s.Select(got)
		if !slices.Equal(got.Sel, want.Sel) {
			t.Fatalf("trial %d (%d×%d of a %d-row page): selection %x, row-major %x", trial, n, dims, m, got.Sel, want.Sel)
		}
		for i := 0; i < n; i++ {
			if g, w := got.Row(i), want.Row(i); !slices.Equal(g, w) || cap(g) != dims {
				t.Fatalf("trial %d: Row(%d) = %v (cap %d), row-major %v", trial, i, g, cap(g), w)
			}
		}
		for _, spec := range []AggSpec{
			{Op: AggSum, Col: rng.Intn(dims), Group: -1},
			{Op: AggMin, Col: rng.Intn(dims), Group: rng.Intn(dims)},
			{Op: AggCount, Col: -1, Group: rng.Intn(dims)},
		} {
			a, b := NewAggState(spec), NewAggState(spec)
			a.FoldBatch(got)
			b.FoldBatch(want)
			if a.All != b.All || len(a.Groups) != len(b.Groups) {
				t.Fatalf("trial %d %+v: fold %+v, row-major %+v", trial, spec, a.All, b.All)
			}
			for k, c := range b.Groups {
				if a.Groups[k] == nil || *a.Groups[k] != *c {
					t.Fatalf("trial %d %+v: group %v folds %+v, row-major %+v", trial, spec, k, a.Groups[k], c)
				}
			}
		}
		a, b := &RowsState{Keep: rng.Intn(n + 1)}, &RowsState{Keep: -1}
		a.FoldBatch(got)
		b.FoldBatch(want)
		if a.Count != b.Count || !slices.Equal(a.Rows, b.Rows[:a.Held()*dims]) {
			t.Fatalf("trial %d: RowsState holds %v of %d, row-major %v of %d", trial, a.Rows, a.Count, b.Rows, b.Count)
		}
	}
}

// TestRowGathersWithoutAllocating: gathering a row of a column-major window
// allocates nothing while the row fits the Batch's inline scratch, and a
// wider one allocates once per Batch, not once per row.
func TestRowGathersWithoutAllocating(t *testing.T) {
	for _, dims := range []int{4, 16, 40} {
		rows := make([]float64, 64*dims)
		b := windowOf(rows, 64, dims, 64, 0)
		b.Row(0)
		if a := testing.AllocsPerRun(100, func() {
			for i := 0; i < b.Rows; i++ {
				b.Row(i)
			}
		}); a != 0 {
			t.Errorf("%d dims: %v allocations per 64 gathered rows", dims, a)
		}
	}
}
