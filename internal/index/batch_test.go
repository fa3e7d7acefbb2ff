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

// lateCols is a column source over a window whose page starts out NaN: Pull
// copies the values in from the full page and records which column and
// window rows it was asked for. A consumer that reads a value nobody
// pulled reads NaN, and its result shows it.
type lateCols struct {
	full, page []float64 // the window's page, whole and as the batch reads it
	m, at      int       // page rows; the window's first row in the page
	base       int       // the window's first row in the source's numbering
	pulls      []pull
}

type pull struct {
	col  int
	rows []int // window rows
}

func (c *lateCols) Pull(k, lo, hi int) {
	p := pull{col: k}
	for i := lo - c.base; i < hi-c.base; i++ {
		p.rows = append(p.rows, i)
		c.page[k*c.m+c.at+i] = c.full[k*c.m+c.at+i]
	}
	c.pulls = append(c.pulls, p)
}

// Select tests column k as a source that keeps no codes must: it pulls the
// rows it tests — the window, or from the first row still selected to the
// last — and runs the float kernel over them.
func (c *lateCols) Select(k int, lo, hi float64, at, rows int, sel []uint64, and bool) int {
	from, to := 0, rows
	if and {
		from, to = SelRange(sel)
	}
	c.Pull(k, at+from, at+to)
	RangeBits(c.page[k*c.m+c.at+at-c.base:], 1, rows, lo, hi, sel, and)
	return rows
}

// pulled reports the columns pulled at any row since the last call, in
// order of first pull, and clears the record.
func (c *lateCols) pulled() []int {
	var cols []int
	for _, p := range c.pulls {
		if len(p.rows) > 0 && !slices.Contains(cols, p.col) {
			cols = append(cols, p.col)
		}
	}
	c.pulls = c.pulls[:0]
	return cols
}

// rowsPulled reports the window rows at which column k was pulled since
// the last call to pulled, ascending.
func (c *lateCols) rowsPulled(k int) []int {
	var rows []int
	for _, p := range c.pulls {
		if p.col == k {
			rows = append(rows, p.rows...)
		}
	}
	slices.Sort(rows)
	return slices.Compact(rows)
}

// spans reports whether pulled holds every row of need and no row outside
// the first to the last of them.
func spans(pulled, need []int) bool {
	for _, i := range need {
		if !slices.Contains(pulled, i) {
			return false
		}
	}
	for _, i := range pulled {
		if len(need) == 0 || i < need[0] || i > need[len(need)-1] {
			return false
		}
	}
	return true
}

// selectedRows lists the rows whose bits are set in sel.
func selectedRows(sel []uint64) []int {
	var rows []int
	for i := 0; i < len(sel)*64; i++ {
		if sel[i>>6]&(1<<(i&63)) != 0 {
			rows = append(rows, i)
		}
	}
	return rows
}

// lateWindowOf is windowOf with every value left to a lateCols source.
func lateWindowOf(rows []float64, n, dims, m, at, base int) (*Batch, *lateCols) {
	b := windowOf(rows, n, dims, m, at)
	full := b.Page[:cap(b.Page)]
	page := make([]float64, len(full)+at)
	for i := range page {
		page[i] = math.NaN()
	}
	src := &lateCols{full: append(make([]float64, at), full...), page: page, m: m, at: at, base: base}
	b.Page, b.Cols, b.ColsRow = page[at:at+len(b.Page)], src, base
	return b, src
}

// TestLateColumnsMatchInPlace: a window whose columns arrive through a
// column source selects, folds and hands out rows exactly as the same rows
// in place, and is pulled only where each consumer reads: Select the
// columns it tests, an aggregate its value and group columns over the
// selected rows (an ungrouped COUNT none), a row fold every column from
// the first selected row to the last it keeps, and only while it has room.
func TestLateColumnsMatchInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	for trial := 0; trial < 400; trial++ {
		dims := 1 + rng.Intn(12)
		n := 1 + rng.Intn(200)
		m := n + rng.Intn(3)*rng.Intn(40)
		at := rng.Intn(m - n + 1)
		rows := make([]float64, n*dims)
		for i := range rows {
			rows[i] = math.Round((rng.Float64()*4-2)*8) / 8
		}
		r := randRect(rng, dims)
		constrained := []int{}
		for d := 0; d < dims; d++ {
			if rng.Intn(3) == 0 {
				r.Min[d], r.Max[d] = math.Inf(-1), math.Inf(1)
			} else {
				constrained = append(constrained, d)
			}
		}
		var s RectSel
		s.Prepare(r)
		words := BatchWords(n)
		want := &Batch{Page: rows, Dims: dims, Rows: n, RowStep: dims, ColStep: 1, Sel: make([]uint64, words)}
		got, src := lateWindowOf(rows, n, dims, m, at, rng.Intn(3000))
		got.Sel = make([]uint64, words)
		s.Select(want)
		s.Select(got)
		if !slices.Equal(got.Sel, want.Sel) {
			t.Fatalf("trial %d: selection %x, in place %x", trial, got.Sel, want.Sel)
		}
		for _, k := range src.pulled() {
			if !slices.Contains(constrained, k) {
				t.Fatalf("trial %d: Select pulled column %d, which the rectangle leaves open", trial, k)
			}
		}
		for _, spec := range []AggSpec{
			{Op: AggCount, Col: -1, Group: -1},
			{Op: AggSum, Col: rng.Intn(dims), Group: -1},
			{Op: AggMax, Col: rng.Intn(dims), Group: rng.Intn(dims)},
			{Op: AggCount, Col: -1, Group: rng.Intn(dims)},
		} {
			a, b := NewAggState(spec), NewAggState(spec)
			a.FoldBatch(got)
			b.FoldBatch(want)
			if a.All != b.All || len(a.Groups) != len(b.Groups) {
				t.Fatalf("trial %d %+v: fold %+v, in place %+v", trial, spec, a.All, b.All)
			}
			for k, c := range b.Groups {
				if a.Groups[k] == nil || *a.Groups[k] != *c {
					t.Fatalf("trial %d %+v: group %v folds %+v, in place %+v", trial, spec, k, a.Groups[k], c)
				}
			}
			for _, k := range []int{spec.Group, spec.Col} {
				if k >= 0 && !spans(src.rowsPulled(k), selectedRows(want.Sel)) && (k == spec.Group || spec.Op != AggCount) {
					t.Fatalf("trial %d %+v: column %d pulled at rows %v, want the selected %v", trial, spec, k, src.rowsPulled(k), selectedRows(want.Sel))
				}
			}
			for _, k := range src.pulled() {
				if k != spec.Group && (k != spec.Col || spec.Op == AggCount) {
					t.Fatalf("trial %d %+v: the fold pulled column %d", trial, spec, k)
				}
			}
		}
		for _, keep := range []int{0, 1, rng.Intn(n + 1), -1} {
			a, b := &RowsState{Keep: keep}, &RowsState{Keep: -1}
			a.FoldBatch(got)
			b.FoldBatch(want)
			if a.Count != b.Count || !slices.Equal(a.Rows, b.Rows[:a.Held()*dims]) {
				t.Fatalf("trial %d keep %d: RowsState holds %v of %d, in place %v of %d", trial, keep, a.Rows, a.Count, b.Rows, b.Count)
			}
			if kept := selectedRows(want.Sel)[:a.Held()]; a.Held() > 0 && !spans(src.rowsPulled(dims-1), kept) {
				t.Fatalf("trial %d keep %d: last column pulled at rows %v, want the kept %v", trial, keep, src.rowsPulled(dims-1), kept)
			}
			if pulled := src.pulled(); a.Held() == 0 && len(pulled) > 0 {
				t.Fatalf("trial %d keep %d: a fold that kept no row pulled columns %v", trial, keep, pulled)
			}
			full := a.Held() == keep
			if a.FoldBatch(got); len(src.pulled()) > 0 && full {
				t.Fatalf("trial %d keep %d: a fold with no room pulled columns", trial, keep)
			}
		}
		var each [][]float64
		got.Each(func(row []float64) bool { each = append(each, slices.Clone(row)); return true })
		i := 0
		want.Each(func(row []float64) bool {
			if !slices.Equal(each[i], row) {
				t.Fatalf("trial %d: Each row %d = %v, in place %v", trial, i, each[i], row)
			}
			i++
			return true
		})
		for i := 0; i < n; i++ {
			if g, w := got.Row(i), want.Row(i); !slices.Equal(g, w) {
				t.Fatalf("trial %d: Row(%d) = %v, in place %v", trial, i, g, w)
			}
		}
	}
}

// TestSelectStopsPullingOnceEmpty: when the first tested column leaves no
// row selected, Select pulls no other column.
func TestSelectStopsPullingOnceEmpty(t *testing.T) {
	const n, dims = 300, 3
	rows := make([]float64, n*dims)
	for i := range rows {
		rows[i] = float64(i % 7)
	}
	r := Full(dims)
	r.Min[0], r.Max[0] = 10, 20 // no row
	r.Min[2], r.Max[2] = 0, 3
	var s RectSel
	s.Prepare(r)
	b, src := lateWindowOf(rows, n, dims, n, 0, 1024)
	b.Sel = make([]uint64, BatchWords(n))
	s.Select(b)
	if pulled := src.pulled(); b.Selected() != 0 || !slices.Equal(pulled, []int{0}) {
		t.Fatalf("%d rows selected after pulling columns %v; want none after pulling column 0 only", b.Selected(), pulled)
	}
}
