package mmapsnap

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/coax-index/coax/internal/gridfile"
	"github.com/coax-index/coax/internal/index"
)

// sentinel fills the scratch a page decodes into before a read: a value
// still holding its bits afterwards was never unpacked. No page value is a
// NaN (every build and insert refuses them), let alone this one.
var sentinel = math.Float64frombits(0x7ff8_dead_beef_0001)

// TestReadUnpacksOnlyWhatIsUsed reads one compressed 8-column page the way
// ScanBatch does — CellSpan, then per window of index.BatchRows rows a
// selection over a rectangle that tests 2 of the 8 columns (one integer
// and one XOR coded), then a fold — into scratch filled with a sentinel,
// and checks which values were unpacked: the sort column whole, and the
// tested columns nowhere, since the selection compares their codes; for a
// COUNT nothing else; for a SUM its own column only, at the selected rows;
// for a row fold keeping k rows every column, but only at the rows it
// keeps. "At" allows the rows between two needed ones of a window, which a
// pull unpacks in one run, and nothing outside them.
func TestReadUnpacksOnlyWhatIsUsed(t *testing.T) {
	const rows, dims, sortDim = 3000, 8, 1
	const sumCol = 4
	tested := []int{2, 5}
	rng := rand.New(rand.NewSource(41))
	page := make([]float64, rows*dims)
	for d := 0; d < dims; d++ {
		for r := 0; r < rows; r++ {
			if d%2 == 0 {
				page[d*rows+r] = float64(rng.Intn(1000))
			} else {
				page[d*rows+r] = 100 + rng.Float64()*900
			}
		}
	}
	keys := page[sortDim*rows : (sortDim+1)*rows]
	sort.Float64s(keys)
	store := pageStore(encodePage(page, rows, dims), rows, dims, sortDim)

	r := index.Full(dims)
	r.Min[sortDim], r.Max[sortDim] = keys[200], keys[2800]
	r.Min[2], r.Max[2] = 200, 500
	r.Min[5], r.Max[5] = 300, 800
	var rect index.RectSel
	rect.PrepareOpen(r, func(d int) bool { return d == sortDim }) // the span proves the sort column

	// read folds the page's windows and returns the scratch, the span's
	// first row, and the page rows each window selected.
	read := func(fold index.BatchYield) (vals []float64, first int, selected [][]int) {
		sc := gridfile.Scratch{Vals: make([]float64, rows*dims)}
		for i := range sc.Vals {
			sc.Vals[i] = sentinel
		}
		span, first, ok := store.CellSpan(0, r.Min[sortDim], r.Max[sortDim], &sc)
		if !ok || span.Cols == nil {
			t.Fatalf("CellSpan: ok %v, column source %v: %v", ok, span.Cols, store.errs.get())
		}
		var sel [index.BatchRows / 64]uint64
		for at := 0; at < span.Rows; at += index.BatchRows {
			b := index.Batch{Page: span.Data[at*span.RowStep:], Dims: dims, Rows: min(span.Rows-at, index.BatchRows),
				RowStep: span.RowStep, ColStep: span.ColStep, Cols: span.Cols, ColsRow: at}
			b.Sel = sel[:index.BatchWords(b.Rows)]
			if tests := rect.Select(&b); tests != b.Rows*len(tested) {
				t.Fatalf("window at %d: %d tests over %d rows, want %d columns' worth", at, tests, b.Rows, len(tested))
			}
			var in []int
			for i := 0; i < b.Rows; i++ {
				if b.Sel[i>>6]&(1<<(i&63)) != 0 {
					in = append(in, first+at+i)
				}
			}
			selected = append(selected, in)
			fold(&b)
		}
		return sc.Vals, first, selected
	}
	unpacked := func(vals []float64, k, row int) bool {
		return math.Float64bits(vals[k*rows+row]) != math.Float64bits(sentinel)
	}
	// only requires column k to be unpacked at exactly the rows inside
	// reports.
	only := func(label string, vals []float64, k int, inside func(row int) bool) {
		t.Helper()
		for row := 0; row < rows; row++ {
			if got, want := unpacked(vals, k, row), inside(row); got != want {
				t.Fatalf("%s: column %d row %d unpacked %v, want %v", label, k, row, got, want)
			}
		}
	}
	// between requires column k to be unpacked at every row of need and
	// nowhere outside the rows from the first to the last of them in one
	// window: a pull unpacks the rows between those it needs in one run.
	between := func(label string, vals []float64, k, first int, need []int) {
		t.Helper()
		window := func(row int) int { return (row - first) / index.BatchRows }
		for row := 0; row < rows; row++ {
			inRun := false
			for i, nr := range need {
				if nr == row {
					inRun = true
					break
				}
				if i > 0 && need[i-1] < row && row < nr && window(need[i-1]) == window(nr) {
					inRun = true
				}
			}
			if got := unpacked(vals, k, row); got && !inRun || !got && slices.Contains(need, row) {
				t.Fatalf("%s: column %d row %d unpacked %v", label, k, row, got)
			}
		}
	}
	// common holds what every read unpacks: the sort column whole.
	common := func(label string, vals []float64) {
		t.Helper()
		only(label, vals, sortDim, func(int) bool { return true })
	}
	notSort := func(k int) bool { return k != sortDim }

	count := index.NewAggState(index.AggSpec{Op: index.AggCount, Col: -1, Group: -1})
	vals, first, selected := read(count.FoldBatch)
	if len(selected) < 3 {
		t.Fatalf("the span has %d windows; the test needs 3", len(selected))
	}
	want := 0
	for row := 0; row < rows; row++ {
		if r.Contains(gridfile.ColumnMajor(page, rows, dims).AppendRow(nil, row, dims)) {
			want++
		}
	}
	if count.All.Count != int64(want) {
		t.Fatalf("COUNT %d, the page holds %d", count.All.Count, want)
	}
	common("COUNT", vals)
	for k := 0; k < dims; k++ {
		if notSort(k) {
			only("COUNT", vals, k, func(int) bool { return false })
		}
	}

	sum := index.NewAggState(index.AggSpec{Op: index.AggSum, Col: sumCol, Group: -1})
	vals, first, selected = read(sum.FoldBatch)
	common("SUM", vals)
	var wantSum float64
	for _, in := range selected {
		for _, row := range in {
			wantSum += page[sumCol*rows+row]
		}
	}
	if sum.All.Count != int64(want) || sum.All.Sum != wantSum {
		t.Fatalf("SUM %v over %d rows, want %v over %d", sum.All.Sum, sum.All.Count, wantSum, want)
	}
	for k := 0; k < dims; k++ {
		if k == sumCol {
			between("SUM", vals, k, first, slices.Concat(selected...))
		} else if notSort(k) {
			only("SUM", vals, k, func(int) bool { return false })
		}
	}

	// Keep every selected row of the first window and a few of the second:
	// the third window is never pulled.
	keep := len(selected[0]) + 5
	held := &index.RowsState{Keep: keep}
	vals, first, selected = read(held.FoldBatch)
	common("rows", vals)
	if held.Held() != keep || held.Count != int64(want) {
		t.Fatalf("RowsState holds %d rows of %d, want %d of %d", held.Held(), held.Count, keep, want)
	}
	kept := append(append([]int(nil), selected[0]...), selected[1][:5]...)
	for i, row := range kept {
		if !sameBits(held.Row(i), gridfile.ColumnMajor(page, rows, dims).AppendRow(nil, row, dims)) {
			t.Fatalf("held row %d is not page row %d", i, row)
		}
	}
	for k := 0; k < dims; k++ {
		if notSort(k) {
			between("rows", vals, k, first, kept)
		}
	}
}

// TestPageColsPulls drives a page's column source with random pulls, over
// spans that start anywhere in their page, into scratch filled with a
// sentinel, and requires every pulled value to be in place, every value
// unpacked to equal the fully decoded page's, and a pull of rows a pull of
// the same column just unpacked to unpack nothing.
func TestPageColsPulls(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 500; iter++ {
		page, rows, dims, sortDim := randomPage(rng)
		blob := encodePage(page, rows, dims)
		if iter%4 == 3 {
			blob = encodePagePacked(page, rows, dims, []int{1, 57, 58, 64}[rng.Intn(4)])
		}
		min, max := randomWindow(rng, page, rows, dims, sortDim)
		sc := gridfile.Scratch{Vals: make([]float64, rows*dims)}
		for i := range sc.Vals {
			sc.Vals[i] = sentinel
		}
		span, first, ok := pageStore(blob, rows, dims, sortDim).CellSpan(0, min, max, &sc)
		if !ok {
			t.Fatalf("iter %d: CellSpan failed", iter)
		}
		if span.Cols == nil {
			continue // an empty span has nothing to pull
		}
		src := sc.Cols.(*pageCols)
		pulled := map[[2]int]bool{} // column, span row
		for p := 0; p < 12; p++ {
			k, lo := rng.Intn(dims), rng.Intn(span.Rows)
			hi := lo + rng.Intn(span.Rows-lo+1)
			src.Pull(k, lo, hi)
			for i := lo; i < hi; i++ {
				pulled[[2]int{k, i}] = true
			}
			before := src.unpacked
			src.Pull(k, lo+(hi-lo)/3, hi-(hi-lo)/3)
			if src.unpacked != before {
				t.Fatalf("iter %d: pulling rows of column %d already unpacked unpacked %d values", iter, k, src.unpacked-before)
			}
			for i, v := range sc.Vals[:rows*dims] {
				k, row := i/rows, i%rows-first
				if math.Float64bits(v) == math.Float64bits(sentinel) {
					if pulled[[2]int{k, row}] {
						t.Fatalf("iter %d: column %d span row %d pulled but not unpacked", iter, k, row)
					}
				} else if math.Float64bits(v) != math.Float64bits(page[i]) {
					t.Fatalf("iter %d: column %d row %d holds %v, want %v", iter, k, i%rows, v, page[i])
				}
			}
		}
	}
}
