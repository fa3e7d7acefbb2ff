package gridfile

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/coax-index/coax/internal/binio"
	"github.com/coax-index/coax/internal/dataset"
	"github.com/coax-index/coax/internal/index"
	"github.com/coax-index/coax/internal/scan"
	"github.com/coax-index/coax/internal/stats"
)

// TestBuildDeterministic: two builds of one table encode to identical
// bytes, sorted and unsorted, with and without grid dimensions.
func TestBuildDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tab := dataset.NewTable([]string{"a", "b", "c"})
	for i := 0; i < 5000; i++ {
		tab.Append([]float64{rng.NormFloat64() * 10, rng.Float64() * 100, float64(rng.Intn(50))})
	}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"sorted", Config{GridDims: []int{0, 2}, SortDim: 1, CellsPerDim: 8, Mode: Quantile}},
		{"unsorted", Config{GridDims: []int{0, 1, 2}, SortDim: -1, CellsPerDim: 5, Mode: Quantile}},
		{"uniform", Config{GridDims: []int{1}, SortDim: 2, CellsPerDim: 6, Mode: Uniform}},
		{"no grid dims", Config{GridDims: nil, SortDim: 0, CellsPerDim: 4, Mode: Quantile}},
	} {
		var enc [2][]byte
		for i := range enc {
			g, err := Build(tab, tc.cfg)
			if err != nil {
				t.Fatalf("%s: Build: %v", tc.name, err)
			}
			w := binio.NewWriter()
			encode(g, w)
			enc[i] = w.Bytes()
		}
		if !bytes.Equal(enc[0], enc[1]) {
			t.Errorf("%s: two builds of one table encode differently", tc.name)
		}
	}
}

// TestStreamerKeepsArrivalOrder: Finish groups rows by cell stably, so with
// in-cell sorting off every cell lists its rows in the order they were
// added, whatever order the cells arrived in.
func TestStreamerKeepsArrivalOrder(t *testing.T) {
	const n = 20000
	rng := rand.New(rand.NewSource(31))
	cfg := Config{GridDims: []int{1, 2}, SortDim: -1, CellsPerDim: 7, Mode: Quantile}
	bounds := [][]float64{{0, 1, 2, 3, 4, 5, 6, 7}, {0, 1, 2, 3, 4, 5, 6, 7}}
	st, err := NewStreamer(3, cfg, bounds, -1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range n { // column 0 is the arrival number
		st.Add([]float64{float64(i), float64(rng.Intn(7)), float64(rng.Intn(7))})
	}
	g, err := st.Finish()
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]bool, n)
	for c := range g.NumCells() {
		page := g.cellPage(c)
		prev := -1.0
		for r := 0; r < page.Rows; r++ {
			row := page.AppendRow(nil, r, g.dims)
			if g.cellOf(row) != c {
				t.Fatalf("row %v placed in cell %d, belongs in %d", row, c, g.cellOf(row))
			}
			if row[0] <= prev {
				t.Fatalf("cell %d lists row %v after row %v", c, row[0], prev)
			}
			prev = row[0]
			seen[int(row[0])] = true
		}
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("row %d lost", i)
		}
	}
}

func TestStreamerSampleBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	full := make([]float64, 10000)
	for i := range full {
		full[i] = rng.ExpFloat64() * 42
	}
	cfg := Config{CellsPerDim: 16, Mode: Quantile}
	b, err := SampleBounds(full, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != 17 {
		t.Fatalf("got %d boundaries, want 17", len(b))
	}
	if !sort.Float64sAreSorted(b) {
		t.Fatal("boundaries not ascending")
	}
	if _, err := SampleBounds(nil, cfg); err == nil {
		t.Fatal("empty sample must error")
	}
}

func TestStreamerValidation(t *testing.T) {
	good := [][]float64{{0, 1, 2, 3, 4}}
	cases := []struct {
		name   string
		dims   int
		cfg    Config
		bounds [][]float64
	}{
		{"bad cells", 3, Config{CellsPerDim: 0}, nil},
		{"dim out of range", 3, Config{GridDims: []int{3}, SortDim: -1, CellsPerDim: 4}, good},
		{"dup dim", 3, Config{GridDims: []int{1, 1}, SortDim: -1, CellsPerDim: 4}, [][]float64{good[0], good[0]}},
		{"sort is grid", 3, Config{GridDims: []int{1}, SortDim: 1, CellsPerDim: 4}, good},
		{"bounds count", 3, Config{GridDims: []int{0, 1}, SortDim: -1, CellsPerDim: 4}, good},
		{"bounds over the maximum", 3, Config{GridDims: []int{0}, SortDim: -1, CellsPerDim: 3}, good},
		{"bounds under one cell", 3, Config{GridDims: []int{0}, SortDim: -1, CellsPerDim: 4}, [][]float64{{2}}},
		{"descending", 3, Config{GridDims: []int{0}, SortDim: -1, CellsPerDim: 4}, [][]float64{{4, 3, 2, 1, 0}}},
	}
	for _, tc := range cases {
		if _, err := NewStreamer(tc.dims, tc.cfg, tc.bounds, 0); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
	// Empty finish errors.
	st, err := NewStreamer(3, Config{GridDims: []int{0}, SortDim: -1, CellsPerDim: 4}, good, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Finish(); err == nil {
		t.Fatal("Finish on an empty streamer must error")
	}
}

// TestSampleBoundsPerValueCells: a column with d ≤ CellsPerDim distinct
// values gets d cells with its values as the boundaries, so each value has
// a slot of its own however skewed the column is — here one value holds
// 90 % of the rows.
func TestSampleBoundsPerValueCells(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tab := dataset.NewTable([]string{"v", "s"})
	counts := make([]int, 8)
	for range 10000 {
		v := 3
		if rng.Float64() >= 0.9 {
			v = 1 + rng.Intn(7)
		}
		tab.Append([]float64{float64(v), rng.Float64()})
		counts[v]++
	}
	cfg := Config{GridDims: []int{0}, SortDim: 1, CellsPerDim: 24, Mode: Quantile}
	b, err := SampleBounds(tab.Column(0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := []float64{1, 2, 3, 4, 5, 6, 7, 7}; !slices.Equal(b, want) {
		t.Fatalf("bounds %v, want %v", b, want)
	}
	g, err := Build(tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.AxisCells(); !slices.Equal(got, []int{7}) {
		t.Fatalf("cells per axis %v, want [7]", got)
	}
	for c, n := range g.CellSizes() {
		v := float64(c + 1)
		if n != counts[c+1] {
			t.Errorf("cell %d holds %d rows, value %v has %d", c, n, v, counts[c+1])
		}
		page := g.cellPage(c)
		for r := 0; r < page.Rows; r++ {
			if got := page.AppendRow(nil, r, g.dims)[0]; got != v {
				t.Fatalf("cell %d holds value %v beside %v", c, got, v)
			}
		}
	}
}

// TestSampleBoundsQuantilesAboveTheMaximum: a column with more distinct
// values than CellsPerDim keeps the quantile boundaries a full sort gives,
// bit for bit; one with exactly CellsPerDim values is cut at its values.
func TestSampleBoundsQuantilesAboveTheMaximum(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	cfg := Config{CellsPerDim: 24, Mode: Quantile}
	cont := make([]float64, 5000)
	for i := range cont {
		cont[i] = rng.NormFloat64() * 1e3
	}
	skewed := make([]float64, 5000) // 25 values, most rows on the smallest
	for i := range skewed {
		skewed[i] = float64(min(rng.Intn(25), rng.Intn(25)))
	}
	skewed[0], skewed[1] = 0, 24
	for name, col := range map[string][]float64{"continuous": cont, "25 values": skewed} {
		got, err := SampleBounds(col, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := sortBounds(col, 24)
		if len(got) != len(want) {
			t.Fatalf("%s: %d bounds, want %d", name, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: bound %d is %v, quantile %v", name, i, got[i], want[i])
			}
		}
	}
	exact := make([]float64, 1000)
	for i := range exact {
		exact[i] = float64(i % 24)
	}
	got, err := SampleBounds(exact, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 25 || got[0] != 0 || got[23] != 23 || got[24] != 23 {
		t.Fatalf("24 values: bounds %v, want 0…23 and 23 again", got)
	}
}

// sortBounds is Quantile placement as a full sort computes it — the
// reference SampleBounds' rank selection must match bit for bit: the
// column's distinct values (the largest repeated) when it holds at most
// cells of them, else the interpolated 0, 1/cells, …, 1 quantiles.
func sortBounds(col []float64, cells int) []float64 {
	sorted := slices.Clone(col)
	sort.Float64s(sorted)
	vals := sorted[:1:1]
	for _, v := range sorted[1:] {
		if v != vals[len(vals)-1] {
			vals = append(vals, v)
		}
	}
	if len(vals) <= cells {
		return append(vals, vals[len(vals)-1])
	}
	out := make([]float64, cells+1)
	for i := range out {
		out[i] = stats.QuantileSorted(sorted, float64(i)/float64(cells))
	}
	return out
}

// TestSampleBoundsMatchSort: selecting the interpolation ranks gives the
// bounds a full sort gives, bit for bit, on random columns of 1 to 5 000
// values at 1 to 64 cells — continuous, with cells−1, cells and cells+1
// distinct values, all equal, presorted and reversed — and leaves the
// column as it was.
func TestSampleBoundsMatchSort(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	for trial := 0; trial < 600; trial++ {
		n, cells := 1+rng.Intn(5000), 1+rng.Intn(64)
		col := make([]float64, n)
		kind := trial % 7
		distinct := max(cells-1+kind, 1) // kinds 0, 1, 2: cells−1, cells, cells+1 values
		for i := range col {
			switch kind {
			case 0, 1, 2:
				col[i] = float64(i%distinct)*0.37 - 3
			case 3:
				col[i] = rng.NormFloat64() * 1e3
			case 4:
				col[i] = 2.5
			case 5:
				col[i] = float64(i) * 1.5
			case 6:
				col[i] = float64(n-i) * 1.5
			}
		}
		if kind <= 3 {
			rng.Shuffle(n, func(i, j int) { col[i], col[j] = col[j], col[i] })
		}
		before := slices.Clone(col)
		got, err := SampleBounds(col, Config{CellsPerDim: cells, Mode: Quantile})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(col, before) {
			t.Fatalf("trial %d: SampleBounds reordered its input", trial)
		}
		want := sortBounds(col, cells)
		if len(got) != len(want) {
			t.Fatalf("trial %d (n=%d cells=%d kind %d): %d bounds, sorting gives %d", trial, n, cells, kind, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("trial %d (n=%d cells=%d kind %d): bound %d is %v, sorting gives %v", trial, n, cells, kind, i, got[i], want[i])
			}
		}
	}

	// The sort's order among −0 and +0 is no contract, so a column holding
	// both is held to it by value and by the slot every value lands in.
	negZero := math.Copysign(0, -1)
	for _, cells := range []int{2, 4, 24} {
		col := make([]float64, 2000)
		for i := range col {
			switch i % 4 {
			case 0:
				col[i] = negZero
			case 1:
				col[i] = 0
			default:
				col[i] = float64(rng.Intn(9) - 4)
			}
		}
		got, err := SampleBounds(col, Config{CellsPerDim: cells, Mode: Quantile})
		if err != nil {
			t.Fatal(err)
		}
		want := sortBounds(col, cells)
		if !slices.Equal(got, want) {
			t.Fatalf("±0 column at %d cells: bounds %v, sorting gives %v", cells, got, want)
		}
		for _, v := range col {
			if Slot(got, v) != Slot(want, v) {
				t.Fatalf("±0 column at %d cells: %v lands in slot %d, sorting's bounds put it in %d", cells, v, Slot(got, v), Slot(want, v))
			}
		}
	}
}

// TestTableBoundsKeepsRows: TableBounds places each grid axis over the
// rows keep accepts exactly as SampleBounds places it over those rows'
// column, and over every row when keep is nil.
func TestTableBoundsKeepsRows(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	tab := randomTable(rng, 3000, 3)
	cfg := Config{GridDims: []int{2, 0}, SortDim: 1, CellsPerDim: 16, Mode: Quantile}
	for _, keep := range []func(int) bool{nil, func(r int) bool { return r%3 == 0 }} {
		got, err := TableBounds(tab, keep, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, d := range cfg.GridDims {
			var col []float64
			for r := 0; r < tab.Len(); r++ {
				if keep == nil || keep(r) {
					col = append(col, tab.Row(r)[d])
				}
			}
			want, err := SampleBounds(col, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got[i], want) {
				t.Fatalf("axis %d: bounds %v, SampleBounds gives %v", i, got[i], want)
			}
		}
	}
	if _, err := TableBounds(tab, func(int) bool { return false }, cfg); err == nil {
		t.Fatal("TableBounds over no kept rows must error")
	}
}

// TestUnseenValuesRouted: values the sample never held — below, between and
// above its values — clamp into the nearest slot, streamed or inserted, and
// every rectangle finds exactly the rows inside it.
func TestUnseenValuesRouted(t *testing.T) {
	cfg := Config{GridDims: []int{0}, SortDim: 1, CellsPerDim: 24, Mode: Quantile}
	b, err := SampleBounds([]float64{4, 2, 6, 4}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(b, []float64{2, 4, 6, 6}) {
		t.Fatalf("bounds %v, want [2 4 6 6]", b)
	}
	st, err := NewStreamer(2, cfg, [][]float64{b}, -1)
	if err != nil {
		t.Fatal(err)
	}
	tab := dataset.NewTable([]string{"v", "s"})
	vals := []float64{-5, 1, 2, 3, 4, 5, 6, 7, 100}
	for i, v := range vals {
		st.Add([]float64{v, float64(i)})
		tab.Append([]float64{v, float64(i)})
	}
	g, err := st.Finish()
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range []float64{0, 4.5, 1e9} {
		row := []float64{v, float64(100 + i)}
		if err := g.Insert(row); err != nil {
			t.Fatal(err)
		}
		tab.Append(row)
	}
	wantSlot := map[float64]int{-5: 0, 0: 0, 1: 0, 2: 0, 3: 0, 4: 1, 4.5: 1, 5: 1, 6: 2, 7: 2, 100: 2, 1e9: 2}
	for i := range tab.Len() {
		row := tab.Row(i)
		if c := g.cellOf(row); c != wantSlot[row[0]] {
			t.Errorf("value %v in slot %d, want %d", row[0], c, wantSlot[row[0]])
		}
		if n := index.Count(g, index.Point(row)); n != 1 {
			t.Errorf("row %v found %d times", row, n)
		}
	}
	ref := scan.New(tab)
	col := tab.Column(0)
	for _, lo := range col {
		for _, hi := range col {
			if lo > hi {
				continue
			}
			r := index.Full(2)
			r.Min[0], r.Max[0] = lo, hi
			if got, want := index.Count(g, r), index.Count(ref, r); got != want {
				t.Errorf("[%v, %v]: %d rows, want %d", lo, hi, got, want)
			}
		}
	}
}
