package gridfile

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"

	"github.com/coax-index/coax/internal/binio"
	"github.com/coax-index/coax/internal/dataset"
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
			g.Encode(w)
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
		for r := 0; r < len(page); r += g.dims {
			row := page[r : r+g.dims]
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
		{"bounds length", 3, Config{GridDims: []int{0}, SortDim: -1, CellsPerDim: 7}, good},
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
