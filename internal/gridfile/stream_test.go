package gridfile

import (
	"math/rand"
	"sort"
	"testing"

	"github.com/coax-index/coax/internal/dataset"
	"github.com/coax-index/coax/internal/index"
	"github.com/coax-index/coax/internal/workload"
)

// collectSorted gathers every row matching r and sorts them for multiset
// comparison.
func collectSorted(g index.Interface, r index.Rect) [][]float64 {
	var out [][]float64
	g.Scan(r, func(row []float64) bool {
		out = append(out, append([]float64(nil), row...))
		return true
	}, nil)
	sort.Slice(out, func(i, j int) bool {
		for d := range out[i] {
			if out[i][d] != out[j][d] {
				return out[i][d] < out[j][d]
			}
		}
		return false
	})
	return out
}

func rowsEqual(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		for d := range a[i] {
			if a[i][d] != b[i][d] {
				return false
			}
		}
	}
	return true
}

func TestStreamerMatchesBuild(t *testing.T) {
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
		{"no grid dims", Config{GridDims: nil, SortDim: 0, CellsPerDim: 4, Mode: Quantile}},
	} {
		built, err := Build(tab, tc.cfg)
		if err != nil {
			t.Fatalf("%s: Build: %v", tc.name, err)
		}
		// Feed the streamer the same boundaries Build derived, so cell
		// assignment is identical and only the assembly path differs.
		bounds := make([][]float64, len(tc.cfg.GridDims))
		for i := range bounds {
			bounds[i] = built.bounds[i]
		}
		st, err := NewStreamer(tab.Dims(), tc.cfg, bounds, -1)
		if err != nil {
			t.Fatalf("%s: NewStreamer: %v", tc.name, err)
		}
		for i := 0; i < tab.Len(); i++ {
			st.Add(tab.Row(i))
		}
		streamed, err := st.Finish()
		if err != nil {
			t.Fatalf("%s: Finish: %v", tc.name, err)
		}

		if streamed.Len() != built.Len() || streamed.NumCells() != built.NumCells() {
			t.Fatalf("%s: len/cells mismatch: %d/%d vs %d/%d",
				tc.name, streamed.Len(), streamed.NumCells(), built.Len(), built.NumCells())
		}
		// Identical per-cell populations.
		bs, ss := built.CellSizes(), streamed.CellSizes()
		for c := range bs {
			if bs[c] != ss[c] {
				t.Fatalf("%s: cell %d holds %d streamed vs %d built rows", tc.name, c, ss[c], bs[c])
			}
		}
		// Identical query answers on random rectangles.
		qrng := rand.New(rand.NewSource(11))
		for q := 0; q < 50; q++ {
			r := workload.RandRect(qrng, tab)
			if !rowsEqual(collectSorted(built, r), collectSorted(streamed, r)) {
				t.Fatalf("%s: query %d differs", tc.name, q)
			}
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
