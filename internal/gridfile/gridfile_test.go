package gridfile

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"github.com/coax-index/coax/internal/dataset"
	"github.com/coax-index/coax/internal/index"
	"github.com/coax-index/coax/internal/scan"
)

func randomTable(rng *rand.Rand, n, dims int) *dataset.Table {
	cols := make([]string, dims)
	for i := range cols {
		cols[i] = string(rune('a' + i))
	}
	t := dataset.NewTable(cols)
	row := make([]float64, dims)
	for i := 0; i < n; i++ {
		for d := range row {
			row[d] = rng.NormFloat64() * 10
		}
		t.Append(row)
	}
	return t
}

func sortRows(rows [][]float64) {
	sort.Slice(rows, func(i, j int) bool {
		for d := range rows[i] {
			if rows[i][d] != rows[j][d] {
				return rows[i][d] < rows[j][d]
			}
		}
		return false
	})
}

func sameRows(t *testing.T, got, want [][]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("result count %d, want %d", len(got), len(want))
	}
	sortRows(got)
	sortRows(want)
	for i := range got {
		for d := range got[i] {
			if got[i][d] != want[i][d] {
				t.Fatalf("row %d differs: %v vs %v", i, got[i], want[i])
			}
		}
	}
}

// namedConfig is one named case of a table of grid configurations.
type namedConfig struct {
	name string
	cfg  Config
}

func TestBuildValidation(t *testing.T) {
	tab := randomTable(rand.New(rand.NewSource(1)), 10, 3)
	cases := []namedConfig{
		{"bad-cells", Config{GridDims: []int{0}, SortDim: -1, CellsPerDim: 0}},
		{"dup-dim", Config{GridDims: []int{0, 0}, SortDim: -1, CellsPerDim: 2}},
		{"grid-dim-out-of-range", Config{GridDims: []int{5}, SortDim: -1, CellsPerDim: 2}},
		{"sort-dim-is-grid-dim", Config{GridDims: []int{0}, SortDim: 0, CellsPerDim: 2}},
		{"sort-dim-out-of-range", Config{GridDims: []int{0}, SortDim: 9, CellsPerDim: 2}},
		{"bad-mode", Config{GridDims: []int{0}, SortDim: -1, CellsPerDim: 2, Mode: 99}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := Build(tab, c.cfg); err == nil {
				t.Errorf("invalid config accepted: %+v", c.cfg)
			}
		})
	}
	if _, err := Build(dataset.NewTable([]string{"a"}), Config{CellsPerDim: 2, SortDim: -1}); err == nil {
		t.Error("empty table accepted")
	}
}

func TestQueryMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tab := randomTable(rng, 5000, 3)
	oracle := scan.New(tab)

	cases := []namedConfig{
		{"quantile-every-column", Config{GridDims: []int{0, 1, 2}, SortDim: -1, CellsPerDim: 8, Mode: Quantile}},
		// The paper's Full Grid baseline: every column gridded uniformly.
		{"full-grid", Config{GridDims: []int{0, 1, 2}, SortDim: -1, CellsPerDim: 8, Mode: Uniform}},
		// The paper's Column Files baseline: quantile cells on every column
		// but one, and the rows of a cell sorted on that one.
		{"column-files", Config{GridDims: []int{0, 1}, SortDim: 2, CellsPerDim: 8, Mode: Quantile}},
		{"one-axis-sorted", Config{GridDims: []int{1}, SortDim: 0, CellsPerDim: 16, Mode: Quantile}},
		{"one-sorted-page", Config{GridDims: nil, SortDim: 0, CellsPerDim: 1, Mode: Quantile}},
		{"one-page", Config{GridDims: nil, SortDim: -1, CellsPerDim: 1, Mode: Quantile}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := c.cfg
			g, err := Build(tab, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if g.Len() != tab.Len() {
				t.Fatalf("Len = %d", g.Len())
			}
			// Only the grid dims get cells; a sort dim gets no grid lines.
			if len(g.AxisCells()) != len(cfg.GridDims) {
				t.Fatalf("cells per axis %v over grid dims %v", g.AxisCells(), cfg.GridDims)
			}
			// A uniform axis always takes the full CellsPerDim.
			for _, n := range g.AxisCells() {
				if cfg.Mode == Uniform && n != cfg.CellsPerDim {
					t.Fatalf("cells per axis %v, want %d each", g.AxisCells(), cfg.CellsPerDim)
				}
			}
			for trial := 0; trial < 30; trial++ {
				r := randQueryRect(rng, 3)
				sameRows(t, index.Collect(g, r), index.Collect(oracle, r))
			}
			// Point queries on existing rows.
			for trial := 0; trial < 20; trial++ {
				p := index.Point(tab.Row(rng.Intn(tab.Len())))
				if index.Count(g, p) < 1 {
					t.Fatal("point query lost its own row")
				}
			}
		})
	}
}

func randQueryRect(rng *rand.Rand, dims int) index.Rect {
	r := index.Full(dims)
	for d := 0; d < dims; d++ {
		if rng.Float64() < 0.3 {
			continue // leave unconstrained
		}
		a := rng.NormFloat64() * 10
		b := rng.NormFloat64() * 10
		if a > b {
			a, b = b, a
		}
		r.Min[d], r.Max[d] = a, b
	}
	return r
}

func TestEmptyRectReturnsNothing(t *testing.T) {
	tab := randomTable(rand.New(rand.NewSource(3)), 100, 2)
	g, err := Build(tab, Config{GridDims: []int{0}, SortDim: 1, CellsPerDim: 4})
	if err != nil {
		t.Fatal(err)
	}
	r := index.NewRect([]float64{5, 0}, []float64{-5, 1}) // Min > Max
	if index.Count(g, r) != 0 {
		t.Error("empty rect must match nothing")
	}
}

func TestCellSizesSumToLen(t *testing.T) {
	tab := randomTable(rand.New(rand.NewSource(4)), 2000, 2)
	g, err := Build(tab, Config{GridDims: []int{0, 1}, SortDim: -1, CellsPerDim: 8})
	if err != nil {
		t.Fatal(err)
	}
	sizes := g.CellSizes()
	if len(sizes) != 64 {
		t.Fatalf("NumCells = %d, want 64", len(sizes))
	}
	sum := 0
	for _, s := range sizes {
		sum += s
	}
	if sum != 2000 {
		t.Errorf("cell sizes sum to %d, want 2000", sum)
	}
}

func TestQuantileModeBalancesCells(t *testing.T) {
	// Heavily skewed 1-D data: quantile boundaries must balance cells
	// while uniform boundaries must not.
	rng := rand.New(rand.NewSource(5))
	tab := dataset.NewTable([]string{"x", "y"})
	for i := 0; i < 10000; i++ {
		v := rng.ExpFloat64() * 100
		tab.Append([]float64{v, rng.Float64()})
	}
	q, err := Build(tab, Config{GridDims: []int{0}, SortDim: -1, CellsPerDim: 10, Mode: Quantile})
	if err != nil {
		t.Fatal(err)
	}
	u, err := Build(tab, Config{GridDims: []int{0}, SortDim: -1, CellsPerDim: 10, Mode: Uniform})
	if err != nil {
		t.Fatal(err)
	}
	qmax, umax := 0, 0
	for _, s := range q.CellSizes() {
		if s > qmax {
			qmax = s
		}
	}
	for _, s := range u.CellSizes() {
		if s > umax {
			umax = s
		}
	}
	if qmax > 1400 {
		t.Errorf("quantile cells unbalanced: max = %d", qmax)
	}
	if umax < 3*qmax {
		t.Errorf("uniform grid should be much more skewed: umax=%d qmax=%d", umax, qmax)
	}
}

func TestMemoryOverheadGrowsWithCells(t *testing.T) {
	tab := randomTable(rand.New(rand.NewSource(6)), 1000, 2)
	small, err := Build(tab, Config{GridDims: []int{0, 1}, SortDim: -1, CellsPerDim: 2})
	if err != nil {
		t.Fatal(err)
	}
	big, err := Build(tab, Config{GridDims: []int{0, 1}, SortDim: -1, CellsPerDim: 32})
	if err != nil {
		t.Fatal(err)
	}
	if small.MemoryOverhead() >= big.MemoryOverhead() {
		t.Errorf("overhead should grow with cell count: %d vs %d",
			small.MemoryOverhead(), big.MemoryOverhead())
	}
	if small.MemoryOverhead() <= 0 {
		t.Error("overhead must be positive")
	}
}

func TestLabelAndName(t *testing.T) {
	tab := randomTable(rand.New(rand.NewSource(7)), 10, 1)
	g, err := Build(tab, Config{GridDims: []int{0}, SortDim: -1, CellsPerDim: 2, Label: "custom"})
	if err != nil {
		t.Fatal(err)
	}
	if g.Name() != "custom" {
		t.Errorf("Name = %q", g.Name())
	}
	g2, err := Build(tab, Config{GridDims: []int{0}, SortDim: -1, CellsPerDim: 2})
	if err != nil {
		t.Fatal(err)
	}
	if g2.Name() != "GridFile" {
		t.Errorf("default Name = %q", g2.Name())
	}
}

func TestDuplicateValuesAllFound(t *testing.T) {
	// Many identical rows stress boundary assignment consistency.
	tab := dataset.NewTable([]string{"x", "y"})
	for i := 0; i < 500; i++ {
		tab.Append([]float64{5, 5})
	}
	for i := 0; i < 500; i++ {
		tab.Append([]float64{float64(i % 10), float64(i % 7)})
	}
	g, err := Build(tab, Config{GridDims: []int{0}, SortDim: 1, CellsPerDim: 8})
	if err != nil {
		t.Fatal(err)
	}
	if got := index.Count(g, index.Point([]float64{5, 5})); got < 500 {
		t.Errorf("point query on duplicates found %d rows, want ≥ 500", got)
	}
}

// Property: grid file is exactly equivalent to full scan for random tables,
// configurations, and queries.
func TestGridFileEquivalenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dims := 1 + rng.Intn(4)
		n := 50 + rng.Intn(500)
		tab := randomTable(rng, n, dims)
		oracle := scan.New(tab)

		// Random legal configuration.
		var gridDims []int
		for d := 0; d < dims; d++ {
			if rng.Float64() < 0.6 {
				gridDims = append(gridDims, d)
			}
		}
		sortDim := -1
		if rng.Float64() < 0.5 {
			for d := 0; d < dims; d++ {
				inGrid := false
				for _, gd := range gridDims {
					if gd == d {
						inGrid = true
						break
					}
				}
				if !inGrid {
					sortDim = d
					break
				}
			}
		}
		mode := Quantile
		if rng.Float64() < 0.5 {
			mode = Uniform
		}
		g, err := Build(tab, Config{
			GridDims: gridDims, SortDim: sortDim,
			CellsPerDim: 1 + rng.Intn(12), Mode: mode,
		})
		if err != nil {
			return false
		}
		for trial := 0; trial < 10; trial++ {
			r := randQueryRect(rng, dims)
			if index.Count(g, r) != index.Count(oracle, r) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestDirectoryBoundedCells(t *testing.T) {
	// 2 dims, 800 bytes budget: c²·8 ≤ 800 → c ≤ 10.
	if got := DirectoryBoundedCells(2, 800); got != 10 {
		t.Errorf("DirectoryBoundedCells(2, 800) = %d, want 10", got)
	}
	// 8 dims, generous budget still capped at 64.
	if got := DirectoryBoundedCells(1, 1<<40); got != 64 {
		t.Errorf("cap broken: %d", got)
	}
	// Tiny budget degrades to a single cell.
	if got := DirectoryBoundedCells(4, 10); got != 1 {
		t.Errorf("tiny budget: %d, want 1", got)
	}
	// Zero grid dims.
	if got := DirectoryBoundedCells(0, 1000); got != 1 {
		t.Errorf("zero dims: %d, want 1", got)
	}
}
