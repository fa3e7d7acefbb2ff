package gridfile

import (
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/coax-index/coax/internal/binio"
	"github.com/coax-index/coax/internal/dataset"
	"github.com/coax-index/coax/internal/index"
)

func testTable(n, dims int, seed int64) *dataset.Table {
	rng := rand.New(rand.NewSource(seed))
	cols := make([]string, dims)
	for i := range cols {
		cols[i] = string(rune('a' + i))
	}
	t := dataset.NewTable(cols)
	row := make([]float64, dims)
	for i := 0; i < n; i++ {
		for d := range row {
			row[d] = rng.NormFloat64() * float64(d+1)
		}
		t.Append(row)
	}
	return t
}

// encode writes g as the format v1/v2 payload Decode reads: the encoder
// those formats were written with, kept here to make Decode's inputs.
func encode(g *GridFile, w *binio.Writer) {
	encodeRows(g, legacyRows(g.data, g.offsets, g.dims), w)
}

// legacyRows is the row-major payload those formats store for column-major
// main pages cut by offsets.
func legacyRows(data []float64, offsets []int64, dims int) []float64 {
	rows := make([]float64, 0, len(data))
	for c := 0; c+1 < len(offsets); c++ {
		o, e := int(offsets[c]), int(offsets[c+1])
		page := ColumnMajor(data[o*dims:e*dims], e-o, dims)
		for i := 0; i < page.Rows; i++ {
			rows = page.AppendRow(rows, i, dims)
		}
	}
	return rows
}

// encodeRows writes g with rows as its row-major main-page payload.
func encodeRows(g *GridFile, rows []float64, w *binio.Writer) {
	w.Ints(g.cfg.GridDims)
	w.Int(g.cfg.SortDim)
	w.Int(g.cfg.CellsPerDim)
	w.Int(int(g.cfg.Mode))
	w.String(g.cfg.Label)
	w.Int(g.dims)
	w.Int(g.n)
	w.Uint64(uint64(len(g.bounds)))
	for _, b := range g.bounds {
		w.Float64s(b)
	}
	w.Int64s(g.offsets)
	w.Float64s(rows)
	cells := slices.Sorted(maps.Keys(g.overflow))
	w.Uint64(uint64(len(cells)))
	for _, c := range cells {
		w.Int(c)
		w.Float64s(g.overflow[c].data)
	}
}

func roundTrip(t *testing.T, g *GridFile) *GridFile {
	t.Helper()
	w := binio.NewWriter()
	encode(g, w)
	r := binio.NewReader(w.Bytes())
	got, err := Decode(r)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return got
}

func requireSameQueries(t *testing.T, want, got index.Interface, tab *dataset.Table) {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	for q := 0; q < 50; q++ {
		r := index.Full(tab.Dims())
		for d := 0; d < tab.Dims(); d++ {
			if rng.Intn(2) == 0 {
				continue
			}
			a, b := rng.NormFloat64()*float64(d+1), rng.NormFloat64()*float64(d+1)
			if a > b {
				a, b = b, a
			}
			r.Min[d], r.Max[d] = a, b
		}
		if w, g := index.Count(want, r), index.Count(got, r); w != g {
			t.Fatalf("query %d %v: %d != %d", q, r, w, g)
		}
	}
	if w, g := index.Count(want, index.Full(tab.Dims())), got.Len(); w != g {
		t.Fatalf("full scan %d != Len %d", w, g)
	}
}

func TestCodecRoundTrip(t *testing.T) {
	tab := testTable(5000, 3, 1)
	cases := []namedConfig{
		// Column Files: quantile cells and a sort column; the label survives.
		{"column-files", Config{GridDims: []int{0, 2}, SortDim: 1, CellsPerDim: 8, Mode: Quantile, Label: "ColumnFiles"}},
		// Full Grid: every column gridded uniformly, no sort column.
		{"full-grid", Config{GridDims: []int{0, 1, 2}, SortDim: -1, CellsPerDim: 6, Mode: Uniform, Label: "FullGrid"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g, err := Build(tab, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := roundTrip(t, g)
			if got.Name() != c.cfg.Label || got.Len() != g.Len() || got.Dims() != g.Dims() || got.NumCells() != g.NumCells() {
				t.Fatalf("decoded %q: %d rows, %d dims, %d cells; built %q: %d, %d, %d",
					got.Name(), got.Len(), got.Dims(), got.NumCells(), g.Name(), g.Len(), g.Dims(), g.NumCells())
			}
			requireSameQueries(t, g, got, tab)
		})
	}
}

// TestCodecRoundTripPerAxisCells: a grid whose axes have different cell
// counts — a continuous column at the maximum, a five-value column at one
// cell per value — decodes with the same counts and the same answers.
func TestCodecRoundTripPerAxisCells(t *testing.T) {
	tab := testTable(4000, 3, 6)
	for i := range tab.Len() {
		tab.Row(i)[1] = math.Floor(math.Mod(math.Abs(tab.Row(i)[1]), 5))
	}
	g, err := Build(tab, Config{GridDims: []int{0, 1}, SortDim: 2, CellsPerDim: 8, Mode: Quantile})
	if err != nil {
		t.Fatal(err)
	}
	if got := g.AxisCells(); !slices.Equal(got, []int{8, 5}) {
		t.Fatalf("cells per axis %v, want [8 5]", got)
	}
	got := roundTrip(t, g)
	if !slices.Equal(got.AxisCells(), g.AxisCells()) || got.NumCells() != 40 || got.MemoryOverhead() != g.MemoryOverhead() {
		t.Fatalf("decoded %v cells per axis (%d cells, %d B), built %v (%d B)",
			got.AxisCells(), got.NumCells(), got.MemoryOverhead(), g.AxisCells(), g.MemoryOverhead())
	}
	requireSameQueries(t, g, got, tab)
}

func TestCodecRoundTripWithOverflow(t *testing.T) {
	tab := testTable(2000, 3, 2)
	g, err := Build(tab, Config{GridDims: []int{0, 1}, SortDim: 2, CellsPerDim: 4, Mode: Uniform})
	if err != nil {
		t.Fatal(err)
	}
	extra := testTable(200, 3, 4)
	for i := 0; i < extra.Len(); i++ {
		if err := g.Insert(extra.Row(i)); err != nil {
			t.Fatal(err)
		}
		tab.Append(extra.Row(i))
	}
	got := roundTrip(t, g)
	if got.Inserted() != g.Inserted() {
		t.Fatalf("Inserted %d != %d", got.Inserted(), g.Inserted())
	}
	requireSameQueries(t, g, got, tab)
	// The decoded index must stay mutable: Compact and further inserts.
	got.Compact()
	if got.Inserted() != 0 || got.Len() != g.Len() {
		t.Fatalf("Compact broke decoded grid: inserted=%d len=%d", got.Inserted(), got.Len())
	}
	requireSameQueries(t, g, got, tab)
}

// TestCodecRejectsCorruptStructure hand-corrupts decoded-field invariants
// that a CRC pass cannot rule out (the CRC guards bit rot, these guard
// adversarial or buggy writers).
func TestCodecRejectsCorruptStructure(t *testing.T) {
	tab := testTable(500, 2, 5)
	g, err := Build(tab, Config{GridDims: []int{0}, SortDim: 1, CellsPerDim: 4, Mode: Quantile})
	if err != nil {
		t.Fatal(err)
	}
	mutations := map[string]func(*GridFile){
		"row count":      func(m *GridFile) { m.n++ },
		"sort==grid dim": func(m *GridFile) { m.cfg.SortDim = 0 },
		"offset start":   func(m *GridFile) { m.offsets[0] = 1 },
		"offset order":   func(m *GridFile) { m.offsets[1] = m.offsets[len(m.offsets)-1] + 5 },
		"bounds order":   func(m *GridFile) { m.bounds[0][0] = m.bounds[0][len(m.bounds[0])-1] + 1 },
		"grid dim range": func(m *GridFile) { m.cfg.GridDims[0] = 7 },
		"bounds short":   func(m *GridFile) { m.bounds[0] = m.bounds[0][:1] },
		"bounds over max": func(m *GridFile) {
			m.bounds[0] = append(m.bounds[0], m.bounds[0][len(m.bounds[0])-1])
		},
		"unsorted cell": func(m *GridFile) {
			// Break the in-cell sort order of the first cell with ≥ 2 rows.
			for c := 0; c < m.NumCells(); c++ {
				if m.offsets[c+1]-m.offsets[c] >= 2 {
					page := m.cellPage(c)
					keys := page.Data[m.cfg.SortDim*page.ColStep:]
					keys[0], keys[page.RowStep] = keys[page.RowStep]+1, keys[0]
					return
				}
			}
			panic("no cell with two rows")
		},
	}
	for name, mutate := range mutations {
		w := binio.NewWriter()
		clone := *g
		clone.cfg.GridDims = append([]int(nil), g.cfg.GridDims...)
		clone.bounds = make([][]float64, len(g.bounds))
		for i := range g.bounds {
			clone.bounds[i] = append([]float64(nil), g.bounds[i]...)
		}
		clone.offsets = append([]int64(nil), g.offsets...)
		clone.data = append([]float64(nil), g.data...)
		mutate(&clone)
		encodeRows(&clone, legacyRows(clone.data, g.offsets, g.dims), w)
		if _, err := Decode(binio.NewReader(w.Bytes())); err == nil {
			t.Errorf("%s: Decode accepted corrupt structure", name)
		}
	}
}

// TestFromPartsRejectsBoundsLength: an axis needs 2 to CellsPerDim+1
// boundaries — at least one cell, at most the stored maximum — on the
// assembly path a mapped snapshot opens through, as in Decode.
func TestFromPartsRejectsBoundsLength(t *testing.T) {
	g, err := Build(testTable(500, 2, 5), Config{GridDims: []int{0}, SortDim: 1, CellsPerDim: 4, Mode: Quantile})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FromParts(g.ExportParts()); err != nil {
		t.Fatalf("unmodified parts: %v", err)
	}
	b := g.ExportParts().Bounds[0]
	for name, bounds := range map[string][]float64{
		"no boundary":  nil,
		"one boundary": b[:1],
		"over the max": append(slices.Clone(b), b[len(b)-1]),
	} {
		p := g.ExportParts()
		p.Bounds = [][]float64{bounds}
		if _, err := FromParts(p); err == nil {
			t.Errorf("%s: FromParts accepted %d boundaries with CellsPerDim %d", name, len(bounds), p.CellsPerDim)
		}
	}
}
