package coax_test

import (
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"github.com/coax-index/coax/coax"
	"github.com/coax-index/coax/internal/core"
	"github.com/coax-index/coax/internal/gridfile"
	"github.com/coax-index/coax/internal/index"
	"github.com/coax-index/coax/internal/stats"
)

// TestUniformPrimaryFilesOpen: files written before the primary grid took
// each axis's cell count from its column grid every axis at
// PrimaryCellsPerDim quantile cells, low-cardinality columns included.
// Such a file — rebuilt here by regridding each shard's primary that way —
// opens as v2 and v3, keeps its lattice, and answers like a fresh build.
func TestUniformPrimaryFilesOpen(t *testing.T) {
	tab := coax.GenerateAirline(coax.DefaultAirlineConfig(30_000))
	opt := coax.DefaultOptions()
	fresh := build(t, tab, opt, 2)
	if cells := fresh.BuildStats().PrimaryAxisCells; !slices.Contains(cells, 7) {
		t.Fatalf("fresh build: primary cells per axis %v, want dayofweek's 7 among them", cells)
	}

	old := build(t, tab, opt, 2)
	for i := range old.NumShards() {
		if err := old.WithShard(i, func(c *core.COAX) error { return regridUniform(c, opt.PrimaryCellsPerDim) }); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	v2, v3 := filepath.Join(dir, "old.v2"), filepath.Join(dir, "old.v3")
	if err := coax.SaveShardedFile(v2, old); err != nil {
		t.Fatal(err)
	}
	if err := coax.SaveShardedFileV3(v3, old, true); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(37))
	queries := []coax.Rect{coax.FullRect(tab.Dims())}
	for range 30 {
		queries = append(queries, randOSMRect(rng, tab))
	}
	for _, path := range []string{v2, v3} {
		sn := openSnap(t, path)
		idx := serving(t, sn)
		st := idx.BuildStats()
		if want := []int{24, 24, 24}; !slices.Equal(st.PrimaryAxisCells, want) || st.PrimaryCells != 2*24*24*24 {
			t.Fatalf("%s: primary %d cells, %v per axis; want the 24³ lattice per shard", path, st.PrimaryCells, st.PrimaryAxisCells)
		}
		for qi, r := range queries {
			requireSameResult(t, fresh, idx, r, qi)
		}
		if err := sn.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// regridUniform replaces c's primary with the grid earlier builds made:
// cells quantile cells on every axis, whatever the column's cardinality.
func regridUniform(c *core.COAX, cells int) error {
	p := c.Primary()
	var rows [][]float64
	p.Scan(index.Full(p.Dims()), func(row []float64) bool {
		rows = append(rows, slices.Clone(row))
		return true
	}, nil)
	bounds := make([][]float64, len(p.GridDims()))
	for i, d := range p.GridDims() {
		col := make([]float64, len(rows))
		for j, row := range rows {
			col[j] = row[d]
		}
		bounds[i] = stats.Quantiles(col, cells)
	}
	cfg := gridfile.Config{GridDims: p.GridDims(), SortDim: p.SortDim(), CellsPerDim: cells, Mode: gridfile.Quantile, Label: p.Name()}
	s, err := gridfile.NewStreamer(p.Dims(), cfg, bounds, len(rows))
	if err != nil {
		return err
	}
	for _, row := range rows {
		s.Add(row)
	}
	g, err := s.Finish()
	if err != nil {
		return err
	}
	return c.AttachPrimary(g)
}
