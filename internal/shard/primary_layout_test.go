package shard_test

import (
	"os"
	"path/filepath"
	"testing"

	"github.com/coax-index/coax/internal/core"
	"github.com/coax-index/coax/internal/dataset"
	"github.com/coax-index/coax/internal/enginetest"
	"github.com/coax-index/coax/internal/mmapsnap"
	"github.com/coax-index/coax/internal/shard"
	"github.com/coax-index/coax/internal/workload"
)

// TestAirlinePrimaryLayout builds a 200 k-row airline table into 4 shards
// as BuildSharded does without a sample budget, and holds each shard's
// primary grid to its columns: no axis has more cells than min(24, the
// column's distinct values), the low-cardinality dayofweek and carrier
// axes have no empty slot, and the directory stays under 25 kB (a grid of
// 24 cells on every axis needs 111 kB). Heap and mapped answers equal the
// reference scan's.
func TestAirlinePrimaryLayout(t *testing.T) {
	tab := dataset.GenerateAirline(dataset.DefaultAirlineConfig(200_000))
	enginetest.Quantize(tab, 0) // the aggregated column; dependent, so not gridded
	opt := core.DefaultOptions()
	so := shard.DefaultOptions()
	so.NumShards = 4
	s, err := shard.Build(tab, opt, so)
	if err != nil {
		t.Fatal(err)
	}

	distinct := make([]int, tab.Dims())
	for d := range distinct {
		seen := map[float64]bool{}
		for _, v := range tab.Column(d) {
			seen[v] = true
		}
		distinct[d] = len(seen)
	}
	for i := range s.NumShards() {
		err := s.WithShard(i, func(c *core.COAX) error {
			p := c.Primary()
			cells, sizes := p.AxisCells(), p.CellSizes()
			lowCard := 0
			for a, d := range p.GridDims() {
				if want := min(opt.PrimaryCellsPerDim, distinct[d]); cells[a] > want {
					t.Errorf("shard %d: %s axis has %d cells, column has %d values", i, tab.Cols[d], cells[a], distinct[d])
				}
				if name := tab.Cols[d]; name != "dayofweek" && name != "carrier" {
					continue
				}
				lowCard++
				stride := 1
				for _, n := range cells[a+1:] {
					stride *= n
				}
				rows := make([]int, cells[a])
				for c, n := range sizes {
					rows[c/stride%cells[a]] += n
				}
				for slot, n := range rows {
					if n == 0 {
						t.Errorf("shard %d: %s slot %d of %d holds no row", i, tab.Cols[d], slot, cells[a])
					}
				}
			}
			if lowCard != 2 {
				t.Errorf("shard %d: primary grids columns %v, want dayofweek and carrier among them", i, p.GridDims())
			}
			if b := c.PrimaryMemoryOverhead(); b > 25_000 {
				t.Errorf("shard %d: primary directory %d B (%v cells per axis), want ≤ 25 kB", i, b, cells)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	rects, err := workload.NewGenerator(tab, 5).SelectivityRects(16, 500)
	if err != nil {
		t.Fatal(err)
	}
	carrier := tab.Dims() - 1
	enginetest.Check(t, "heap", tab, shardedEngine(s), rects, 0, carrier)

	blob, err := mmapsnap.EncodeSharded(s, mmapsnap.Options{Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "airline.v3")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	sn, err := mmapsnap.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer sn.Close()
	enginetest.Check(t, "mapped", tab, shardedEngine(sn.Index()), rects, 0, carrier)
	if err := sn.PageErr(); err != nil {
		t.Fatal(err)
	}
}
