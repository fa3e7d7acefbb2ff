package core

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"github.com/coax-index/coax/internal/dataset"
	"github.com/coax-index/coax/internal/gridfile"
	"github.com/coax-index/coax/internal/index"
	"github.com/coax-index/coax/internal/workload"
)

// TestOutlierLayoutBeatsCeiling builds one airline table twice over the
// same dependencies: with the chosen outlier layout, and with the
// OutlierCellsPerDim override at the ceiling resolution over every column
// (the layout builds had before the choice existed). The chosen layout must
// hold a directory no larger, read at least 2× fewer outlier pages, cost no
// more under the model's own constants, and answer every rectangle with
// the same rows.
func TestOutlierLayoutBeatsCeiling(t *testing.T) {
	tab := dataset.GenerateAirline(dataset.DefaultAirlineConfig(200_000))
	chosen, err := Build(tab, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	st := chosen.BuildStats()
	opt := DefaultOptions()
	opt.OutlierCellsPerDim = gridfile.DirectoryBoundedCells(tab.Dims(), int64(st.OutlierRows)*int64(tab.Dims())*8)
	ceiling, err := BuildWithFD(tab, chosen.FD(), opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d outliers: chosen %d cells on %v sorted on %d, ceiling %d cells per column",
		st.OutlierRows, st.OutlierCells, st.OutlierGridDims, st.OutlierSortDim, opt.OutlierCellsPerDim)
	if c, e := chosen.OutlierMemoryOverhead(), ceiling.OutlierMemoryOverhead(); c > e {
		t.Errorf("chosen outlier directory %d B, ceiling %d B", c, e)
	}

	rects, err := workload.NewGenerator(tab, 7).SelectivityRects(64, 200)
	if err != nil {
		t.Fatal(err)
	}
	var cp, ep index.Probe
	for qi, r := range rects {
		var crep, erep ProbeReport
		cr := collectRows(chosen, r, &crep)
		er := collectRows(ceiling, r, &erep)
		cp.Add(crep.Outlier)
		ep.Add(erep.Outlier)
		if len(cr) != len(er) {
			t.Fatalf("rect %d: %d rows chosen, %d ceiling", qi, len(cr), len(er))
		}
		for i := range cr {
			for d := range cr[i] {
				if math.Float64bits(cr[i][d]) != math.Float64bits(er[i][d]) {
					t.Fatalf("rect %d row %d: %v chosen, %v ceiling", qi, i, cr[i], er[i])
				}
			}
		}
	}
	cost := func(p index.Probe) float64 {
		return float64(p.Pages)*outlierPageNS + float64(p.Scanned)*outlierRowNS
	}
	t.Logf("outlier pages %d vs %d, rows scanned %d vs %d, model cost %.0f vs %.0f µs",
		cp.Pages, ep.Pages, cp.Scanned, ep.Scanned, cost(cp)/1e3, cost(ep)/1e3)
	if 2*cp.Pages > ep.Pages {
		t.Errorf("chosen layout reads %d outlier pages, ceiling %d: want at least 2× fewer", cp.Pages, ep.Pages)
	}
	if cost(cp) > cost(ep) {
		t.Errorf("chosen layout costs %.0f ns under the model, ceiling %.0f", cost(cp), cost(ep))
	}
}

// collectRows runs r through Exec, filling rep, and returns the matches
// sorted bit-wise.
func collectRows(c *COAX, r index.Rect, rep *ProbeReport) [][]float64 {
	var out [][]float64
	c.Exec(r, index.Spec{}, func(row []float64) bool {
		out = append(out, append([]float64(nil), row...))
		return true
	}, rep)
	slices.SortFunc(out, func(a, b []float64) int {
		for d := range a {
			if c := cmp.Compare(math.Float64bits(a[d]), math.Float64bits(b[d])); c != 0 {
				return c
			}
		}
		return 0
	})
	return out
}

func TestChooseOutlierLayoutSmallPartitions(t *testing.T) {
	tab := dataset.GenerateAirline(dataset.DefaultAirlineConfig(2000))
	for _, n := range []int{1, 2*outlierPageRows - 1} {
		cfg := chooseOutlierLayout(tab.Slice(0, n), n, tab, 1)
		if len(cfg.GridDims) != 0 || cfg.CellsPerDim != 1 || cfg.SortDim != 1 {
			t.Errorf("%d outliers: layout %+v, want one page sorted on column 1", n, cfg)
		}
	}
	// The ceiling bounds every candidate's directory.
	cfg := chooseOutlierLayout(tab, tab.Len(), tab, 1)
	uniform := func(k, cells int) int64 { return gridfile.DirectoryBytes(slices.Repeat([]int{cells}, k)) }
	if got, limit := uniform(len(cfg.GridDims), cfg.CellsPerDim),
		uniform(tab.Dims(), gridfile.DirectoryBoundedCells(tab.Dims(), tab.SizeBytes())); got > limit {
		t.Errorf("layout %+v: directory %d B over the ceiling's %d B", cfg, got, limit)
	}
}

func TestFloorRoot(t *testing.T) {
	for _, c := range []struct{ n, k, want int }{
		{0, 1, 0}, {1925, 1, 1925}, {1925, 2, 43}, {1925, 3, 12}, {1925, 4, 6}, {1296, 4, 6}, {1295, 4, 5}, {27, 3, 3}, {26, 3, 2},
	} {
		if got := floorRoot(c.n, c.k); got != c.want {
			t.Errorf("floorRoot(%d, %d) = %d, want %d", c.n, c.k, got, c.want)
		}
	}
}

// BenchmarkChooseOutlierLayout times the layout choice for one 250 k-row
// airline shard's outliers (≈ 40 k rows, 98 grid subsets).
func BenchmarkChooseOutlierLayout(b *testing.B) {
	tab := dataset.GenerateAirline(dataset.DefaultAirlineConfig(250_000))
	c, err := Build(tab, DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	outliers := dataset.NewTable(tab.Cols)
	for i := range tab.Len() {
		if !c.rowIsInlier(tab.Row(i)) {
			outliers.Append(tab.Row(i))
		}
	}
	b.ReportMetric(float64(outliers.Len()), "outliers")
	b.ResetTimer()
	for range b.N {
		chooseOutlierLayout(outliers, outliers.Len(), tab, c.sortDim)
	}
}
