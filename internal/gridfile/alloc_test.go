package gridfile

import (
	"math/rand"
	"testing"

	"github.com/coax-index/coax/internal/index"
)

// TestScanAllocsIndependentOfPagesAndBatches: a scan allocates its scratch
// and its odometer once, however many pages it walks and however many
// batches it hands out — the Batch lives in the scratch, not in a fresh
// object per window that escapes through the yield.
func TestScanAllocsIndependentOfPagesAndBatches(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	tab := randomTable(rng, 40000, 3)
	full := index.Full(3)
	yieldBatch := func(*index.Batch) bool { return true }
	yield := func([]float64) bool { return true }
	for _, cells := range []int{2, 24} { // 4 pages of several batches each; 576 pages of one
		g, err := Build(tab, Config{GridDims: []int{0, 1}, SortDim: 2, CellsPerDim: cells})
		if err != nil {
			t.Fatal(err)
		}
		var p index.Probe
		g.ScanBatch(full, yieldBatch, &p)
		if p.Pages != int64(cells*cells) || p.Batches < 40 {
			t.Fatalf("%d cells/dim: %d pages in %d batches; the guard needs many of both", cells, p.Pages, p.Batches)
		}
		if a := testing.AllocsPerRun(10, func() { g.ScanBatch(full, yieldBatch, nil) }); a > 2 {
			t.Errorf("ScanBatch over %d pages in %d batches: %.0f allocations, want the scratch and the odometer", p.Pages, p.Batches, a)
		}
		if a := testing.AllocsPerRun(10, func() { g.Scan(full, yield, nil) }); a > 3 {
			t.Errorf("Scan over %d pages in %d batches: %.0f allocations, want the scratch, the odometer and the adapter", p.Pages, p.Batches, a)
		}
	}
}
