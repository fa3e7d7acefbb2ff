package rtree

import (
	"math"
	"math/rand"
	"testing"

	"github.com/coax-index/coax/internal/enginetest"
	"github.com/coax-index/coax/internal/index"
)

// TestScanBatchMatchesScan is the R-tree's rows of the engine table
// (internal/enginetest): the bulk-loaded tree driven through Scan (which
// tests leaf entries in place), ScanBatch+Each and FoldBatch (which gather
// them) and compared against the reference row loop — with the two
// traversals required to visit the same nodes and entries.
func TestScanBatchMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// Column 2 is aggregated (quantized), column 3 categorical.
	shape := func(row []float64) []float64 {
		row[2], row[3] = math.Round(row[2]*16)/16, math.Floor(row[3]/10)
		return row
	}
	tab := randomTable(rng, 3000, 4)
	for i := 0; i < tab.Len(); i++ {
		shape(tab.Row(i))
	}
	rt, err := Bulk(tab, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	e := enginetest.Storage(rt)
	e.RowsInPlace = true
	rects := []index.Rect{index.Full(4)}
	for i := 0; i < 40; i++ {
		rects = append(rects, randRect(rng, 4))
	}
	enginetest.Check(t, "bulk", tab, e, rects, 2, 3)
}

// TestScanBatchStops verifies batch-yield, row-yield and abort-hook
// termination of the one descent.
func TestScanBatchStops(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	tab := randomTable(rng, 5000, 2)
	rt, err := Bulk(tab, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	if rt.ScanBatch(index.Full(2), func(*index.Batch) bool { calls++; return false }, nil) {
		t.Fatal("stopped scan reported complete")
	}
	if calls != 1 {
		t.Fatalf("yield ran %d times after returning false", calls)
	}
	calls = 0
	if rt.Scan(index.Full(2), func([]float64) bool { calls++; return calls < 3 }, nil) || calls != 3 {
		t.Fatalf("row scan went on for %d yields after the 3rd declined", calls)
	}
	var p index.Probe
	p.Abort = func() bool { return true }
	if rt.ScanBatch(index.Full(2), func(*index.Batch) bool { return true }, &p) {
		t.Fatal("aborted scan reported complete")
	}
	if rt.Scan(index.Full(2), func([]float64) bool { return true }, &p) || p.Pages != 0 {
		t.Fatalf("aborted row scan reported complete or visited %d nodes", p.Pages)
	}
}
