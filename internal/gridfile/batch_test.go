package gridfile

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"github.com/coax-index/coax/internal/enginetest"
	"github.com/coax-index/coax/internal/index"
	"github.com/coax-index/coax/internal/workload"
)

// TestScanBatchMatchesScan is the grid file's rows of the engine table
// (internal/enginetest): a resident grid and its store-backed twin, in every
// mutation state — fresh, with overflow inserts, with tombstones, both, and
// compacted — each driven through Scan, ScanBatch+Each and FoldBatch and
// compared against the reference row loop over the live rows.
func TestScanBatchMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	// Columns: two grid dimensions, the sort dimension (quantized — it is
	// the aggregated column), and a categorical one to group by.
	shape := func(row []float64) []float64 {
		row[2], row[3] = math.Round(row[2]*16)/16+0, math.Floor(row[3]/10)
		return row
	}
	tab := randomTable(rng, 4000, 4)
	for i := 0; i < tab.Len(); i++ {
		shape(tab.Row(i))
	}
	type twin struct {
		heap, mapped *GridFile
		live         *enginetest.Live
	}
	insert := func(t *testing.T, w twin, row []float64) {
		if err := errors.Join(w.heap.Insert(row), w.mapped.Insert(row)); err != nil {
			t.Fatal(err)
		}
		w.live.Insert(row)
	}
	remove := func(t *testing.T, w twin, row []float64) {
		if h, m, l := w.heap.Delete(row), w.mapped.Delete(row), w.live.Delete(row); h != l || m != l {
			t.Fatalf("Delete(%v): resident %v, store-backed %v, live rows %v", row, h, m, l)
		}
	}
	states := map[string]func(*testing.T, twin){
		"fresh": func(*testing.T, twin) {},
		"overflow": func(t *testing.T, w twin) {
			for i := 0; i < 300; i++ {
				insert(t, w, shape([]float64{rng.NormFloat64() * 10, rng.NormFloat64() * 10, rng.NormFloat64() * 10, rng.NormFloat64() * 10}))
			}
		},
		"tombstoned": func(t *testing.T, w twin) {
			for i := 0; i < 500; i += 3 {
				remove(t, w, tab.Row(i))
			}
		},
		"overflow+tombstoned": func(t *testing.T, w twin) {
			for i := 0; i < 200; i++ {
				insert(t, w, tab.Row(i))
			}
			for i := 0; i < 600; i += 2 {
				remove(t, w, tab.Row(i))
			}
		},
		"compacted": func(t *testing.T, w twin) {
			for i := 0; i < 500; i += 3 {
				remove(t, w, tab.Row(i))
			}
			if err := errors.Join(w.heap.Compact(), w.mapped.Compact()); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, mutate := range states {
		t.Run(name, func(t *testing.T) {
			heap, err := Build(tab, Config{GridDims: []int{0, 1}, SortDim: 2, CellsPerDim: 6})
			if err != nil {
				t.Fatal(err)
			}
			mapped, _ := storeBacked(t, heap)
			w := twin{heap, mapped, enginetest.NewLive(tab)}
			mutate(t, w)
			rects := []index.Rect{index.Full(4), index.Point(tab.Row(7))}
			for i := 0; i < 40; i++ {
				rects = append(rects, workload.RandRect(rng, tab))
			}
			live := w.live.Table(tab.Cols)
			enginetest.Check(t, name+" resident", live, enginetest.Storage(heap), rects, 2, 3)
			enginetest.Check(t, name+" store-backed", live, enginetest.Storage(mapped), rects, 2, 3)
		})
	}
}

// TestScanBatchStops verifies a false-returning batch yield stops the one
// traversal, that a false-returning row yield stops it through the Scan
// adapter, and that both report incompleteness.
func TestScanBatchStops(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	tab := randomTable(rng, 2000, 2)
	g, err := Build(tab, Config{GridDims: []int{0}, SortDim: 1, CellsPerDim: 4})
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	complete := g.ScanBatch(index.Full(2), func(b *index.Batch) bool {
		calls++
		return false
	}, nil)
	if complete || calls != 1 {
		t.Fatalf("complete=%v after %d yields, want aborted after 1", complete, calls)
	}
	calls = 0
	complete = g.Scan(index.Full(2), func([]float64) bool { calls++; return calls < 3 }, nil)
	if complete || calls != 3 {
		t.Fatalf("row scan: complete=%v after %d yields, want stopped at the 3rd row", complete, calls)
	}

	// An abort hook fires at page granularity even when nothing matches.
	var p index.Probe
	p.Abort = func() bool { return true }
	if g.ScanBatch(index.Full(2), func(*index.Batch) bool { return true }, &p) {
		t.Fatal("aborted scan reported complete")
	}
	if g.Scan(index.Full(2), func([]float64) bool { return true }, &p) || p.Pages != 0 {
		t.Fatalf("aborted row scan reported complete or read %d pages", p.Pages)
	}
}

// TestScanBatchSelectionInvariants checks the bitmap contract every fold
// relies on: tail bits past Rows are zero and Selected agrees with Each.
func TestScanBatchSelectionInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	tab := randomTable(rng, 3000, 2)
	g, err := Build(tab, Config{GridDims: []int{0}, SortDim: 1, CellsPerDim: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i += 2 {
		g.Delete(tab.Row(i))
	}
	r := workload.RandRect(rng, tab)
	g.ScanBatch(r, func(b *index.Batch) bool {
		if b.Rows < 1 || b.Rows > index.BatchRows {
			t.Fatalf("batch carries %d rows", b.Rows)
		}
		if len(b.Sel) != index.BatchWords(b.Rows) {
			t.Fatalf("%d selection words for %d rows", len(b.Sel), b.Rows)
		}
		if tail := b.Rows & 63; tail != 0 {
			if b.Sel[len(b.Sel)-1]&^(1<<uint(tail)-1) != 0 {
				t.Fatal("selection bits set past Rows")
			}
		}
		n := 0
		b.Each(func(row []float64) bool {
			if !r.Contains(row) {
				t.Fatalf("selected row %v outside %v", row, r)
			}
			n++
			return true
		})
		if n != b.Selected() {
			t.Fatalf("Each visited %d rows, Selected says %d", n, b.Selected())
		}
		return true
	}, nil)
}

// TestScanBatchTestsClampedEdgeRows: Slot clamps a value below the first
// boundary into slot 0 and one above the last into the last slot, so a
// rectangle whose side sits exactly on the first (or last) boundary does
// not prove those slots, and the rows clamped there must not come back.
func TestScanBatchTestsClampedEdgeRows(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	tab := randomTable(rng, 2000, 2)
	g, err := Build(tab, Config{GridDims: []int{0}, SortDim: 1, CellsPerDim: 4})
	if err != nil {
		t.Fatal(err)
	}
	b := g.bounds[0]
	below, above := []float64{b[0] - 1, 0}, []float64{b[len(b)-1] + 1, 0}
	for _, row := range [][]float64{below, above} {
		if err := g.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range []index.Rect{
		index.NewRect([]float64{b[0], math.Inf(-1)}, []float64{b[1], math.Inf(1)}),
		index.NewRect([]float64{b[0], math.Inf(-1)}, []float64{math.Inf(1), math.Inf(1)}),
		index.NewRect([]float64{math.Inf(-1), math.Inf(-1)}, []float64{b[len(b)-1], math.Inf(1)}),
	} {
		g.Scan(r, func(row []float64) bool {
			if !r.Contains(row) {
				t.Fatalf("%v returned row %v, which Slot clamped into an edge slot", r, row)
			}
			return true
		}, nil)
	}
}
