package mmapsnap

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/coax-index/coax/internal/dataset"
	"github.com/coax-index/coax/internal/gridfile"
	"github.com/coax-index/coax/internal/index"
	"github.com/coax-index/coax/internal/workload"
)

// benchPage is a page shaped like the ones the repo's benchmark serves from
// its compressed airline snapshot: 62 rows × 8 columns, an integer-valued
// leading column, a sorted float column, and float columns whose XOR
// residues pack at about 52 bits; column-major, column d at page[d*rows:].
func benchPage() (page []float64, rows, dims, sortDim int) {
	rows, dims, sortDim = 62, 8, 1
	rng := rand.New(rand.NewSource(5))
	page = make([]float64, rows*dims)
	for r := 0; r < rows; r++ {
		page[r] = float64(1_000_000 + rng.Intn(1<<20))
		for d := 1; d < dims; d++ {
			page[d*rows+r] = 100 + rng.Float64()*900
		}
	}
	sort.Float64s(page[sortDim*rows : (sortDim+1)*rows])
	return page, rows, dims, sortDim
}

// pageStore wraps one page blob in a single-cell gridStore.
func pageStore(blob []byte, rows, dims, sortDim int) *gridStore {
	return &gridStore{
		data:    blob,
		pagedir: []uint64{0, uint64(len(blob))},
		rows:    []int64{0, int64(rows)},
		dims:    dims,
		sortDim: sortDim,
		errs:    &errBox{},
	}
}

var benchSink gridfile.Span

func BenchmarkCellSpan(b *testing.B) {
	page, rows, dims, sortDim := benchPage()
	s := pageStore(encodePage(page, rows, dims), rows, dims, sortDim)
	windows := map[string][2]float64{
		"narrow": {page[sortDim*rows+30], page[sortDim*rows+32]}, // 3 rows
		"whole":  {math.Inf(-1), math.Inf(1)},
	}
	for name, w := range windows {
		b.Run(name, func(b *testing.B) {
			var buf gridfile.Scratch
			got, _, ok := s.CellSpan(0, w[0], w[1], &buf)
			if !ok {
				b.Fatal(s.errs.get())
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink, _, _ = s.CellSpan(0, w[0], w[1], &buf)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(got.Rows), "ns/row")
		})
	}
}

func BenchmarkDecodePage(b *testing.B) {
	page, rows, dims, sortDim := benchPage()
	blob := encodePage(page, rows, dims)
	dst := make([]float64, rows*dims)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := decodePage(blob, dst, rows, dims, sortDim); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rows), "ns/row")
}

// tallyStore is a gridStore that notes each column source the scans
// reading through it use — a scan's scratch, with its source, outlives the
// scan — and what the source had counted when first seen, so a benchmark
// can count what its scans unpacked and compared.
type tallyStore struct {
	*gridStore
	from map[*pageCols][2]int // unpacked, coded
}

func (s *tallyStore) CellSpan(c int, min, max float64, buf *gridfile.Scratch) (gridfile.Span, int, bool) {
	pc, _ := buf.Cols.(*pageCols)
	if _, seen := s.from[pc]; pc != nil && !seen {
		s.from[pc] = [2]int{pc.unpacked, pc.coded}
	}
	span, first, ok := s.gridStore.CellSpan(c, min, max, buf)
	if pc == nil {
		if pc, _ = buf.Cols.(*pageCols); pc != nil {
			s.from[pc] = [2]int{} // made by this read
		}
	}
	return span, first, ok
}

// tally returns the values unpacked and the codes compared since the
// last tally.
func (s *tallyStore) tally() (unpacked, coded int64) {
	for pc, from := range s.from {
		unpacked += int64(pc.unpacked - from[0])
		coded += int64(pc.coded - from[1])
		s.from[pc] = [2]int{pc.unpacked, pc.coded}
	}
	return unpacked, coded
}

// BenchmarkScanMapped runs the primary grid of a compressed 250 k-row
// airline shard — one of the four the benchmark's mapped-cold workload
// serves — over rectangles that each match about 2 000 rows, the way a
// shard probe folds them: a row reply keeping 100 rows, a COUNT, and a SUM
// of a column the rectangles leave open, so that only the fold reads it.
// It reports ns, unpacked values and compared codes per scanned row (the
// sort column counts as unpacked: every read decodes it whole).
func BenchmarkScanMapped(b *testing.B) {
	tab := dataset.GenerateAirline(dataset.DefaultAirlineConfig(250_000))
	idx := buildIndex(b, tab)
	blob, err := EncodeIndex(idx, Options{Compress: true})
	if err != nil {
		b.Fatal(err)
	}
	sn, err := OpenBytes(blob)
	if err != nil {
		b.Fatal(err)
	}
	parts := single(b, sn).Primary().ExportParts()
	store := &tallyStore{gridStore: parts.Store.(*gridStore), from: map[*pageCols][2]int{}}
	parts.Store, parts.TrustPages = store, true
	g, err := gridfile.FromParts(parts)
	if err != nil {
		b.Fatal(err)
	}
	rects, err := workload.NewGenerator(tab, 11).SelectivityRects(256, 2000)
	if err != nil {
		b.Fatal(err)
	}
	// The summed column: one the grid neither sorts nor cuts on.
	open := -1
	for d := 0; d < tab.Dims() && open < 0; d++ {
		if d != parts.SortDim && !slices.Contains(parts.GridDims, d) {
			open = d
		}
	}
	opened := make([]index.Rect, len(rects))
	for i, r := range rects {
		opened[i] = r.Clone()
		opened[i].Min[open], opened[i].Max[open] = math.Inf(-1), math.Inf(1)
	}
	for _, bc := range []struct {
		name  string
		rects []index.Rect
		fold  func() index.BatchYield
	}{
		{"rows-keep100", rects, func() index.BatchYield { return (&index.RowsState{Keep: 100}).FoldBatch }},
		{"count", rects, func() index.BatchYield {
			return index.NewAggState(index.AggSpec{Op: index.AggCount, Col: -1, Group: -1}).FoldBatch
		}},
		{"sum-open-column", opened, func() index.BatchYield {
			return index.NewAggState(index.AggSpec{Op: index.AggSum, Col: open, Group: -1}).FoldBatch
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var scanned int64
			store.tally()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var p index.Probe
				g.ScanBatch(bc.rects[i%len(bc.rects)], bc.fold(), &p)
				scanned += p.Scanned
			}
			b.StopTimer()
			if err := sn.PageErr(); err != nil {
				b.Fatal(err)
			}
			unpacked, coded := store.tally()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(scanned), "ns/row")
			b.ReportMetric(float64(unpacked)/float64(scanned), "values/row")
			b.ReportMetric(float64(coded)/float64(scanned), "codes/row")
		})
	}
}
