package mmapsnap

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"github.com/coax-index/coax/internal/gridfile"
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
			var buf []float64
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
