package rtree

import (
	"math/rand"
	"testing"

	"github.com/coax-index/coax/internal/index"
)

// benchScan reports ns per leaf entry scanned over a fixed set of
// rectangles on a bulk-loaded tree — the R-tree baseline's per-row cost.
func benchScan(b *testing.B, scan func(*RTree, index.Rect, *index.Probe)) {
	rng := rand.New(rand.NewSource(48))
	rt, err := Bulk(randomTable(rng, 50000, 3), DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	rects := make([]index.Rect, 64)
	for i := range rects {
		rects[i] = randRect(rng, 3)
	}
	var p index.Probe
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scan(rt, rects[i%len(rects)], &p)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(max(p.Scanned, 1)), "ns/row")
}

func BenchmarkScan(b *testing.B) {
	n := 0
	benchScan(b, func(rt *RTree, r index.Rect, p *index.Probe) {
		rt.Scan(r, func([]float64) bool { n++; return true }, p)
	})
}

func BenchmarkScanBatch(b *testing.B) {
	n := 0
	benchScan(b, func(rt *RTree, r index.Rect, p *index.Probe) {
		rt.ScanBatch(r, func(batch *index.Batch) bool { n += batch.Selected(); return true }, p)
	})
}
