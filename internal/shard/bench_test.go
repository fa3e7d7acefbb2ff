package shard_test

import (
	"math/rand"
	"testing"

	"github.com/coax-index/coax/internal/index"
	"github.com/coax-index/coax/internal/shard"
)

// BenchmarkBatchQuery is the only timing of the /batch path, which no
// benchmark workload covers: 64 selective rectangles over 8 hash shards,
// 512 probes per call, executed shard-major and merged query-major —
// visiting every row (BatchQuery), and as /batch runs it, keeping the first
// 100 rows of each query and counting the rest (ExecRows).
func BenchmarkBatchQuery(b *testing.B) {
	rng := rand.New(rand.NewSource(62))
	tab := fdTable(rng, 100000, 0.1)
	s, err := shard.Build(tab, coreOptions(), shard.Options{NumShards: 8, Partition: shard.ByHash})
	if err != nil {
		b.Fatal(err)
	}
	rects := make([]index.Rect, 64)
	for i := range rects {
		r := index.Full(tab.Dims())
		lo := rng.Float64() * 990
		r.Min[0], r.Max[0] = lo, lo+10 // 1 % of the predictor's range
		rects[i] = r
	}
	b.Run("visit", func(b *testing.B) {
		rows := 0
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.BatchQuery(rects, func(int, []float64) { rows++ })
		}
		b.ReportMetric(float64(rows)/float64(b.N), "rows/op")
	})
	b.Run("ExecRows", func(b *testing.B) {
		var rows int64
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			states, _ := s.ExecRows(rects, index.Spec{}, index.RowsState{Keep: 100}, nil)
			for _, st := range states {
				rows += st.Count
			}
		}
		b.ReportMetric(float64(rows)/float64(b.N), "rows/op")
	})
}
