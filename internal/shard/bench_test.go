package shard_test

import (
	"math/rand"
	"testing"

	"github.com/coax-index/coax/internal/core"
	"github.com/coax-index/coax/internal/dataset"
	"github.com/coax-index/coax/internal/index"
	"github.com/coax-index/coax/internal/shard"
	"github.com/coax-index/coax/internal/workload"
)

// BenchmarkBatchQuery is the only timing of the /batch path, which no
// benchmark workload covers: 64 selective rectangles over 8 range shards
// cut on u, a column the rectangles leave open, so 512 probes per call, executed shard-major and taken query-major —
// visiting every row on the caller (BatchQuery, the public batch API), and
// as /batch runs it, keeping the first 100 rows of each query and counting
// the rest (ExecRows).
func BenchmarkBatchQuery(b *testing.B) {
	rng := rand.New(rand.NewSource(62))
	tab := fdTable(rng, 100000, 0.1)
	s, err := shard.Build(tab, coreOptions(), shard.Options{NumShards: 8, Column: 2})
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

// BenchmarkExec times the row fold behind Scan and the public Run: every
// match of a selective rectangle over 8 range shards on a pool of 4 workers
// (cut on u, which the rectangle leaves open, so every shard is probed),
// folded and then yielded on the caller in merge order (all), and the same
// rectangle limited to its first 100 rows (limit100).
func BenchmarkExec(b *testing.B) {
	rng := rand.New(rand.NewSource(63))
	tab := fdTable(rng, 100000, 0.1)
	s, err := shard.Build(tab, coreOptions(), shard.Options{NumShards: 8, Workers: 4, Column: 2})
	if err != nil {
		b.Fatal(err)
	}
	r := index.Full(tab.Dims())
	r.Min[0], r.Max[0] = 400, 450 // 5 % of the predictor's range
	for _, c := range []struct {
		name  string
		limit int
	}{{"all", 0}, {"limit100", 100}} {
		b.Run(c.name, func(b *testing.B) {
			rows := 0
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.Exec(r, index.Spec{Limit: c.limit}, func([]float64) bool { rows++; return true }, nil)
			}
			b.ReportMetric(float64(rows)/float64(b.N), "rows/op")
		})
	}
}

// BenchmarkOneShard prices the one-shard index (the public coax.Index a
// Builder's Build returns) against the engine it wraps: ExecRows on a
// one-shard Reassemble of a 200 k-row OSM core.COAX versus that COAX's own
// ExecAgg folding the same index.RowsState{Keep: 100}, over random
// rectangles matching 500–2 000 rows (wide) and one-row point rectangles
// (point). On point the difference is the fixed cost of a call: the plan,
// the metrics and the merge.
func BenchmarkOneShard(b *testing.B) {
	tab := dataset.GenerateOSM(dataset.DefaultOSMConfig(200000))
	c, err := core.Build(tab, core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	s, err := shard.Reassemble([]*core.COAX{c}, shard.Ranges{Col: -1}, 0)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(64))
	var wide, point []index.Rect
	for len(wide) < 32 {
		r := workload.RandRect(rng, tab)
		if n := index.Count(c, r); n >= 500 && n <= 2000 {
			wide = append(wide, r)
		}
	}
	for len(point) < 32 {
		point = append(point, index.Point(tab.Row(rng.Intn(tab.Len()))))
	}
	keep := index.RowsState{Keep: 100}
	for _, set := range []struct {
		name  string
		rects []index.Rect
	}{{"wide", wide}, {"point", point}} {
		b.Run(set.name+"/core", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				st := keep
				c.ExecAgg(set.rects[i%len(set.rects)], index.Spec{}, &st, nil)
			}
		})
		b.Run(set.name+"/one-shard", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				j := i % len(set.rects)
				s.ExecRows(set.rects[j:j+1], index.Spec{}, keep, nil)
			}
		})
	}
}

// BenchmarkExecAgg times the aggregate fan-out at scan-heap's aggregate
// shape: a 500 k-row OSM table in 4 range shards, rectangles matching
// about Len/50 rows each, and scan-heap's cycle of ops — count, sum(lon),
// min(timestamp), avg(lat) — one sub-benchmark each and one for the cycle
// mixed. OSM's sort column and predictor is id (column 0), so
// min(timestamp), on the dependent column, reads every selected value.
// It reports ns/row over the rows folded.
func BenchmarkExecAgg(b *testing.B) {
	tab := dataset.GenerateOSM(dataset.DefaultOSMConfig(500_000))
	so := shard.DefaultOptions()
	so.NumShards = 4
	s, err := shard.Build(tab, core.DefaultOptions(), so)
	if err != nil {
		b.Fatal(err)
	}
	rects, err := workload.NewGenerator(tab, 65).SelectivityRects(256, tab.Len()/50)
	if err != nil {
		b.Fatal(err)
	}
	count := index.AggSpec{Op: index.AggCount, Col: -1, Group: -1}
	sum := index.AggSpec{Op: index.AggSum, Col: 3, Group: -1}
	least := index.AggSpec{Op: index.AggMin, Col: 1, Group: -1}
	avg := index.AggSpec{Op: index.AggAvg, Col: 2, Group: -1}
	for _, c := range []struct {
		name  string
		specs []index.AggSpec
	}{
		{"count", []index.AggSpec{count}},
		{"sum(lon)", []index.AggSpec{sum}},
		{"min(timestamp)", []index.AggSpec{least}},
		{"avg(lat)", []index.AggSpec{avg}},
		{"mixed", []index.AggSpec{count, sum, least, avg}},
	} {
		b.Run(c.name, func(b *testing.B) {
			var rows int64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				st, _ := s.ExecAgg(rects[i%len(rects)], index.Spec{}, c.specs[i%len(c.specs)], nil)
				rows += st.Rows()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(rows), "ns/row")
		})
	}
}

// BenchmarkShardBuild times the start path of an index built in memory
// (coax.Builder.BuildSharded without a sample, as coaxserve serve builds):
// soft-FD detection over the whole table, range cuts, and four shard
// builds in parallel over 200 k OSM rows.
func BenchmarkShardBuild(b *testing.B) {
	tab := dataset.GenerateOSM(dataset.DefaultOSMConfig(200_000))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := shard.Build(tab, core.DefaultOptions(), shard.Options{NumShards: 4, Column: -1}); err != nil {
			b.Fatal(err)
		}
	}
}
