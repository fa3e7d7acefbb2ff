package serve

// Microbenchmarks for the serving-tier hot paths — the benchstat targets
// the CI perf-regression gate watches. Each one isolates a single layer:
// key canonicalization, cache hit/miss/validation, single-flight overhead,
// and the admission fast path.

import (
	"context"
	"fmt"
	"testing"

	"github.com/coax-index/coax/internal/index"
)

func benchRect() index.Rect {
	return index.Rect{Min: []float64{1, 2, 3, 4}, Max: []float64{5, 6, 7, 8}}
}

func BenchmarkKey(b *testing.B) {
	r := benchRect()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Key(r, 100, false, "")
	}
}

func BenchmarkCacheHit(b *testing.B) {
	inv := newFakeInv(8)
	c := NewCache(inv, 1024)
	key := Key(benchRect(), 100, false, "")
	c.Put(key, benchRect(), 0, []uint64{0, 0, 0, 0, 0, 0, 0, 0}, "answer")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Get(key); !ok {
			b.Fatal("unexpected miss")
		}
	}
}

func BenchmarkCacheMiss(b *testing.B) {
	inv := newFakeInv(8)
	c := NewCache(inv, 1024)
	key := Key(benchRect(), 100, false, "")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Get(key); ok {
			b.Fatal("unexpected hit")
		}
	}
}

func BenchmarkCachePutEvict(b *testing.B) {
	inv := newFakeInv(1)
	c := NewCache(inv, 256)
	r := benchRect()
	vers := []uint64{0}
	keys := make([]string, 4096)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Put(keys[i%len(keys)], r, 0, vers, i)
	}
}

func BenchmarkQueryCacheHitParallel(b *testing.B) {
	inv := newFakeInv(8)
	qc := NewQueryCache(inv, 1024)
	r := benchRect()
	key := Key(r, 100, false, "")
	if _, _, err := qc.Do(key, r, func() (any, error) { return "answer", nil }); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, fromCache, _ := qc.Do(key, r, func() (any, error) { return "answer", nil }); !fromCache {
				b.Fatal("unexpected miss")
			}
		}
	})
}

func BenchmarkSingleFlightUncontended(b *testing.B) {
	var g flightGroup
	fn := func() (any, error) { return 1, nil }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Do("k", fn)
	}
}

func BenchmarkAdmissionAcquireRelease(b *testing.B) {
	a := NewAdmission(64, 64, 0)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.Acquire(ctx); err != nil {
			b.Fatal(err)
		}
		a.Release()
	}
}
