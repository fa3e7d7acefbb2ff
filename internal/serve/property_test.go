package serve_test

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"github.com/coax-index/coax/coax"
	"github.com/coax-index/coax/internal/core"
	"github.com/coax-index/coax/internal/dataset"
	"github.com/coax-index/coax/internal/index"
	"github.com/coax-index/coax/internal/scan"
	"github.com/coax-index/coax/internal/serve"
	"github.com/coax-index/coax/internal/shard"
	"github.com/coax-index/coax/internal/workload"
)

// fdTable plants one soft FD (col1 ≈ 2·col0 + 50) with an outlier fraction
// and two independent columns — the standard property-test table shape.
func fdTable(rng *rand.Rand, n int, outlierFrac float64) *dataset.Table {
	t := dataset.NewTable([]string{"x", "d", "u", "v"})
	for i := 0; i < n; i++ {
		x := rng.Float64() * 1000
		var d float64
		if rng.Float64() < outlierFrac {
			d = rng.Float64() * 2100
		} else {
			d = 2*x + 50 + rng.NormFloat64()*4
		}
		t.Append([]float64{x, d, rng.Float64() * 100, rng.NormFloat64() * 10})
	}
	return t
}

func coreOptions() core.Options {
	opt := core.DefaultOptions()
	opt.SoftFD.SampleCount = 4000
	return opt
}

func sortRows(rows [][]float64) {
	sort.Slice(rows, func(a, b int) bool {
		ra, rb := rows[a], rows[b]
		for i := range ra {
			if ra[i] != rb[i] {
				return ra[i] < rb[i]
			}
		}
		return false
	})
}

func rowsEqual(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// collect runs r against the engine — the compute function the cache
// retains. Collect's rows are stable copies.
func collect(s *shard.Sharded, r index.Rect) [][]float64 {
	out, err := coax.FromRect(r).Collect(s)
	if err != nil {
		panic(err)
	}
	return out
}

// Property: with the result cache in front of the sharded engine, a mixed
// stream of queries, inserts, deletes, updates, compactions, and epoch-swap
// rebuilds never observes a stale cached answer. Every query — whether
// computed, coalesced, or served from cache — must equal a full scan of the
// generator's live multiset at that instant, and a cached answer must equal
// a fresh execution row for row, in order. A rect pool replays earlier
// rectangles so the cache actually serves hits across writes rather than
// being a pass-through, and about half the writes are aimed inside a pooled
// rectangle, so both sides of the rule run: writes outside revalidate
// entries, writes inside evict them.
func TestCacheNeverServesStaleProperty(t *testing.T) {
	var revalidations, staleEvictions int64
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 800 + rng.Intn(1600)
		tab := fdTable(rng, n, 0.15)
		so := shard.Options{NumShards: 1 + rng.Intn(4), Workers: 1 + rng.Intn(3), Column: -1}
		if rng.Float64() < 0.4 {
			so.Column = rng.Intn(tab.Dims())
		}
		s, err := shard.Build(tab, coreOptions(), so)
		if err != nil {
			t.Logf("seed %d: build: %v", seed, err)
			return false
		}

		// Next draws queries against writes 6:3, and a quarter of all ops is
		// a write aimed inside a pooled rectangle: half the ops are queries,
		// as in the default mix, and half the writes are aimed.
		mix := workload.DefaultMixConfig()
		mix.QueryWeight = 6
		gen := workload.NewMixGenerator(tab, seed+1, mix)
		qc := serve.NewQueryCache(s, 128)
		var pool []index.Rect

		ops := 300
		if testing.Short() {
			ops = 120
		}
		for i := 0; i < ops; i++ {
			var op workload.MixOp
			if len(pool) > 0 && rng.Float64() < 0.25 {
				op = gen.NextWriteIn(pool[rng.Intn(len(pool))])
			} else {
				op = gen.Next()
			}
			switch op.Kind {
			case workload.OpInsert:
				if err := s.Insert(op.Row); err != nil {
					t.Logf("seed %d op %d: insert: %v", seed, i, err)
					return false
				}
			case workload.OpDelete:
				if err := s.Delete(op.Row); err != nil {
					t.Logf("seed %d op %d: delete: %v", seed, i, err)
					return false
				}
			case workload.OpUpdate:
				if err := s.Update(op.Old, op.New); err != nil {
					t.Logf("seed %d op %d: update: %v", seed, i, err)
					return false
				}
			case workload.OpQuery:
				r := op.Rect
				if len(pool) > 0 && rng.Float64() < 0.7 {
					r = pool[rng.Intn(len(pool))] // replay: give the cache hits to serve
				} else if len(pool) < 32 {
					pool = append(pool, r)
				}
				v, fromCache, err := qc.Do(serve.Key(r, -1, false, ""), r, func() (any, error) {
					return collect(s, r), nil
				})
				if err != nil {
					t.Logf("seed %d op %d: query: %v", seed, i, err)
					return false
				}
				if fresh := collect(s, r); fromCache && !rowsEqual(v.([][]float64), fresh) {
					t.Logf("seed %d op %d: rect %v: the cached answer differs from a fresh execution (%d rows, fresh %d)",
						seed, i, r, len(v.([][]float64)), len(fresh))
					return false
				}
				// The cached value is shared — copy the top-level slice
				// before sorting instead of reordering it in place.
				got := append([][]float64(nil), v.([][]float64)...)
				want := index.Collect(scan.New(gen.LiveView()), r)
				sortRows(got)
				sortRows(want)
				if !rowsEqual(got, want) {
					t.Logf("seed %d op %d: rect %v: got %d rows, want %d (stale cache?)",
						seed, i, r, len(got), len(want))
					return false
				}
			}
			// Periodic lifecycle churn: epoch-swap rebuilds and tombstone
			// compactions bump shard versions exactly like organic mutations.
			if i%60 == 59 {
				if rng.Float64() < 0.5 {
					// A rebuild may legitimately fail on a drained shard;
					// failure leaves the old epoch serving, which is fine.
					_ = s.RebuildShard(rng.Intn(s.NumShards()))
				} else {
					s.Compact()
				}
			}
		}
		st := qc.Stats()
		if st.Hits == 0 {
			t.Logf("seed %d: cache never hit (hits=0, misses=%d) — the property exercised nothing", seed, st.Misses)
			return false
		}
		revalidations += st.Revalidations
		staleEvictions += st.StaleEvictions
		return true
	}
	cfg := &quick.Config{MaxCount: 6}
	if testing.Short() {
		cfg.MaxCount = 2
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
	if revalidations == 0 || staleEvictions == 0 {
		t.Errorf("%d revalidations and %d stale evictions over every seed: one side of the rule never ran", revalidations, staleEvictions)
	}
}

// Concurrent smoke test under -race: readers serve a fixed rect pool
// through the cache while a writer alternates between rows inside a pooled
// rectangle and rows outside all of them, and forces rebuilds, so lookups
// revalidate and evict while writes record. Each response must only contain
// rows inside its rectangle with the expected width — torn or
// stale-beyond-bounds results would surface here, and the race detector
// owns the memory-model half.
func TestQueryCacheConcurrentMutation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tab := fdTable(rng, 4000, 0.1)
	s, err := shard.Build(tab, coreOptions(), shard.Options{NumShards: 4, Workers: 2, Column: -1})
	if err != nil {
		t.Fatal(err)
	}
	qc := serve.NewQueryCache(s, 64)

	pool := make([]index.Rect, 8)
	for i := range pool {
		pool[i] = workload.RandRect(rng, tab)
	}
	var inside, outside [][]float64
	for i := 0; i < tab.Len(); i++ {
		row := tab.Row(i)
		in := false
		for _, r := range pool {
			in = in || r.Contains(row)
		}
		if in {
			inside = append(inside, row)
		} else {
			outside = append(outside, row)
		}
	}
	if len(inside) == 0 || len(outside) == 0 {
		t.Fatalf("pool splits the table %d inside / %d outside; want both", len(inside), len(outside))
	}

	stop := make(chan struct{})
	var writerWG, readerWG sync.WaitGroup
	writerWG.Add(1)
	go func() { // writer: insert/delete churn plus lifecycle churn
		defer writerWG.Done()
		wrng := rand.New(rand.NewSource(11))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			from := inside
			if i%2 == 1 {
				from = outside
			}
			row := append([]float64(nil), from[wrng.Intn(len(from))]...)
			if err := s.Insert(row); err != nil {
				t.Error(err)
				return
			}
			if err := s.Delete(row); err != nil {
				t.Error(err)
				return
			}
			if i%50 == 49 {
				_ = s.RebuildShard(wrng.Intn(s.NumShards()))
			}
		}
	}()

	for g := 0; g < 4; g++ {
		readerWG.Add(1)
		go func(g int) {
			defer readerWG.Done()
			qrng := rand.New(rand.NewSource(int64(100 + g)))
			for i := 0; i < 300; i++ {
				r := pool[qrng.Intn(len(pool))]
				v, _, err := qc.Do(serve.Key(r, -1, false, ""), r, func() (any, error) {
					return collect(s, r), nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				for _, row := range v.([][]float64) {
					if len(row) != tab.Dims() || !r.Contains(row) {
						t.Errorf("reader %d: row %v outside rect %v", g, row, r)
						return
					}
				}
			}
		}(g)
	}
	readerWG.Wait() // readers run against a continuously mutating engine
	close(stop)
	writerWG.Wait()
}
